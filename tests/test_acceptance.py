"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria:
  1. formula fidelity against brute-force / finite-difference oracles
  2. engine bitwise-matches an independent straight-line reference
  3. cooperative learning improves the exact objective, seeds agree
  4. a single constant broadcaster hijacks every undefended critic
  5. trimming on a 3-robust graph contains the same attack
  6. with the actor frozen, running-reward trackers converge to the
     stationary reward oracle and critics to the exact TD fixed point
"""
import concurrent.futures
import math
import time

import numpy as np
import pytest

from resilient_marl.agents import (
    ActorParams,
    LocalFeatures,
    TabularJointFeatures,
    advantage,
    policy_probs,
    score,
    td_error,
)
from resilient_marl.config import config_from_dict, build_simulation
from resilient_marl.engine import run
from resilient_marl.graphs import (
    GraphSchedule,
    is_r_robust,
    metropolis_weights,
    weight_matrix,
)
from resilient_marl.mdp import (
    JointPolicy,
    decode_joint_action,
    encode_joint_action,
    generate_random_mdp,
    global_return,
    induced_chain,
    joint_action_radix,
)

from reference_algorithm import run_reference


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------- oracles


def _oracle_chain(mdp, joint):
    out = np.zeros((mdp.n_states, mdp.n_states))
    for s in range(mdp.n_states):
        for a in range(mdp.n_joint_actions):
            for s2 in range(mdp.n_states):
                out[s, s2] += joint[s, a] * mdp.transition[s, a, s2]
    return out


def _oracle_stationary(chain):
    """Left eigenvector for eigenvalue 1 via the dense eigensolver."""
    vals, vecs = np.linalg.eig(chain.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    d = np.real(vecs[:, k])
    return d / d.sum()


def _oracle_global_return(mdp, policy):
    joint = policy.joint_table()
    d = _oracle_stationary(_oracle_chain(mdp, joint))
    rbar = mdp.rewards.mean(axis=0)
    total = 0.0
    for s in range(mdp.n_states):
        for a in range(mdp.n_joint_actions):
            total += d[s] * joint[s, a] * rbar[s, a]
    return total


def _oracle_td_fixed_point(mdp, phi, joint, d):
    """The average-reward TD fixed point of linear critics under a fixed policy.

    Solves Phi^T D (P_pi Phi - Phi) w = -Phi^T D (rbar - J) on the (s, a)
    chain (Tsitsiklis & Van Roy, 1999): D is d(s) pi(a|s), P_pi[(s, a),
    (s', a')] is P(s'|s, a) pi(a'|s'), rbar the agent-mean reward and J
    its stationary mean. ``phi`` has one row per (s, a), s-major.
    """
    n = mdp.n_states * mdp.n_joint_actions
    dist = np.zeros(n)
    p_pi = np.zeros((n, n))
    rbar = np.zeros(n)
    for s in range(mdp.n_states):
        for a in range(mdp.n_joint_actions):
            row = s * mdp.n_joint_actions + a
            dist[row] = d[s] * joint[s, a]
            rbar[row] = mdp.rewards[:, s, a].mean()
            for s2 in range(mdp.n_states):
                for a2 in range(mdp.n_joint_actions):
                    p_pi[row, s2 * mdp.n_joint_actions + a2] = mdp.transition[s, a, s2] * joint[s2, a2]
    j = dist @ rbar
    lhs = phi.T @ (dist[:, None] * (p_pi @ phi - phi))
    rhs = -phi.T @ (dist * (rbar - j))
    return np.linalg.solve(lhs, rhs)


def _oracle_log_prob(theta, n_actions, s, a):
    z = theta[s * n_actions : (s + 1) * n_actions]
    z = z - z.max()
    return z[a] - math.log(np.exp(z).sum())


def _oracle_score_fd(theta, n_actions, s, a, h=1e-5):
    g = np.zeros_like(theta)
    for k in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[k] += h
        lo[k] -= h
        g[k] = (
            _oracle_log_prob(hi, n_actions, s, a) - _oracle_log_prob(lo, n_actions, s, a)
        ) / (2 * h)
    return g


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(1, 4))
    n_states = int(rng.integers(2, 7))
    counts = tuple(int(rng.integers(2, 4)) for _ in range(n_agents))
    mdp = generate_random_mdp(n_agents, n_states, counts, (-1.0, 3.0), seed=seed)
    tables = []
    for c in counts:
        t = rng.uniform(0.1, 1.0, size=(n_states, c))
        tables.append(t / t.sum(axis=1, keepdims=True))
    return rng, mdp, JointPolicy(tuple(tables))


class TestCriterion1FormulaFidelity:
    def test_formulas_match_oracles(self):
        started = time.time()
        worst_chain = worst_return = worst_score = worst_adv = 0.0
        for seed in range(100):
            rng, mdp, policy = _random_instance(seed)
            chain = induced_chain(mdp, policy)
            worst_chain = max(worst_chain, float(np.abs(chain - _oracle_chain(mdp, policy.joint_table())).max()))
            assert np.abs(chain.sum(axis=1) - 1.0).max() < 1e-10
            worst_return = max(worst_return, abs(global_return(mdp, policy) - _oracle_global_return(mdp, policy)))

            s = int(rng.integers(mdp.n_states))
            a = int(rng.integers(mdp.n_joint_actions))
            i = int(rng.integers(mdp.n_agents))
            n_own = mdp.action_counts[i]

            # score vs central finite differences (1e-6 relative)
            theta = rng.standard_normal(mdp.n_states * n_own) * 1.5
            actor = ActorParams(theta, LocalFeatures(mdp.n_states, n_own))
            a_i = int(rng.integers(n_own))
            analytic = score(actor, s, a_i, policy_probs(actor, s))
            fd = _oracle_score_fd(theta, n_own, s, a_i)
            worst_score = max(worst_score, float(np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())))

            # advantage vs a direct transcription of its definition, plus centering
            feats = TabularJointFeatures(mdp.n_states, mdp.n_joint_actions)
            omega = rng.standard_normal(feats.dim)
            probs = policy_probs(actor, s)
            locals_ = decode_joint_action(a, mdp.action_counts)
            baseline = 0.0
            for b in range(n_own):
                locals_[i] = b
                idx = encode_joint_action(locals_, mdp.action_counts)
                baseline += probs[b] * float(np.dot(feats.vector(s, idx), omega))
            direct = float(np.dot(feats.vector(s, a), omega)) - baseline
            radix = joint_action_radix(mdp.action_counts)[i]
            got = advantage(omega, actor, feats, radix, s, a, feats.q(omega, s, a), probs)
            worst_adv = max(worst_adv, abs(got - direct))
            centering = 0.0
            for b in range(n_own):
                locals_[i] = b
                a_b = encode_joint_action(locals_, mdp.action_counts)
                centering += probs[b] * advantage(omega, actor, feats, radix, s, a_b,
                                                  feats.q(omega, s, a_b), probs)
            assert abs(centering) < 1e-10

            # td error is the literal expression
            r, mu, qn, qc = rng.standard_normal(4)
            assert td_error(r, mu, qn, qc) == r - mu + qn - qc

        # Metropolis rows: formula, stochasticity, double stochasticity
        worst_row = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            while True:
                g = GraphSchedule.erdos_renyi(int(rng.integers(4, 13)), 0.45,
                                              seed=int(rng.integers(1 << 30)))
                if g.is_connected():
                    break
            deg = g.degrees(0)
            rows = metropolis_weights(g)
            for row in rows:
                for j in row.retained:
                    assert row.weights[j] == 1.0 / (1.0 + max(deg[row.agent], deg[j]))
                worst_row = max(worst_row, abs(sum(row.weights.values()) - 1.0))
            mat = weight_matrix(rows, g.n_nodes)
            assert np.abs(mat - mat.T).max() < 1e-12
            assert np.abs(mat.sum(axis=0) - 1.0).max() < 1e-12
            retained = []
            for i in range(g.n_nodes):
                nbrs = list(g.neighbors(i, 0))
                k = int(rng.integers(0, len(nbrs) + 1))
                retained.append(list(rng.choice(nbrs, size=k, replace=False)) if k else [])
            for row in metropolis_weights(g, retained=retained):
                worst_row = max(worst_row, abs(sum(row.weights.values()) - 1.0))

        elapsed = time.time() - started
        ok = (
            worst_chain < 1e-10
            and worst_return < 1e-9
            and worst_score < 1e-6
            and worst_adv < 1e-12
            and worst_row < 1e-12
            and elapsed < 60
        )
        _report(
            1, ok,
            f"chain {worst_chain:.1e}, return {worst_return:.1e}, score rel {worst_score:.1e}, "
            f"advantage {worst_adv:.1e}, row sums {worst_row:.1e} on 100 instances in {elapsed:.1f}s",
        )


class TestCriterion2Reduction:
    def test_engine_matches_reference_bitwise(self):
        started = time.time()
        n_rounds = 1000
        seed = 3
        cfg = config_from_dict({
            "n_agents": 2,
            "rounds": n_rounds,
            "seed": seed,
            "mdp": {"n_states": 3, "actions_per_agent": 2, "reward_range": [0.0, 4.0], "seed": 21},
            "graph": {"topology": "ring"},
            "log_interval": 1,
            "snapshot_params": True,
        })
        sim = build_simulation(cfg)
        log = run(sim)
        history = run_reference(
            sim.mdp.transition,
            sim.mdp.rewards,
            sim.mdp.action_counts,
            [tuple(e) for e in sim.graph.edges_at(0)],
            n_rounds,
            seed,
        )
        mismatches = 0
        for row, (thetas, omegas, mus) in zip(log.rows, history):
            for i in range(2):
                if not (
                    np.array_equal(np.array(row.params["theta"][i]), thetas[i])
                    and np.array_equal(np.array(row.params["omega"][i]), omegas[i])
                    and row.params["avg_reward"][i] == mus[i]
                ):
                    mismatches += 1
        elapsed = time.time() - started
        ok = mismatches == 0 and len(log.rows) == n_rounds + 1 and elapsed < 10
        _report(2, ok, f"{n_rounds} rounds, {mismatches} mismatching snapshots in {elapsed:.1f}s")


def _coop_config(seed, extra=None):
    doc = {
        "n_agents": 5,
        "rounds": 200_000,
        "seed": seed,
        "mdp": {"n_states": 8, "actions_per_agent": 2, "reward_range": [0.0, 4.0], "seed": 11},
        "graph": {"topology": "ring"},
        "trim_f": 0,
        "log_interval": 1000,
        "record_trims": False,
    }
    if extra:
        doc.update(extra)
    return doc


def _run_from_doc(doc):
    sim = build_simulation(config_from_dict(doc))
    log = run(sim)
    regular_omegas = [
        np.array(entry["omega"])
        for entry in log.final_params["agents"]
        if entry["role"] == "regular"
    ]
    return {
        "initial_j": log.rows[0].j_oracle,
        "final_j": log.final_row.j_oracle,
        "disagreement": log.final_row.disagreement,
        "regular_omegas": regular_omegas,
    }


class TestCriterion3CooperativeLearning:
    def test_training_beats_uniform_policy(self):
        started = time.time()
        docs = [_coop_config(seed) for seed in range(5)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_run_from_doc, docs))
        improvements = [res["final_j"] - res["initial_j"] for res in results]
        improved = sum(1 for gain in improvements if gain > 0)
        max_disagreement = max(res["disagreement"] for res in results)
        elapsed = time.time() - started
        ok = improved >= 4 and max_disagreement < 1e-2 and elapsed < 300
        _report(
            3, ok,
            f"{improved}/5 seeds improved (gains {['%.4f' % g for g in improvements]}), "
            f"max disagreement {max_disagreement:.2e}, {elapsed:.0f}s",
        )


class TestCriterion4AttackReproduction:
    def test_constant_broadcaster_hijacks_undefended_critics(self):
        started = time.time()
        broadcast = 5.0
        doc = _coop_config(0, extra={
            "adversaries": {"ids": [0], "strategy": "constant", "params": {"value": broadcast},
                            "enforce_f_local": False},
            "trim_f": 0,
        })
        res = _run_from_doc(doc)
        worst = max(float(np.abs(om - broadcast).max()) for om in res["regular_omegas"])
        elapsed = time.time() - started
        ok = worst < 1e-3 and elapsed < 300
        _report(
            4, ok,
            f"max per-coordinate gap to the broadcast {worst:.2e} across "
            f"{len(res['regular_omegas'])} regular agents, {elapsed:.0f}s",
        )


class TestCriterion5Defense:
    def test_trimming_contains_the_attack(self):
        started = time.time()
        assert is_r_robust(GraphSchedule.complete(5), 3)
        broadcast = 100.0
        doc = _coop_config(0, extra={
            "graph": {"topology": "complete"},
            "trim_f": 1,
            "adversaries": {"ids": [4], "strategy": "constant", "params": {"value": broadcast}},
            "check_regular_hull": True,
        })
        res = _run_from_doc(doc)  # raises SafetyViolationError if any hull check fires
        disagreement = res["disagreement"]
        min_gap = min(float(np.abs(om - broadcast).min()) for om in res["regular_omegas"])
        elapsed = time.time() - started
        ok = disagreement < 1e-2 and min_gap > 10 * disagreement and elapsed < 300
        _report(
            5, ok,
            f"disagreement {disagreement:.2e}, min distance to broadcast {min_gap:.1f} "
            f"(> 10x disagreement), hull safety held every round, {elapsed:.0f}s",
        )


class TestCriterion6TwoTimescale:
    def test_frozen_actor_reward_trackers_match_oracle(self):
        started = time.time()
        doc = {
            "n_agents": 3,
            "rounds": 100_000,
            "seed": 2,
            "mdp": {"n_states": 5, "actions_per_agent": 2, "reward_range": [0.0, 4.0], "seed": 7},
            "graph": {"topology": "ring"},
            "critic_step": {"kind": "polynomial", "scale": 1.0, "exponent": 1.0},
            "actor_step": {"kind": "constant", "scale": 0.0},
            "log_interval": 10_000,
        }
        sim = build_simulation(config_from_dict(doc))
        log = run(sim)
        mdp = sim.mdp
        policy = JointPolicy.uniform(mdp)
        from resilient_marl.mdp import stationary_distribution

        d = stationary_distribution(induced_chain(mdp, policy))
        joint = policy.joint_table()
        weights = d[:, None] * joint
        oracle = np.array([(weights * mdp.rewards[i]).sum() for i in range(3)])
        final = np.array(log.final_row.avg_rewards)
        worst = float(np.abs(final - oracle).max())
        elapsed = time.time() - started
        ok = worst < 1e-2 and elapsed < 60
        _report(
            6, ok,
            f"max |avg-reward tracker - stationary oracle| = {worst:.2e} "
            f"(oracle {np.round(oracle, 3).tolist()}), {elapsed:.0f}s",
        )

    def test_frozen_actor_critics_reach_td_fixed_point(self):
        started = time.time()
        doc = {
            "n_agents": 3,
            "rounds": 20_000,
            "seed": 2,
            "mdp": {"n_states": 5, "actions_per_agent": 2, "reward_range": [0.0, 4.0], "seed": 7},
            "graph": {"topology": "ring"},
            "features": {"kind": "projection", "dim": 8, "seed": 0},
            "critic_step": {"kind": "polynomial", "scale": 1.0, "exponent": 0.65},
            "actor_step": {"kind": "constant", "scale": 0.0},
            "log_interval": 20_000,
        }
        sim = build_simulation(config_from_dict(doc))
        mdp = sim.mdp
        phi = np.stack([sim.features.vector(s, a)
                        for s in range(mdp.n_states) for a in range(mdp.n_joint_actions)])
        # full column rank and no constant vector in the span: the fixed point is unique
        assert np.linalg.matrix_rank(phi) == 8
        assert np.linalg.matrix_rank(np.column_stack([phi, np.ones(len(phi))])) == 9
        policy = JointPolicy.uniform(mdp)
        d = _oracle_stationary(_oracle_chain(mdp, policy.joint_table()))
        target = _oracle_td_fixed_point(mdp, phi, policy.joint_table(), d)
        log = run(sim)
        omegas = np.array([agent["omega"] for agent in log.final_params["agents"]])
        worst = float(np.abs(omegas - target).max())
        elapsed = time.time() - started
        # measured: 2.44e-2 after these 20 000 rounds, 1.70e-2 after 100 000
        ok = worst < 3e-2 and elapsed < 60
        _report(
            "6 (critic)", ok,
            f"max |omega - TD fixed point| = {worst:.2e} over 3 critics "
            f"(max |w*| = {np.abs(target).max():.3f}), {elapsed:.0f}s",
        )
