import bisect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resilient_marl
from resilient_marl.mdp import (
    JointPolicy,
    Mdp,
    NonErgodicChainError,
    decode_joint_action,
    encode_joint_action,
    generate_random_mdp,
    global_return,
    induced_chain,
    sample_transition,
    stationary_distribution,
)


def chain_from_joint_table(mdp, joint):
    """Oracle: P(s'|s) by explicit summation over every joint action."""
    out = np.zeros((mdp.n_states, mdp.n_states))
    for s in range(mdp.n_states):
        for a in range(mdp.n_joint_actions):
            out[s] += joint[s, a] * mdp.transition[s, a]
    return out


def random_policy(mdp, rng):
    tables = []
    for c in mdp.action_counts:
        t = rng.uniform(0.1, 1.0, size=(mdp.n_states, c))
        tables.append(t / t.sum(axis=1, keepdims=True))
    return JointPolicy(tuple(tables))


def simulated_average_reward(mdp, policy, n_steps, seed):
    """Oracle: long-run mean of the agent-averaged reward along one trajectory."""
    rng = np.random.default_rng(seed)
    act_cdf = [list(np.cumsum(row)) for row in policy.joint_table()]
    trans_cdf = [[list(np.cumsum(mdp.transition[s, a])) for a in range(mdp.n_joint_actions)]
                 for s in range(mdp.n_states)]
    rbar = mdp.mean_reward_table()
    draws = rng.random(2 * n_steps)
    s = 0
    total = 0.0
    n_a = mdp.n_joint_actions
    n_s = mdp.n_states
    k = 0
    for _ in range(n_steps):
        a = min(bisect.bisect_right(act_cdf[s], draws[k]), n_a - 1)
        k += 1
        total += rbar[s, a]
        s = min(bisect.bisect_right(trans_cdf[s][a], draws[k]), n_s - 1)
        k += 1
    return total / n_steps


class TestEncoding:
    @pytest.mark.parametrize("counts", [(2,), (2, 3), (3, 2, 4)])
    def test_round_trip(self, counts):
        n = int(np.prod(counts))
        for a in range(n):
            locals_ = decode_joint_action(a, counts)
            assert encode_joint_action(locals_, counts) == a
            assert all(0 <= x < c for x, c in zip(locals_, counts))

    def test_agent_zero_most_significant(self):
        assert encode_joint_action([1, 0], (2, 3)) == 3
        assert encode_joint_action([0, 2], (2, 3)) == 2


class TestGenerateRandomMdp:
    def test_rows_stochastic_and_positive(self):
        mdp = generate_random_mdp(2, 2, 2, (0.0, 4.0), seed=7)
        sums = mdp.transition.sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert mdp.transition.min() > 0.0

    def test_deterministic_in_seed(self):
        a = generate_random_mdp(2, 2, 2, (0.0, 4.0), seed=7)
        b = generate_random_mdp(2, 2, 2, (0.0, 4.0), seed=7)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.rewards, b.rewards)
        c = generate_random_mdp(2, 2, 2, (0.0, 4.0), seed=8)
        assert not np.array_equal(a.transition, c.transition)

    def test_degenerate_reward_range(self):
        mdp = generate_random_mdp(1, 2, 2, (0.0, 0.0), seed=1)
        assert np.all(mdp.rewards == 0.0)

    def test_joint_action_cap(self):
        with pytest.raises(ValueError, match="cap"):
            generate_random_mdp(13, 2, 2, (0.0, 1.0), seed=0, max_joint_actions=4096)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_random_mdp(0, 2, 2, (0.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            generate_random_mdp(1, 1, 2, (0.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            generate_random_mdp(1, 2, 1, (0.0, 1.0), seed=0)

    def test_per_agent_action_counts(self):
        mdp = generate_random_mdp(2, 3, (2, 3), (0.0, 1.0), seed=0)
        assert mdp.action_counts == (2, 3)
        assert mdp.n_joint_actions == 6


class TestMdpValidation:
    def test_rejects_non_stochastic(self):
        trans = np.ones((2, 2, 2))
        rewards = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="sum to 1"):
            Mdp(1, 2, (2,), trans, rewards)

    def test_rejects_non_finite_rewards(self):
        trans = np.full((2, 2, 2), 0.5)
        rewards = np.full((1, 2, 2), np.inf)
        with pytest.raises(ValueError, match="finite"):
            Mdp(1, 2, (2,), trans, rewards)

    def test_owns_read_only_arrays(self):
        """A write to the caller's arrays after construction changes neither the
        model nor its cached CDF, and the model's own arrays refuse writes."""
        trans = np.full((3, 2, 3), 1 / 3)
        rewards = np.zeros((1, 3, 2))
        mdp = Mdp(1, 3, (2,), trans, rewards)
        cdf = mdp.transition_cdf.copy()
        trans[0, 0] = [1.0, 0.0, 0.0]
        rewards[0, 0, 0] = 5.0
        assert np.array_equal(mdp.transition, np.full((3, 2, 3), 1 / 3))
        assert np.array_equal(mdp.transition_cdf, cdf)
        assert not mdp.rewards.any()
        for table in (mdp.transition, mdp.rewards):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_serialization_round_trip(self, tmp_path):
        mdp = generate_random_mdp(2, 3, 2, (-1.0, 2.0), seed=5)
        path = tmp_path / "model.json"
        mdp.save(path)
        back = Mdp.load(path)
        assert back.action_counts == mdp.action_counts
        assert np.array_equal(back.transition, mdp.transition)
        assert np.array_equal(back.rewards, mdp.rewards)


class TestSampleTransition:
    def test_point_mass_row(self):
        trans = np.zeros((2, 2, 2))
        trans[:, :, 1] = 1.0
        mdp = Mdp(1, 2, (2,), trans, np.zeros((1, 2, 2)))
        rng = np.random.default_rng(0)
        assert all(sample_transition(mdp, 0, 0, rng) == 1 for _ in range(20))

    def test_uniform_row_frequencies(self):
        trans = np.full((4, 2, 4), 0.25)
        mdp = Mdp(1, 4, (2,), trans, np.zeros((1, 4, 2)))
        rng = np.random.default_rng(42)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            counts[sample_transition(mdp, 0, 0, rng)] += 1
        assert np.abs(counts / n - 0.25).max() < 0.02

    def test_invalid_indices(self):
        mdp = generate_random_mdp(1, 2, 2, (0.0, 1.0), seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(IndexError):
            sample_transition(mdp, 5, 0, rng)
        with pytest.raises(IndexError):
            sample_transition(mdp, 0, 9, rng)

    def test_reproducible(self):
        mdp = generate_random_mdp(1, 3, 2, (0.0, 1.0), seed=3)
        a = [sample_transition(mdp, 0, 1, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_transition(mdp, 0, 1, np.random.default_rng(9)) for _ in range(1)]
        assert a == b


class TestInducedChain:
    def test_deterministic_policy_selects_slice(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=1)
        # point mass on local actions (1, 0) => joint action 2
        tables = (np.tile([0.0, 1.0], (3, 1)), np.tile([1.0, 0.0], (3, 1)))
        chain = induced_chain(mdp, JointPolicy(tables))
        a_star = encode_joint_action([1, 0], mdp.action_counts)
        assert np.array_equal(chain, mdp.transition[:, a_star, :])

    def test_uniform_two_action_average(self):
        trans = np.zeros((2, 2, 2))
        trans[:, 0] = [1.0, 0.0]
        trans[:, 1] = [0.0, 1.0]
        mdp = Mdp(1, 2, (2,), trans, np.zeros((1, 2, 2)))
        chain = induced_chain(mdp, JointPolicy.uniform(mdp))
        assert np.allclose(chain, 0.5)

    def test_matches_enumeration_oracle(self):
        mdp = generate_random_mdp(2, 2, 2, (0.0, 1.0), seed=11)
        tables = (np.tile([0.3, 0.7], (2, 1)), np.tile([0.6, 0.4], (2, 1)))
        policy = JointPolicy(tables)
        chain = induced_chain(mdp, policy)
        oracle = chain_from_joint_table(mdp, policy.joint_table())
        assert np.allclose(chain, oracle, atol=1e-14)

    def test_dimension_mismatch(self):
        mdp = generate_random_mdp(2, 2, 2, (0.0, 1.0), seed=0)
        other = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=0)
        with pytest.raises(ValueError, match="match"):
            induced_chain(mdp, JointPolicy.uniform(other))

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_stochastic_property(self, seed):
        rng = np.random.default_rng(seed)
        mdp = generate_random_mdp(2, 4, 2, (0.0, 1.0), seed=seed)
        chain = induced_chain(mdp, random_policy(mdp, rng))
        assert np.abs(chain.sum(axis=1) - 1.0).max() < 1e-10
        assert chain.min() >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_mixture_linearity_at_joint_level(self, seed):
        """Chains are linear in the joint-action table (enumeration check)."""
        rng = np.random.default_rng(100 + seed)
        mdp = generate_random_mdp(2, 4, 2, (0.0, 1.0), seed=seed)
        pol_a = random_policy(mdp, rng)
        pol_b = random_policy(mdp, rng)
        lam = rng.uniform(0.2, 0.8)
        mixed_joint = lam * pol_a.joint_table() + (1 - lam) * pol_b.joint_table()
        lhs = chain_from_joint_table(mdp, mixed_joint)
        rhs = lam * induced_chain(mdp, pol_a) + (1 - lam) * induced_chain(mdp, pol_b)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestStationaryDistribution:
    def test_doubly_stochastic_is_uniform(self):
        p = np.array([[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]])
        d = stationary_distribution(p)
        assert np.abs(d - 1.0 / 3.0).max() < 1e-10

    def test_two_state_analytic(self):
        p = np.array([[0.7, 0.3], [0.6, 0.4]])
        d = stationary_distribution(p)
        assert np.abs(d - np.array([2.0 / 3.0, 1.0 / 3.0])).max() < 1e-10

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.05, 1.0, (6, 6))
        p /= p.sum(axis=1, keepdims=True)
        d = stationary_distribution(p)
        assert np.abs(d @ p - d).max() < 1e-10
        assert abs(d.sum() - 1.0) < 1e-12

    def test_identity_is_reducible(self):
        with pytest.raises(NonErgodicChainError, match="reducible"):
            stationary_distribution(np.eye(3))

    def test_periodic_chain_rejected(self):
        with pytest.raises(NonErgodicChainError, match="periodic"):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.2], [0.3, 0.7]]))

    def test_three_cycle_is_periodic(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NonErgodicChainError, match="periodic"):
            stationary_distribution(p)

    @pytest.mark.parametrize(
        "p",
        [
            # state 0 reaches every state, but nothing returns to it
            [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
            # every state reaches the absorbing state 0, which reaches nothing else
            [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        ],
        ids=["flow_away_from_0", "flow_into_0"],
    )
    def test_one_way_flow_is_reducible(self, p):
        with pytest.raises(NonErgodicChainError, match="reducible"):
            stationary_distribution(np.array(p))

    def test_sparse_aperiodic_chain_solves(self):
        # cycles of length 2 and 3 through state 2: gcd 1
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        d = stationary_distribution(p)
        assert np.abs(d - np.array([0.2, 0.4, 0.4])).max() < 1e-12


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, resilient_marl, resilient_marl.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
        "assert 'concurrent.futures' not in sys.modules  # only a parallel sweep needs it\n"
    )
    env = dict(os.environ)
    src = str(Path(resilient_marl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestGlobalReturn:
    def test_constant_reward(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=4)
        const = Mdp(2, 3, (2, 2), mdp.transition, np.full_like(mdp.rewards, 1.7))
        assert abs(global_return(const, JointPolicy.uniform(const)) - 1.7) < 1e-12

    def test_agent_average(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=4)
        rewards = np.empty_like(mdp.rewards)
        rewards[0] = 2.0
        rewards[1] = 4.0
        avg = Mdp(2, 3, (2, 2), mdp.transition, rewards)
        assert abs(global_return(avg, JointPolicy.uniform(avg)) - 3.0) < 1e-12

    def test_long_run_simulation_oracle(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 4.0), seed=13)
        rng = np.random.default_rng(77)
        policy = random_policy(mdp, rng)
        exact = global_return(mdp, policy)
        empirical = simulated_average_reward(mdp, policy, n_steps=1_000_000, seed=123)
        assert abs(exact - empirical) < 1e-2


class TestJointPolicy:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            JointPolicy((np.array([[0.5, 0.4]]),))

    def test_positivity_flag(self):
        table = np.array([[1.0, 0.0]])
        JointPolicy((table,))  # point mass fine by default
        with pytest.raises(ValueError, match="positive"):
            JointPolicy((table,), require_positive=True)

    def test_joint_table_matches_products(self):
        rng = np.random.default_rng(8)
        mdp = generate_random_mdp(3, 2, 2, (0.0, 1.0), seed=8)
        policy = random_policy(mdp, rng)
        joint = policy.joint_table()
        for s in range(mdp.n_states):
            for a in range(mdp.n_joint_actions):
                locals_ = decode_joint_action(a, mdp.action_counts)
                expected = np.prod([t[s, x] for t, x in zip(policy.tables, locals_)])
                assert abs(joint[s, a] - expected) < 1e-14
        assert np.abs(joint.sum(axis=1) - 1.0).max() < 1e-12
