"""Correctness checks on one run's artifacts, computed apart from the program.

Each check returns a list of failure messages (empty when it holds). The
exact objective J is recomputed here from the logged actor weights with
this module's own softmax, product policy and a stationary distribution
from ``numpy.linalg``; only the generated MDP's arrays come from the
program.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from resilient_marl.config import build_simulation
from resilient_marl.engine import run

J_TOL = 1e-9
# final max-norm gap between regular critics; seeds 1-10 end between 0.0025
# and 0.018 on defense_complete and between 0.004 and 0.008 on
# projection_periodic
DISAGREEMENT_BOUND = {"defense_complete": 0.1, "projection_periodic": 0.1}
BROADCAST_MARGIN = 10.0
REFERENCE_PREFIX = 500


def read_artifacts(out_dir):
    out_dir = Path(out_dir)
    records = [json.loads(line) for line in (out_dir / "trajectory.jsonl").read_text().splitlines()]
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(out_dir / "final_params.json", encoding="utf-8") as fh:
        final = json.load(fh)
    return records, summary, final


def exact_j(mdp, thetas):
    """Long-run agent-mean reward of the softmax product policy of ``thetas``."""
    n_states, counts = mdp.n_states, mdp.action_counts
    n_joint = int(np.prod(counts))
    # agent 0 is the most significant digit of a joint action
    digits = np.unravel_index(np.arange(n_joint), counts)
    joint = np.ones((n_states, n_joint))
    for i, theta in enumerate(thetas):
        z = np.asarray(theta, dtype=np.float64).reshape(n_states, counts[i])
        e = np.exp(z - z.max(axis=1, keepdims=True))
        joint *= (e / e.sum(axis=1, keepdims=True))[:, digits[i]]
    chain = np.einsum("sa,sap->sp", joint, mdp.transition)
    a = np.vstack([chain.T - np.eye(n_states), np.ones(n_states)])
    b = np.zeros(n_states + 1)
    b[-1] = 1.0
    d = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(d @ (joint * mdp.rewards.mean(axis=0)).sum(axis=1))


def check_common(sim, cfg, records, summary, final):
    """Checks every workload must pass."""
    errors = []
    if summary["rounds_executed"] != cfg.rounds:
        errors.append(f"rounds_executed {summary['rounds_executed']} != requested {cfg.rounds}")
    j = exact_j(sim.mdp, [ag["theta"] for ag in final["agents"]])
    if not abs(j - summary["final_j_oracle"]) <= J_TOL:
        errors.append(f"final_j_oracle {summary['final_j_oracle']!r} != recomputed {j!r}")
    lo, hi = cfg.mdp.reward_range
    lo, hi = lo - cfg.reward_noise, hi + cfg.reward_noise
    trackers = [v for rec in records if rec["kind"] == "metrics" for v in rec["avg_rewards"]]
    trackers += [ag["avg_reward"] for ag in final["agents"]]
    outside = [v for v in trackers if not lo <= v <= hi]
    if outside:
        errors.append(f"{len(outside)} reward trackers outside [{lo}, {hi}], e.g. {outside[0]!r}")
    return errors


def regular_spread(final):
    """Largest coordinate-wise gap between regular critics, and the regular omegas."""
    omegas = np.array([ag["omega"] for ag in final["agents"] if ag["role"] == "regular"])
    return float((omegas.max(axis=0) - omegas.min(axis=0)).max()), omegas


def check_defense(cfg, records, final):
    errors = []
    adversaries = list(cfg.adversaries.ids)
    n_regular = cfg.n_agents - len(adversaries)
    events = [rec for rec in records if rec["kind"] == "trim"]
    if len(events) != n_regular * cfg.rounds:
        errors.append(f"{len(events)} trim events, expected {n_regular} x {cfg.rounds}")
    # An honest sender may be named too: while critics still tie at their
    # zero start, the tie-break by sender id trims the lowest id as well.
    missed = [rec for rec in events if not set(adversaries) <= set(rec["trimmed"])]
    if missed:
        errors.append(f"{len(missed)} trim events do not name {adversaries}, e.g. {missed[0]}")
    spread, omegas = regular_spread(final)
    bound = DISAGREEMENT_BOUND["defense_complete"]
    if not spread < bound:
        errors.append(f"final regular disagreement {spread!r} not below {bound}")
    broadcast = cfg.adversaries.params_dict()["value"]
    distance = float(np.abs(omegas - broadcast).max(axis=1).min())
    if not distance > BROADCAST_MARGIN * spread:
        errors.append(f"regular critics {distance!r} from the broadcast, not > {BROADCAST_MARGIN} x {spread!r}")
    return errors


def check_projection(sim, records, final):
    errors = []
    rows = [rec for rec in records if rec["kind"] == "metrics"]
    worst = 0.0
    for rec in rows:
        worst = max(worst, abs(exact_j(sim.mdp, rec["params"]["theta"]) - rec["j_oracle"]))
    if not worst <= J_TOL:
        errors.append(f"snapshot j_oracle off the recomputed J by up to {worst!r}")
    spread, _ = regular_spread(final)
    bound = DISAGREEMENT_BOUND["projection_periodic"]
    if not spread < bound:
        errors.append(f"final regular disagreement {spread!r} not below {bound}")
    return errors


def check_reference_prefix(cfg, reference_dir):
    """Engine snapshots on the first rounds equal the straight-line reference bitwise."""
    sys.path.insert(0, str(reference_dir))
    try:
        from reference_algorithm import run_reference
    finally:
        sys.path.remove(str(reference_dir))

    n_rounds = min(REFERENCE_PREFIX, cfg.rounds)
    prefix = dataclasses.replace(cfg, rounds=n_rounds, log_interval=1, snapshot_params=True)
    sim = build_simulation(prefix)
    log = run(sim)
    history = run_reference(
        sim.mdp.transition,
        sim.mdp.rewards,
        sim.mdp.action_counts,
        sorted(tuple(e) for e in sim.graph.edges_at(0)),
        n_rounds,
        cfg.seed,
        critic_scale=cfg.critic_step.scale,
        critic_exponent=cfg.critic_step.exponent,
        actor_scale=cfg.actor_step.scale,
        actor_exponent=cfg.actor_step.exponent,
        initial_state=cfg.initial_state,
    )
    mismatched = 0
    for row, (thetas, omegas, mus) in zip(log.rows, history):
        for i in range(sim.mdp.n_agents):
            if not (
                np.array_equal(np.array(row.params["theta"][i]), thetas[i])
                and np.array_equal(np.array(row.params["omega"][i]), omegas[i])
                and row.params["avg_reward"][i] == mus[i]
            ):
                mismatched += 1
    if len(log.rows) != n_rounds + 1 or mismatched:
        return [f"{mismatched} agent snapshots differ from the reference over {n_rounds} rounds"]
    return []
