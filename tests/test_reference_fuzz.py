"""Whole-algorithm property test: the engine against the straight-line reference.

Hypothesis draws small networks (n <= 5, S <= 4, action counts 2-4), a
ring, complete, star, explicit-edge or two-phase graph, a trim parameter
f in {0, 1, 2}, up to two adversaries with any of the four strategies,
reward noise and a tabular or projection critic, and runs 10 to 40
rounds. Every round's parameters must be bitwise the reference's and the
trim events equal.

Two properties need no reference. Where every regular agent has at most f
adversarial neighbours, the run checks the W-MSR guarantee: each regular
critic's mix stays within the hull of its own and its regular neighbours'
values, or the run raises. A share of the draws aims at that check: f=1,
one adversary, and a regular agent of degree 3 or more that hears it, so
trimming keeps values and the mix can move (complete(n), or explicit
edges from a regular hub). Every agent's average-reward tracker stays
within the reward range widened by the noise scale.
"""
import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resilient_marl.consensus import ConstantStrategy, DriftStrategy, NoiseStrategy, SelfishStrategy
from resilient_marl.engine import Simulation, StepSizeSchedule, projection_features, run, tabular_features
from resilient_marl.graphs import GraphSchedule, is_r_local
from resilient_marl.mdp import generate_random_mdp

from reference_algorithm import run_reference
from test_engine import _feature_matrix

_VALUES = st.floats(-5.0, 5.0, allow_nan=False)
REWARD_RANGE = (-1.0, 3.0)


@st.composite
def _adversary(draw, seeds):
    """(engine strategy, reference payload spec) for one adversary."""
    kind = draw(st.sampled_from(["constant", "drift", "noise", "selfish"]))
    if kind == "constant":
        value = draw(_VALUES)
        return ConstantStrategy(value), ("constant", value)
    if kind == "drift":
        start, rate = draw(_VALUES), draw(st.floats(-0.5, 0.5, allow_nan=False))
        return DriftStrategy(start, rate), ("drift", start, rate)
    if kind == "noise":
        scale, seed = draw(st.floats(0.0, 3.0, allow_nan=False)), draw(seeds)
        return NoiseStrategy(scale, seed), ("noise", scale, seed)
    return SelfishStrategy(), ("selfish",)


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


@st.composite
def _graph(draw, n):
    """A named topology, one explicit edge list or a two-phase schedule."""
    topology = draw(st.sampled_from(["ring", "complete", "star", "edges", "two_phase"]))
    if topology in ("edges", "two_phase"):
        edges = st.lists(st.sampled_from(_pairs(n)), min_size=1, unique=True)
        phases = [draw(edges) for _ in range(1 if topology == "edges" else 2)]
        return GraphSchedule.periodic(n, phases)
    return getattr(GraphSchedule, topology)(n)


@st.composite
def _guarded_graph(draw, n, adversary):
    """A regular agent of degree >= 3 next to the lone adversary; ``_case`` pairs it with f=1.

    Complete(n), or explicit edges from a regular hub to the adversary and
    two or more other agents, plus any further edges.
    """
    if draw(st.booleans()):
        return GraphSchedule.complete(n)
    hub = draw(st.sampled_from([i for i in range(n) if i != adversary]))
    others = [i for i in range(n) if i not in (hub, adversary)]
    spokes = draw(st.lists(st.sampled_from(others), min_size=2, unique=True))
    extra = draw(st.lists(st.sampled_from(_pairs(n)), unique=True))
    return GraphSchedule.from_edges(n, [(hub, j) for j in [adversary, *spokes]] + extra)


@st.composite
def _case(draw):
    """(simulation, run_reference keyword arguments)."""
    seeds = st.integers(0, 2**16)
    guarded = draw(st.integers(0, 2)) == 0
    n = draw(st.sampled_from([4, 5] if guarded else [2, 3, 4, 5]))
    n_states = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    mdp = generate_random_mdp(n, n_states, counts, REWARD_RANGE, seed=draw(seeds))

    if guarded:
        adversary_ids, f = [draw(st.integers(0, n - 1))], 1
    else:
        adversary_ids = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
        f = draw(st.integers(0, 2))
    adversaries = {i: draw(_adversary(seeds)) for i in adversary_ids}
    graph = draw(_guarded_graph(n, adversary_ids[0]) if guarded else _graph(n))

    projection = draw(st.booleans())
    if projection:
        features = projection_features(mdp, dim=draw(st.integers(1, 8)), seed=draw(seeds))
    else:
        features = tabular_features(mdp)
    reward_noise = draw(st.sampled_from([0.0, 0.5]))
    actor_scale = draw(st.floats(0.1, 3.0, allow_nan=False))
    sim = Simulation(
        mdp=mdp,
        graph=graph,
        features=features,
        critic_schedule=StepSizeSchedule.polynomial(1.0, 0.65),
        actor_schedule=StepSizeSchedule.polynomial(actor_scale, 0.85),
        n_rounds=draw(st.integers(10, 40)),
        seed=draw(seeds),
        strategies={i: strategy for i, (strategy, _) in adversaries.items()},
        log_interval=1,
        check_regular_hull=is_r_local(graph, adversary_ids, f),
        snapshot_params=True,
        reward_noise=reward_noise,
        initial_state=draw(st.integers(0, n_states - 1)),
        trim_f=f,
    )
    extra = dict(
        phases=[sorted(p) for p in graph.phases],
        trim_f=f,
        adversaries={i: spec for i, (_, spec) in adversaries.items()},
        reward_noise=reward_noise,
        actor_scale=actor_scale,
        initial_state=sim.initial_state,
    )
    if projection:
        extra["features"] = _feature_matrix(sim)
    return sim, extra


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_case())
def test_engine_matches_reference(case):
    sim, extra = case
    log = run(sim)
    events = []
    history = run_reference(sim.mdp.transition, sim.mdp.rewards, sim.mdp.action_counts, None,
                            sim.n_rounds, sim.seed, trim_events=events, **extra)
    assert log.trim_events == events
    assert len(log.rows) == len(history) == sim.n_rounds + 1
    low, high = REWARD_RANGE
    noise = extra["reward_noise"]
    for row, (thetas, omegas, mus) in zip(log.rows, history):
        for i in range(sim.mdp.n_agents):
            assert np.array_equal(np.array(row.params["theta"][i]), thetas[i]), (row.t, i)
            assert np.array_equal(np.array(row.params["omega"][i]), omegas[i]), (row.t, i)
            assert row.params["avg_reward"][i] == mus[i], (row.t, i)
            assert low - noise <= mus[i] <= high + noise, (row.t, i)
