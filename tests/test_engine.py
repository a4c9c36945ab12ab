import json
import math
import tracemalloc

import numpy as np
import pytest

from resilient_marl.cli import _json_line, _row_record, run_experiment
from resilient_marl.config import build_simulation, config_from_dict
from resilient_marl.consensus import ConstantStrategy, DriftStrategy, NoiseStrategy, SelfishStrategy
from resilient_marl.engine import (
    EarlyStop,
    NonFiniteParameterError,
    SafetyViolationError,
    Simulation,
    StepSizeSchedule,
    _receiver_groups,
    compute_metrics,
    projection_features,
    run,
    tabular_features,
)
from resilient_marl.graphs import GraphSchedule
from resilient_marl.mdp import Mdp, generate_random_mdp

from reference_algorithm import run_reference


# complete(5), f=1, agent 4 a constant broadcaster: four trim events a round
DEFENDED_DOC = {
    "n_agents": 5, "rounds": 120, "seed": 3, "log_interval": 10,
    "mdp": {"n_states": 5, "actions_per_agent": 2, "seed": 6},
    "graph": {"topology": "complete"}, "trim_f": 1,
    "adversaries": {"ids": [4], "strategy": "constant", "params": {"value": 100.0}},
}


def make_sim(mdp, graph, n_rounds, seed=0, **kw):
    defaults = dict(
        mdp=mdp,
        graph=graph,
        features=tabular_features(mdp),
        critic_schedule=StepSizeSchedule.polynomial(1.0, 0.65),
        actor_schedule=StepSizeSchedule.polynomial(1.0, 0.85),
        n_rounds=n_rounds,
        seed=seed,
    )
    defaults.update(kw)
    return Simulation(**defaults)


class TestStepSizeSchedule:
    def test_polynomial_at_zero(self):
        assert StepSizeSchedule.polynomial(1.0, 0.65).at(0) == 1.0

    def test_polynomial_strictly_decreasing(self):
        sched = StepSizeSchedule.polynomial(1.0, 0.65)
        vals = [sched.at(t) for t in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_constant(self):
        sched = StepSizeSchedule.constant(0.01)
        assert sched.at(0) == 0.01 and sched.at(10_000) == 0.01

    def test_zero_scale_freezes(self):
        assert StepSizeSchedule.constant(0.0).at(5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSizeSchedule("linear", 1.0)
        with pytest.raises(ValueError):
            StepSizeSchedule.polynomial(1.0, 0.0)
        with pytest.raises(ValueError):
            StepSizeSchedule.constant(-0.1)


class TestRunBasics:
    def test_zero_rounds_logs_initial_metrics_only(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=0)
        log = run(make_sim(mdp, GraphSchedule.ring(2), 0))
        assert len(log.rows) == 1
        assert log.rows[0].t == 0
        assert log.rows[0].avg_reward_window is None
        assert log.metadata["rounds_executed"] == 0

    def test_deterministic_in_seed(self):
        mdp = generate_random_mdp(3, 3, 2, (0.0, 2.0), seed=1)
        g = GraphSchedule.ring(3)
        log_a = run(make_sim(mdp, g, 300, seed=9))
        log_b = run(make_sim(mdp, g, 300, seed=9))
        assert log_a == log_b
        log_c = run(make_sim(mdp, g, 300, seed=10))
        assert log_a.rows != log_c.rows

    def test_final_row_at_odd_horizon(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=0)
        log = run(make_sim(mdp, GraphSchedule.ring(2), 157, log_interval=100))
        assert [row.t for row in log.rows] == [0, 100, 157]

    def test_validation_errors(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=0)
        with pytest.raises(ValueError, match="nodes"):
            run(make_sim(mdp, GraphSchedule.ring(3), 10))
        with pytest.raises(ValueError, match="strategy map"):
            run(make_sim(mdp, GraphSchedule.ring(2, adversary_set={0}), 10))
        with pytest.raises(ValueError, match="initial state"):
            run(make_sim(mdp, GraphSchedule.ring(2), 10, initial_state=7))
        with pytest.raises(ValueError, match="critic step"):
            run(make_sim(mdp, GraphSchedule.ring(2), 10,
                         critic_schedule=StepSizeSchedule.constant(1.5)))

    def test_enforce_f_local(self):
        mdp = generate_random_mdp(4, 3, 2, (0.0, 1.0), seed=0)
        g = GraphSchedule.complete(4, adversary_set={0, 1}, trim_f=1)
        sim = make_sim(mdp, g, 10, enforce_f_local=True,
                       strategies={0: ConstantStrategy(1.0), 1: ConstantStrategy(1.0)})
        with pytest.raises(ValueError, match="F-local"):
            run(sim)

    def test_projection_features_smoke(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=2)
        sim = make_sim(mdp, GraphSchedule.ring(2), 200)
        sim.features = projection_features(mdp, dim=5, seed=3)
        log = run(sim)
        assert all(math.isfinite(row.j_oracle) for row in log.rows)

    def test_non_finite_payload_detected(self):
        mdp = generate_random_mdp(3, 3, 2, (0.0, 1.0), seed=3)
        g = GraphSchedule.ring(3, adversary_set={0}, trim_f=0)
        sim = make_sim(mdp, g, 50, strategies={0: ConstantStrategy(math.inf)})
        with pytest.raises(NonFiniteParameterError):
            run(sim)

    def test_trimmed_nan_payload_detected(self):
        # trimming holds off ±inf, but a NaN broadcaster still stops the run
        mdp = generate_random_mdp(5, 3, 2, (0.0, 4.0), seed=35)
        g = GraphSchedule.complete(5, adversary_set={4}, trim_f=1)
        sim = make_sim(mdp, g, 20, strategies={4: ConstantStrategy(math.nan)})
        with pytest.raises(NonFiniteParameterError):
            run(sim)

    def test_regular_span_violation_names_lowest_agent(self):
        # with f=0 agents 1 and 2 both mix in the far broadcast of agent 0
        mdp = generate_random_mdp(3, 3, 2, (0.0, 1.0), seed=3)
        g = GraphSchedule.ring(3, adversary_set={0}, trim_f=0)
        sim = make_sim(mdp, g, 5, strategies={0: ConstantStrategy(100.0)}, check_regular_hull=True)
        with pytest.raises(SafetyViolationError, match="round 0: agent 1 left the span of regular values"):
            run(sim)

    def test_trim_events_recorded(self):
        mdp = generate_random_mdp(5, 3, 2, (0.0, 1.0), seed=4)
        g = GraphSchedule.complete(5, adversary_set={4}, trim_f=1)
        sim = make_sim(mdp, g, 30, strategies={4: ConstantStrategy(100.0)},
                       check_regular_hull=True)
        log = run(sim)
        assert log.trim_events, "far-out broadcast should be trimmed"
        trimmed_senders = {senders for _, _, senders in log.trim_events}
        assert all(4 in senders for senders in trimmed_senders)

    def test_early_stop(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=5)
        sim = make_sim(mdp, GraphSchedule.ring(2), 50_000,
                       critic_schedule=StepSizeSchedule.constant(0.0),
                       actor_schedule=StepSizeSchedule.constant(0.0),
                       early_stop=EarlyStop(disagreement=1e-6, actor_update=1e-6, patience=10))
        log = run(sim)
        assert log.metadata["rounds_executed"] < 50_000
        assert log.rows[-1].t == log.metadata["rounds_executed"]

    def test_jsonl_round_trip(self, tmp_path):
        """The streamed trajectory.jsonl holds the header first, then exactly the
        records of an in-memory run of the same simulation, a row before the
        events of its round."""
        cfg = config_from_dict(DEFENDED_DOC)
        run_experiment(cfg, tmp_path, quiet=True)
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        assert lines == [_json_line(rec) for rec in records]  # keys sorted, no spaces
        log = run(build_simulation(cfg))
        assert records[0]["kind"] == "meta"
        assert records[0]["rounds_executed"] == log.metadata["rounds_executed"] == 120
        rows = [r for r in records if r["kind"] == "metrics"]
        events = [r for r in records if r["kind"] == "trim"]
        assert rows == [json.loads(json.dumps(_row_record(row))) for row in log.rows]
        assert [(r["t"], r["agent"], tuple(r["trimmed"])) for r in events] == log.trim_events
        assert len(rows) + len(events) == len(records) - 1
        order = [(r["t"], r["kind"] == "trim") for r in records[1:]]
        assert events and order == sorted(order)

    def test_streamed_run_memory_does_not_grow_with_rounds(self, tmp_path):
        """run_experiment keeps no trim event: four a round here, yet its peak
        traced allocation stays under one bound of 128 KB at 300 and at 1200
        rounds (measured: 83 and 97 KB; a writer that kept the events until the
        end peaked at 91 and 499 KB)."""
        peaks = []
        for rounds in (300, 1200):
            # a dim-4 critic keeps the round's own arrays small next to the events
            doc = dict(DEFENDED_DOC, rounds=rounds, features={"kind": "projection", "dim": 4})
            cfg = config_from_dict(doc)
            run_experiment(cfg, tmp_path / "warm", quiet=True)  # imports and caches
            tracemalloc.start()
            try:
                run_experiment(cfg, tmp_path / str(rounds), quiet=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 128 * 1024, peaks


class TestComputeMetrics:
    def test_identical_critics_no_disagreement(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=0)
        log = run(make_sim(mdp, GraphSchedule.ring(2), 0))
        assert log.rows[0].disagreement == 0.0

    def test_single_agent_no_disagreement(self):
        trans = np.full((2, 2, 2), 0.5)
        mdp = Mdp(1, 2, (2,), trans, np.ones((1, 2, 2)))
        g = GraphSchedule(1, (frozenset(),))
        log = run(make_sim(mdp, g, 50))
        assert all(row.disagreement == 0.0 for row in log.rows)

    def test_constant_reward_j_oracle(self):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=1)
        const = Mdp(2, 3, (2, 2), mdp.transition, np.full_like(mdp.rewards, 2.5))
        log = run(make_sim(const, GraphSchedule.ring(2), 150))
        assert all(abs(row.j_oracle - 2.5) < 1e-10 for row in log.rows)


class TestOrderOfUpdatesFidelity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_straight_line_reference(self, seed):
        """Engine trajectories equal the independent reference, round by round."""
        mdp = generate_random_mdp(2, 3, 2, (0.0, 4.0), seed=20 + seed)
        g = GraphSchedule.ring(2)
        n_rounds = 200
        sim = make_sim(mdp, g, n_rounds, seed=seed, log_interval=1, snapshot_params=True)
        log = run(sim)
        history = run_reference(
            mdp.transition,
            mdp.rewards,
            mdp.action_counts,
            [tuple(e) for e in g.edges_at(0)],
            n_rounds,
            seed,
        )
        assert len(log.rows) == len(history)
        for row, (thetas, omegas, mus) in zip(log.rows, history):
            for i in range(2):
                assert np.array_equal(np.array(row.params["theta"][i]), thetas[i])
                assert np.array_equal(np.array(row.params["omega"][i]), omegas[i])
                assert row.params["avg_reward"][i] == mus[i]


def _feature_matrix(sim):
    """The projection critic's feature rows, one per (state, joint action)."""
    mdp = sim.mdp
    return np.stack([sim.features.vector(s, a)
                     for s in range(mdp.n_states) for a in range(mdp.n_joint_actions)])


def _reference_case(name):
    """(simulation, run_reference keyword arguments) for one covered feature."""
    if name == "trim_constant":
        mdp = generate_random_mdp(5, 3, 2, (0.0, 4.0), seed=30)
        g = GraphSchedule.complete(5, adversary_set={4}, trim_f=1)
        sim = make_sim(mdp, g, 150, strategies={4: ConstantStrategy(7.5)})
        return sim, dict(trim_f=1, adversaries={4: ("constant", 7.5)})
    if name in ("trim_inf", "trim_neg_inf"):
        # a trimmed ±inf must add nothing to the mix, not 0 * inf = NaN
        value = math.inf if name == "trim_inf" else -math.inf
        mdp = generate_random_mdp(5, 3, 2, (0.0, 4.0), seed=35)
        g = GraphSchedule.complete(5, adversary_set={4}, trim_f=1)
        sim = make_sim(mdp, g, 40, strategies={4: ConstantStrategy(value)})
        return sim, dict(trim_f=1, adversaries={4: ("constant", value)})
    if name == "trim_ties_f2":
        # two adversaries sending the same value force ties at every coordinate
        mdp = generate_random_mdp(6, 2, 2, (0.0, 4.0), seed=31)
        g = GraphSchedule.complete(6, adversary_set={1, 4}, trim_f=2)
        sim = make_sim(mdp, g, 150, strategies={1: ConstantStrategy(0.0), 4: ConstantStrategy(0.0)})
        return sim, dict(trim_f=2, adversaries={1: ("constant", 0.0), 4: ("constant", 0.0)})
    if name == "drift_periodic":
        # phase 0 leaves agents 0 and 3 with two neighbours (k <= 2f: all trimmed)
        phases = [
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)],
            [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)],
        ]
        mdp = generate_random_mdp(6, 3, 2, (0.0, 4.0), seed=32)
        g = GraphSchedule.periodic(6, phases, adversary_set={5}, trim_f=1)
        sim = make_sim(mdp, g, 150, strategies={5: DriftStrategy(0.5, 0.02)})
        return sim, dict(phases=phases, trim_f=1, adversaries={5: ("drift", 0.5, 0.02)})
    if name == "noise_periodic_projection":
        # phase 0 leaves agents 0 and 3 with k <= 2f, phase 1 ranks three senders
        phases = [
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)],
            [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)],
        ]
        mdp = generate_random_mdp(6, 3, 2, (0.0, 4.0), seed=39)
        g = GraphSchedule.periodic(6, phases, adversary_set={1}, trim_f=1)
        sim = make_sim(mdp, g, 120, features=projection_features(mdp, dim=8, seed=3),
                       strategies={1: NoiseStrategy(2.0, seed=11)})
        return sim, dict(phases=phases, trim_f=1, features=_feature_matrix(sim),
                         adversaries={1: ("noise", 2.0, 11)})
    if name == "selfish_star":
        mdp = generate_random_mdp(4, 3, [3, 2, 2, 5], (0.0, 4.0), seed=40)
        g = GraphSchedule.star(4, adversary_set={3}, trim_f=1)
        sim = make_sim(mdp, g, 120, strategies={3: SelfishStrategy()})
        return sim, dict(trim_f=1, adversaries={3: ("selfish",)})
    if name == "heterogeneous_noise":
        mdp = generate_random_mdp(4, 3, [3, 2, 9, 2], (0.0, 4.0), seed=33)
        sim = make_sim(mdp, GraphSchedule.ring(4), 150, reward_noise=0.5)
        return sim, dict(reward_noise=0.5)
    if name == "projection":
        mdp = generate_random_mdp(4, 3, [2, 3, 2, 2], (0.0, 4.0), seed=34)
        g = GraphSchedule.complete(4, adversary_set={2}, trim_f=1)
        sim = make_sim(mdp, g, 150, features=projection_features(mdp, dim=9, seed=5),
                       strategies={2: ConstantStrategy(-3.0)})
        return sim, dict(features=_feature_matrix(sim), trim_f=1, adversaries={2: ("constant", -3.0)})
    if name == "complete9_f0":
        # degree 8: the neighbour weights must still be summed in ascending id
        mdp = generate_random_mdp(9, 2, 2, (0.0, 4.0), seed=36)
        return make_sim(mdp, GraphSchedule.complete(9), 40), {}
    if name == "complete9_projection_dim1":
        # with dim 1 the (m, k, dim) stacks are (m, k, 1): still summed in sender order
        mdp = generate_random_mdp(9, 2, 2, (0.0, 4.0), seed=38)
        sim = make_sim(mdp, GraphSchedule.complete(9), 40,
                       features=projection_features(mdp, dim=1, seed=5))
        return sim, dict(features=_feature_matrix(sim))
    if name == "complete9_f2_ties":
        mdp = generate_random_mdp(9, 2, 2, (0.0, 4.0), seed=37)
        g = GraphSchedule.complete(9, adversary_set={2, 6}, trim_f=2)
        sim = make_sim(mdp, g, 40, strategies={2: ConstantStrategy(1.5), 6: ConstantStrategy(1.5)})
        return sim, dict(trim_f=2, adversaries={2: ("constant", 1.5), 6: ("constant", 1.5)})
    raise ValueError(name)


def _assert_rows_equal(rows, history):
    """Every agent's theta, omega and reward tracker in each row equal the snapshot's."""
    for row, (thetas, omegas, mus) in zip(rows, history):
        for i in range(len(thetas)):
            assert np.array_equal(np.array(row.params["theta"][i]), thetas[i]), (row.t, i)
            assert np.array_equal(np.array(row.params["omega"][i]), omegas[i]), (row.t, i)
            assert row.params["avg_reward"][i] == mus[i], (row.t, i)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("case", [
        "trim_constant", "trim_inf", "trim_neg_inf", "trim_ties_f2", "drift_periodic",
        "heterogeneous_noise", "projection", "complete9_f0", "complete9_f2_ties",
        "complete9_projection_dim1", "noise_periodic_projection", "selfish_star",
    ])
    def test_bitwise_equal_snapshots(self, case):
        """Every agent's theta, omega and reward tracker equal the reference's, every
        round, and the fully trimmed senders are the same (ties go by sender id)."""
        sim, extra = _reference_case(case)
        sim.log_interval = 1
        sim.snapshot_params = True
        log = run(sim)
        edges = sorted(tuple(e) for e in sim.graph.edges_at(0))
        events = []
        history = run_reference(sim.mdp.transition, sim.mdp.rewards, sim.mdp.action_counts,
                                edges, sim.n_rounds, sim.seed, trim_events=events, **extra)
        assert log.trim_events == events
        assert events or not extra.get("trim_f"), "a trimming case should drop whole senders"
        assert len(log.rows) == len(history) == sim.n_rounds + 1
        _assert_rows_equal(log.rows, history)

    def test_early_stop_after_calm_rounds(self):
        """The patience rule stops the run in the reference's round, after rounds that
        were not calm, and the stop round's row is logged off the log interval."""
        mdp = generate_random_mdp(5, 3, 2, (0.0, 4.0), seed=41)
        g = GraphSchedule.complete(5, adversary_set={4}, trim_f=1)
        stop = EarlyStop(disagreement=0.08, actor_update=0.02, patience=8)
        sim = make_sim(mdp, g, 400, strategies={4: ConstantStrategy(7.5)}, log_interval=7,
                       snapshot_params=True, early_stop=stop)
        log = run(sim)
        edges = sorted(tuple(e) for e in g.edges_at(0))
        logged, events = [], []
        history = run_reference(mdp.transition, mdp.rewards, mdp.action_counts, edges,
                                sim.n_rounds, sim.seed, trim_f=1, adversaries={4: ("constant", 7.5)},
                                log_interval=7, early_stop=(0.08, 0.02, 8), logged_rounds=logged,
                                trim_events=events)
        executed = log.metadata["rounds_executed"]
        assert stop.patience < executed < sim.n_rounds and executed % sim.log_interval != 0
        assert [row.t for row in log.rows] == logged and logged[-1] == executed
        assert log.trim_events == events
        assert len(log.rows) == len(history)
        _assert_rows_equal(log.rows, history)

    @pytest.mark.parametrize("case", ["trim_inf", "trim_neg_inf"])
    def test_infinite_broadcaster_trimmed_every_round(self, case):
        sim, _ = _reference_case(case)
        log = run(sim)
        assert log.metadata["rounds_executed"] == sim.n_rounds
        trimmed = [(t, i) for t, i, senders in log.trim_events if 4 in senders]
        assert trimmed == [(t, i) for t in range(sim.n_rounds) for i in range(4)]


class TestReceiverGroups:
    def test_senders_listed_by_ascending_id(self):
        """Trim breaks ties and combine sums in the order of each group's rows."""
        phases = [[(5, 0), (4, 1), (3, 0), (2, 1), (1, 0), (4, 3)], [(5, 4), (3, 2), (1, 0), (5, 0)]]
        g = GraphSchedule.periodic(6, phases, adversary_set={2}, trim_f=1)
        for p, groups in enumerate(_receiver_groups(g)):
            seen = []
            for grp in groups:
                for i, row, regular in zip(grp.ids, grp.nbr, grp.regular):
                    expected = sorted({b if a == i else a for a, b in phases[p] if i in (a, b)})
                    assert row.tolist() == expected
                    assert regular.tolist() == [j != 2 for j in expected]
                    seen.append(int(i))
            assert sorted(seen) == [i for i in range(6) if i != 2 and g.degrees(p)[i] > 0]


class TestRandomDrawContract:
    def test_vector_draw_equals_scalar_draws(self):
        """One random(n) vector is bitwise the n scalar draws the contract names."""
        for seed in (0, 1, 2, 7):
            for n in (1, 2, 5, 8, 13):
                vector = np.random.default_rng(seed).random(n)
                rng = np.random.default_rng(seed)
                assert vector.tolist() == [rng.random() for _ in range(n)]
