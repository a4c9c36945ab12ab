import itertools

import numpy as np
import pytest

from resilient_marl.graphs import (
    ConsensusRow,
    GraphError,
    GraphSchedule,
    PlacementError,
    adversary_fractions,
    is_r_local,
    is_r_robust,
    max_r_robustness,
    metropolis_pair_weight,
    metropolis_weights,
    neighborhood,
    place_adversaries,
    weight_matrix,
)


def naive_r_robust(g, r):
    """Oracle: enumerate every pair of disjoint nonempty subsets directly."""
    nodes = range(g.n_nodes)

    def has_reaching_node(subset):
        return any(
            sum(1 for j in g.neighbors(i, 0) if j not in subset) >= r for i in subset
        )

    for size_a in range(1, g.n_nodes + 1):
        for sub_a in itertools.combinations(nodes, size_a):
            rest = [x for x in nodes if x not in sub_a]
            for size_b in range(1, len(rest) + 1):
                for sub_b in itertools.combinations(rest, size_b):
                    if not has_reaching_node(set(sub_a)) and not has_reaching_node(set(sub_b)):
                        return False
    return True


def random_connected_graph(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        g = GraphSchedule.erdos_renyi(n, 0.4, seed=int(rng.integers(1 << 30)))
        if g.is_connected():
            return g


class TestSchedule:
    def test_path_neighborhood(self):
        g = GraphSchedule.from_edges(3, [(0, 1), (1, 2)])
        assert neighborhood(g, 1) == {0, 2}
        assert neighborhood(g, 0) == {1}

    def test_isolated_node(self):
        g = GraphSchedule.from_edges(3, [(0, 1)])
        assert neighborhood(g, 2) == frozenset()

    def test_alternating_schedule(self):
        g = GraphSchedule.periodic(2, [[(0, 1)], []])
        assert neighborhood(g, 0, t=1) == frozenset()
        assert neighborhood(g, 0, t=2) == {1}

    def test_rejects_self_loop_and_bad_ids(self):
        with pytest.raises(GraphError, match="self-loop"):
            GraphSchedule.from_edges(3, [(1, 1)])
        with pytest.raises(GraphError, match="outside"):
            GraphSchedule.from_edges(3, [(0, 5)])

    def test_edges_symmetric_and_deduped(self):
        g = GraphSchedule.from_edges(4, [(1, 0), (0, 1), (2, 3)])
        assert g.edges_at(0) == {(0, 1), (2, 3)}
        assert g.degrees(0).tolist() == [1, 1, 1, 1]

    def test_connectivity(self):
        assert GraphSchedule.ring(5).is_connected()
        assert not GraphSchedule.from_edges(4, [(0, 1)]).is_connected()

    def test_generators(self):
        assert len(GraphSchedule.complete(5).edges_at(0)) == 10
        assert GraphSchedule.star(5).degrees(0).tolist() == [4, 1, 1, 1, 1]
        a = GraphSchedule.erdos_renyi(8, 0.5, seed=3)
        b = GraphSchedule.erdos_renyi(8, 0.5, seed=3)
        assert a.edges_at(0) == b.edges_at(0)


class TestRLocal:
    def test_empty_set(self):
        g = GraphSchedule.ring(5)
        for r in range(3):
            assert is_r_local(g, set(), r)

    def test_star_center(self):
        g = GraphSchedule.star(5)
        assert is_r_local(g, {0}, 1)
        assert not is_r_local(g, {0}, 0)

    def test_complete_pair(self):
        g = GraphSchedule.complete(4)
        assert is_r_local(g, {0, 1}, 2)
        assert not is_r_local(g, {0, 1}, 1)

    def test_time_varying_checks_all_phases(self):
        # node 2 sees both adversaries only in phase 1
        g = GraphSchedule.periodic(4, [[(2, 0)], [(2, 0), (2, 1)]])
        assert not is_r_local(g, {0, 1}, 1)
        assert is_r_local(g, {0, 1}, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_in_r(self, seed):
        rng = np.random.default_rng(seed)
        g = GraphSchedule.erdos_renyi(8, 0.4, seed=seed)
        nodes = set(int(x) for x in rng.choice(8, size=2, replace=False))
        results = [is_r_local(g, nodes, r) for r in range(9)]
        # once true, stays true
        assert results == sorted(results)


class TestPlacement:
    def test_zero_count(self):
        g = GraphSchedule.ring(6)
        assert place_adversaries(g, 0, 1, np.random.default_rng(0)) == frozenset()

    def test_ring_single_always_local(self):
        g = GraphSchedule.ring(6)
        placed = place_adversaries(g, 1, 1, np.random.default_rng(5))
        assert len(placed) == 1
        assert is_r_local(g, placed, 1)

    def test_impossible_placement(self):
        g = GraphSchedule.complete(4)
        with pytest.raises(PlacementError):
            place_adversaries(g, 2, 1, np.random.default_rng(0), max_tries=200)

    def test_unconstrained_placement(self):
        g = GraphSchedule.complete(4)
        placed = place_adversaries(g, 2, None, np.random.default_rng(0))
        assert len(placed) == 2


class TestMetropolisWeights:
    def test_pair_weight_formula(self):
        # edge between nodes of degree 2 and 3
        assert metropolis_pair_weight(2, 3) == 0.25

    def test_two_node_graph(self):
        g = GraphSchedule.from_edges(2, [(0, 1)])
        rows = metropolis_weights(g)
        for row in rows:
            assert row.weights[0] == 0.5 and row.weights[1] == 0.5

    def test_empty_retained_set(self):
        g = GraphSchedule.ring(4)
        rows = metropolis_weights(g, retained=[[] for _ in range(4)])
        for row in rows:
            assert row.self_weight == 1.0
            assert row.retained == ()

    def test_retained_must_be_neighbors(self):
        g = GraphSchedule.ring(4)
        bad = [[2] if i == 0 else [] for i in range(4)]
        with pytest.raises(GraphError, match="subset"):
            metropolis_weights(g, retained=bad)

    def test_row_validation(self):
        with pytest.raises(GraphError, match="sum to 1"):
            ConsensusRow(0, (1,), {0: 0.6, 1: 0.6})
        with pytest.raises(GraphError, match="nonnegative"):
            ConsensusRow(0, (1,), {0: 1.5, 1: -0.5})
        with pytest.raises(GraphError, match="cover"):
            ConsensusRow(0, (1,), {0: 1.0})

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_distributions_under_random_trims(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(8, seed)
        retained = []
        for i in range(8):
            nbrs = list(g.neighbors(i, 0))
            k = int(rng.integers(0, len(nbrs) + 1))
            retained.append(list(rng.choice(nbrs, size=k, replace=False)) if k else [])
        rows = metropolis_weights(g, retained=retained)
        for row in rows:
            total = sum(row.weights.values())
            assert abs(total - 1.0) <= 1e-12
            assert min(row.weights.values()) >= 0.0
            assert set(row.weights) == set(row.retained) | {row.agent}

    @pytest.mark.parametrize("n,seed", [(5, 0), (8, 1), (12, 2)])
    def test_untrimmed_matrix_doubly_stochastic(self, n, seed):
        g = random_connected_graph(n, seed)
        mat = weight_matrix(metropolis_weights(g), n)
        assert np.allclose(mat, mat.T)
        assert np.abs(mat.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n,seed", [(6, 3), (12, 4)])
    def test_repeated_mixing_reaches_average(self, n, seed):
        g = random_connected_graph(n, seed)
        mat = weight_matrix(metropolis_weights(g), n)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=n)
        target = x.mean()
        for _ in range(10_000):
            x = mat @ x
            if np.abs(x - target).max() < 1e-8:
                break
        assert np.abs(x - target).max() < 1e-8


class TestRobustness:
    def test_complete_graph(self):
        g = GraphSchedule.complete(5)
        assert is_r_robust(g, 2)
        assert is_r_robust(g, 3)
        assert not is_r_robust(g, 4)

    def test_path_graph(self):
        g = GraphSchedule.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not is_r_robust(g, 2)
        assert is_r_robust(g, 1)

    def test_connected_implies_one_robust(self):
        for seed in range(5):
            g = random_connected_graph(7, 50 + seed)
            assert is_r_robust(g, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_enumeration(self, seed):
        g = GraphSchedule.erdos_renyi(6, 0.5, seed=seed)
        for r in (1, 2, 3):
            assert is_r_robust(g, r) == naive_r_robust(g, r)

    def test_size_cap(self):
        with pytest.raises(GraphError, match="capped"):
            is_r_robust(GraphSchedule.ring(17), 1)

    def test_time_varying_rejected(self):
        g = GraphSchedule.periodic(4, [[(0, 1)], [(1, 2)]])
        with pytest.raises(GraphError, match="static"):
            is_r_robust(g, 1)

    def test_max_robustness(self):
        assert max_r_robustness(GraphSchedule.complete(5)) == 3
        assert max_r_robustness(GraphSchedule.from_edges(4, [(0, 1)])) == 0


class TestAdversaryFractions:
    def test_ring_fractions(self):
        frac = adversary_fractions(GraphSchedule.ring(6), {0})
        assert frac[1] == 0.5 and frac[5] == 0.5
        assert frac[3] == 0.0
        assert frac[0] == 0.0
