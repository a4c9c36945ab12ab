import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_marl.consensus import (
    AgentView,
    ConsensusError,
    ConstantStrategy,
    DriftStrategy,
    NoiseStrategy,
    Inbox,
    SelfishStrategy,
    adversary_message,
    consensus_combine,
    mixing_weights,
    trim,
)
from resilient_marl.graphs import (
    GraphSchedule,
    is_r_local,
    metropolis_pair_weight,
    metropolis_weights,
)

from reference_algorithm import stable_rank_keep


def inbox(pairs):
    """One receiver's Inbox from (sender, payload) pairs, listed by ascending sender."""
    pairs = sorted(pairs, key=lambda pair: pair[0])
    return Inbox(tuple(j for j, _ in pairs),
                 np.stack([np.atleast_1d(np.asarray(p, float)) for _, p in pairs]))


def msgs_from(payloads):
    return inbox(enumerate(payloads))


def combine(own, trimmed, pair_weights):
    """One mix with the weights built from the trim mask."""
    return consensus_combine(own, trimmed, mixing_weights(pair_weights, trimmed.mask))


def hull_bounds(own, trimmed):
    """Per-coordinate [min, max] over {own} U {survivors at that coordinate}."""
    lo = np.where(trimmed.mask, trimmed.values, np.inf).min(axis=0, initial=np.inf)
    hi = np.where(trimmed.mask, trimmed.values, -np.inf).max(axis=0, initial=-np.inf)
    return np.minimum(lo, own), np.maximum(hi, own)


class TestTrim:
    def test_scalar_drop_extremes(self):
        tr = trim(np.zeros(1), msgs_from([0.1, 0.5, 0.9, 2.0]), f=1)
        kept = tr.values[tr.mask[:, 0], 0]
        assert sorted(kept) == [0.5, 0.9]

    def test_f_zero_keeps_everything(self):
        tr = trim(np.zeros(1), msgs_from([3.0, -1.0, 0.5]), f=0)
        assert tr.mask.all()

    def test_per_coordinate_median(self):
        tr = trim(np.zeros(2), msgs_from([(0.0, 5.0), (1.0, 1.0), (2.0, 0.0)]), f=1)
        assert tr.mask[:, 0].tolist() == [False, True, False]
        assert tr.mask[:, 1].tolist() == [False, True, False]
        assert tr.values[1, 0] == 1.0 and tr.values[1, 1] == 1.0

    def test_too_few_messages_trims_all(self):
        tr = trim(np.zeros(1), msgs_from([1.0, 2.0]), f=1)
        assert not tr.mask.any()
        assert tr.fully_trimmed_senders() == [(0, 1)]

    def test_tie_break_by_sender_id(self):
        # four equal values: the two lowest sender ids take the "low" ranks
        tr = trim(np.zeros(1), msgs_from([7.0, 7.0, 7.0, 7.0]), f=1)
        assert tr.mask[:, 0].tolist() == [False, True, True, False]

    def test_group_trims_each_row_alone(self):
        # row 0 drops senders 10 and 12 whole; in row 1 each sender is the
        # median somewhere, so none is dropped at every coordinate
        senders = np.array([[10, 11, 12], [20, 21, 22]])
        values = np.array([[[1.0, 1, 1], [2, 2, 2], [3, 3, 3]],
                           [[1.0, 0, 2], [2, 1, 0], [0, 2, 1]]])
        own = np.zeros((2, 3))
        tr = trim(own, Inbox(senders, values), f=1)
        assert tr.fully_trimmed_senders() == [(10, 12), ()]
        for r in range(2):
            alone = trim(own[r], Inbox(senders[r], values[r]), f=1)
            assert np.array_equal(tr.mask[r], alone.mask)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            trim(np.zeros(2), msgs_from([1.0]), f=0)

    def test_nan_mask_is_the_reference_rank_count(self):
        """A NaN ranks 0 and counts below no one, in trim as in the reference."""
        payloads = [(0.5, math.nan, 2.0), (math.nan, 1.0, 2.0), (-1.0, 3.0, math.nan),
                    (0.5, 0.0, 2.0), (2.0, math.nan, -4.0)]
        for f in (1, 2):
            msgs = msgs_from(payloads)
            tr = trim(np.zeros(3), msgs, f)
            assert tr.mask.tolist() == [kept.tolist() for kept in stable_rank_keep(msgs.values, f)]
        # a NaN is trimmed as a minimum, whatever its sender id
        tr = trim(np.zeros(1), msgs_from([3.0, math.nan, 1.0, 2.0]), f=1)
        assert tr.mask[:, 0].tolist() == [True, False, False, True]


def argsort_trim_mask(values, f):
    """Oracle: the senders at stable-sorted positions f .. k-f-1 survive, per coordinate."""
    k = values.shape[-2]
    mask = np.zeros(values.shape, dtype=bool)
    if k > 2 * f:
        order = np.argsort(values, axis=-2, kind="stable")
        np.put_along_axis(mask, order[..., f : k - f, :], True, axis=-2)
    return mask


class TestTrimOracle:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 4), st.integers(1, 6), st.data())
    def test_mask_equals_stable_argsort(self, m, k, f, dim, data):
        """Rank count and stable sort agree on finite values, ties included."""
        flat = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                  min_size=m * k * dim, max_size=m * k * dim))
        values = np.array(flat).reshape(m, k, dim)
        senders = np.tile(np.arange(k), (m, 1))
        tr = trim(np.zeros((m, dim)), Inbox(senders, values), f)
        assert np.array_equal(tr.mask, argsort_trim_mask(values, f))


class TestConsensusCombine:
    def test_consensus_fixed_point(self):
        v = np.array([1.25, -3.5])
        tr = trim(v, msgs_from([v, v, v]), f=1)
        out = combine(v, tr, np.full(3, 0.25))
        assert np.array_equal(out, v)

    def test_two_party_midpoint(self):
        own = np.zeros(1)
        tr = trim(own, msgs_from([1.0]), f=0)
        out = combine(own, tr, np.array([0.5]))
        assert out[0] == 0.5

    def test_empty_retained_keeps_own(self):
        own = np.array([4.0, -2.0])
        tr = trim(own, msgs_from([(9.0, 9.0), (-9.0, -9.0)]), f=1)
        out = combine(own, tr, np.full(2, 0.3))
        assert np.array_equal(out, own)

    def test_rejects_overweight(self):
        own = np.zeros(1)
        tr = trim(own, msgs_from([1.0, 2.0, 3.0]), f=0)
        with pytest.raises(ConsensusError, match="stochastic"):
            mixing_weights(np.array([0.5, 0.4, 0.3]), tr.mask)

    def test_rejects_negative_weights(self):
        own = np.zeros(1)
        tr = trim(own, msgs_from([1.0]), f=0)
        with pytest.raises(ConsensusError, match="nonnegative"):
            mixing_weights(np.array([-0.1]), tr.mask)

    @pytest.mark.parametrize("seed", range(10))
    def test_output_in_convex_hull(self, seed):
        """Derived check: every coordinate stays between the min and max input."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 6))
        f = int(rng.integers(0, 3))
        own = rng.uniform(-10, 10, dim)
        payloads = [rng.uniform(-10, 10, dim) for _ in range(k)]
        tr = trim(own, msgs_from(payloads), f=f)
        weights = rng.uniform(0, 1.0 / max(k, 1), size=k)
        out = combine(own, tr, weights)
        lo, hi = hull_bounds(own, tr)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


class TestReduction:
    @pytest.mark.parametrize("n,seed", [(4, 0), (8, 1), (12, 2)])
    def test_f_zero_equals_plain_metropolis_round(self, n, seed):
        """Trim-and-combine with f=0 is exactly one plain consensus round."""
        rng = np.random.default_rng(seed)
        while True:
            g = GraphSchedule.erdos_renyi(n, 0.5, seed=seed)
            if g.is_connected():
                break
            seed += 100
        dim = 5
        x = rng.uniform(-3, 3, size=(n, dim))
        deg = g.degrees(0)
        rows = metropolis_weights(g)
        for i in range(n):
            nbrs = g.neighbors(i, 0)
            msgs = inbox((j, x[j]) for j in nbrs)
            tr = trim(x[i], msgs, f=0)
            pw = np.array([metropolis_pair_weight(int(deg[i]), int(deg[j])) for j in nbrs])
            combined = combine(x[i], tr, pw)
            plain = np.empty(dim)
            for c in range(dim):
                acc = 0.0
                for j in nbrs:
                    acc = acc + rows[i].weights[j] * x[j][c]
                plain[c] = rows[i].self_weight * x[i][c] + acc
            assert np.array_equal(combined, plain)


class TestFilteringGuarantee:
    @pytest.mark.parametrize("seed", range(12))
    def test_adversarial_values_cannot_drag_outside_regular_span(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            g = GraphSchedule.erdos_renyi(7, 0.5, seed=int(rng.integers(1 << 30)))
            if g.is_connected():
                break
        adversaries = set(int(x) for x in rng.choice(7, size=int(rng.integers(1, 3)), replace=False))
        # tightest f for which the placement is f-local
        f = max(
            sum(1 for j in g.neighbors(i, 0) if j in adversaries)
            for i in range(7) if i not in adversaries
        )
        assert is_r_local(g, adversaries, f)
        dim = 4
        payload = {i: rng.uniform(-1, 1, dim) for i in range(7)}
        for i in adversaries:
            payload[i] = rng.uniform(-1e3, 1e3, dim)  # arbitrary wild values
        deg = g.degrees(0)
        for i in range(7):
            if i in adversaries:
                continue
            nbrs = g.neighbors(i, 0)
            own = rng.uniform(-1, 1, dim)
            msgs = inbox((j, payload[j]) for j in nbrs)
            tr = trim(own, msgs, f=f)
            pw = np.array([metropolis_pair_weight(int(deg[i]), int(deg[j])) for j in nbrs])
            out = combine(own, tr, pw)
            regular_vals = np.stack([own] + [payload[j] for j in nbrs if j not in adversaries])
            lo = regular_vals.min(axis=0) - 1e-12
            hi = regular_vals.max(axis=0) + 1e-12
            assert (out >= lo).all() and (out <= hi).all()


def pure_averaging_round(g, adversaries, values, f):
    """One synchronous trim-and-mix round with the critic disabled."""
    deg = g.degrees(0)
    new = {}
    for i in range(g.n_nodes):
        if i in adversaries:
            new[i] = values[i]
            continue
        nbrs = g.neighbors(i, 0)
        msgs = inbox((j, values[j]) for j in nbrs)
        tr = trim(values[i], msgs, f=f)
        pw = np.array([metropolis_pair_weight(int(deg[i]), int(deg[j])) for j in nbrs])
        new[i] = combine(values[i], tr, pw)
    return new


class TestPureAveraging:
    def test_f_zero_converges_to_adversary_constant(self):
        g = GraphSchedule.ring(6)
        rng = np.random.default_rng(3)
        target = np.array([3.5, -1.0])
        values = {i: rng.uniform(-1, 1, 2) for i in range(6)}
        values[0] = target.copy()
        for _ in range(10_000):
            values = pure_averaging_round(g, {0}, values, f=0)
        for i in range(1, 6):
            assert np.abs(values[i] - target).max() < 1e-6

    def test_trimming_keeps_regulars_in_initial_range(self):
        g = GraphSchedule.complete(5)
        rng = np.random.default_rng(4)
        values = {i: rng.uniform(-1, 1, 2) for i in range(5)}
        values[4] = np.array([50.0, -50.0])
        init = np.stack([values[i] for i in range(4)])
        lo, hi = init.min(axis=0) - 1e-9, init.max(axis=0) + 1e-9
        for _ in range(10_000):
            values = pure_averaging_round(g, {4}, values, f=1)
            for i in range(4):
                assert (values[i] >= lo).all() and (values[i] <= hi).all()


class TestAdversaryStrategies:
    def _adversary(self):
        return AgentView(0, np.array([1.0, 2.0]))

    def test_constant(self):
        agent = self._adversary()
        out = adversary_message(ConstantStrategy(3.0), agent, t=12, dim=2)
        assert np.array_equal(out, [3.0, 3.0])
        out = adversary_message(ConstantStrategy((1.0, 2.0)), agent, t=0, dim=2)
        assert np.array_equal(out, [1.0, 2.0])

    def test_drift(self):
        agent = self._adversary()
        out = adversary_message(DriftStrategy(0.0, 0.1), agent, t=10, dim=3)
        assert np.allclose(out, 1.0)

    def test_noise_reproducible(self):
        agent = self._adversary()
        a = adversary_message(NoiseStrategy(1.0, seed=5), agent, t=3, dim=4)
        b = adversary_message(NoiseStrategy(1.0, seed=5), agent, t=3, dim=4)
        c = adversary_message(NoiseStrategy(1.0, seed=5), agent, t=4, dim=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_selfish_sends_staged_value(self):
        agent = self._adversary()
        out = adversary_message(SelfishStrategy(), agent, t=0, dim=2)
        assert np.array_equal(out, agent.omega_staged)
