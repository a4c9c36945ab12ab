import math

import numpy as np
import pytest

from resilient_marl.agents import (
    ActorParams,
    LocalFeatures,
    ProjectionJointFeatures,
    TabularJointFeatures,
    actor_step,
    advantage,
    avg_reward_update,
    critic_local_step,
    policy_probs,
    score,
    select_action,
    td_error,
)
from resilient_marl.mdp import encode_joint_action, joint_action_radix


def log_prob(theta, feats, s, a):
    z = theta[s * feats.n_actions : (s + 1) * feats.n_actions]
    z = z - z.max()
    return z[a] - math.log(np.exp(z).sum())


def finite_difference_score(theta, feats, s, a, h=1e-5):
    """Oracle: central differences of log pi wrt every weight."""
    g = np.zeros_like(theta)
    for k in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[k] += h
        lo[k] -= h
        g[k] = (log_prob(hi, feats, s, a) - log_prob(lo, feats, s, a)) / (2 * h)
    return g


class TestPolicyProbs:
    def test_zero_weights_uniform(self):
        actor = ActorParams.zeros(3, 4)
        for s in range(3):
            assert np.allclose(policy_probs(actor, s), 0.25)

    def test_closed_form_two_actions(self):
        actor = ActorParams.zeros(1, 2)
        actor.theta[:] = [1.0, 0.0]
        p = policy_probs(actor, 0)
        e = math.exp(1.0)
        assert np.allclose(p, [e / (1 + e), 1 / (1 + e)], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        actor = ActorParams.zeros(2, 3)
        actor.theta[:] = rng.standard_normal(actor.theta.size)
        base = policy_probs(actor, 1)
        shifted = ActorParams(actor.theta.copy(), actor.features)
        shifted.theta[1 * 3 : 2 * 3] += 123.456
        assert np.allclose(policy_probs(shifted, 1), base, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    def test_strict_positivity(self, scale):
        rng = np.random.default_rng(3)
        actor = ActorParams.zeros(2, 3)
        actor.theta[:] = scale * rng.standard_normal(actor.theta.size)
        for s in range(2):
            p = policy_probs(actor, s)
            assert p.min() > 0.0
            assert abs(p.sum() - 1.0) < 1e-12

    def test_prob_table_matches_per_state(self):
        rng = np.random.default_rng(4)
        actor = ActorParams.zeros(4, 3)
        actor.theta[:] = rng.standard_normal(actor.theta.size)
        table = actor.prob_table()
        for s in range(4):
            assert np.array_equal(table[s], policy_probs(actor, s))


    @pytest.mark.parametrize("n_actions", [2, 3, 9])
    def test_array_of_states_matches_per_state(self, n_actions):
        """One softmax over several states is bitwise one call per state, alone or stacked."""
        rng = np.random.default_rng(5)
        feats = LocalFeatures(4, n_actions)
        states = [2, 0, 3, 2]
        for theta in (rng.standard_normal(feats.dim) * 40, rng.standard_normal((3, feats.dim)) * 40):
            actor = ActorParams(theta, feats)
            probs = policy_probs(actor, states)
            assert probs.shape == theta.shape[:-1] + (len(states), n_actions)
            for i, s in enumerate(states):
                assert np.array_equal(probs[..., i, :], policy_probs(actor, s))


class TestScore:
    def test_uniform_two_action_closed_form(self):
        actor = ActorParams.zeros(1, 2)
        psi = score(actor, 0, 0, policy_probs(actor, 0))
        assert np.allclose(psi, [0.5, -0.5], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_expected_score_is_zero(self, seed):
        rng = np.random.default_rng(seed)
        actor = ActorParams.zeros(3, 4)
        actor.theta[:] = rng.standard_normal(actor.theta.size) * 2
        for s in range(3):
            probs = policy_probs(actor, s)
            total = sum(probs[a] * score(actor, s, a, probs) for a in range(4))
            assert np.abs(total).max() < 1e-12

    def test_matches_finite_differences(self):
        """100 random (theta, s, a) triples against the central-difference oracle."""
        rng = np.random.default_rng(11)
        feats = LocalFeatures(3, 3)
        worst = 0.0
        for _ in range(100):
            theta = rng.standard_normal(feats.dim) * 1.5
            s = int(rng.integers(3))
            a = int(rng.integers(3))
            actor = ActorParams(theta, feats)
            analytic = score(actor, s, a, policy_probs(actor, s))
            fd = finite_difference_score(theta, feats, s, a)
            rel = np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())
            worst = max(worst, rel)
        assert worst < 1e-6


class TestQValue:
    def test_zero_weights(self):
        feats = TabularJointFeatures(2, 3)
        assert feats.q(np.zeros(feats.dim), 1, 2) == 0.0

    def test_tabular_reads_coordinate(self):
        feats = TabularJointFeatures(2, 3)
        omega = np.arange(feats.dim, dtype=float)
        assert feats.q(omega, 1, 2) == omega[feats.index(1, 2)]

    def test_linearity(self):
        feats = ProjectionJointFeatures(3, 4, dim=5, seed=2)
        rng = np.random.default_rng(0)
        omega = rng.standard_normal(5)
        q1 = feats.q(omega, 2, 3)
        q2 = feats.q(2.5 * omega, 2, 3)
        assert abs(q2 - 2.5 * q1) < 1e-12

    def test_tabular_q_equals_dense_dot(self):
        feats = TabularJointFeatures(2, 4)
        rng = np.random.default_rng(1)
        omega = rng.standard_normal(feats.dim)
        for s in range(2):
            for a in range(4):
                assert feats.q(omega, s, a) == float(np.dot(feats.vector(s, a), omega))


class TestTdError:
    def test_fixed_point(self):
        assert td_error(0.3, 0.3, 1.1, 1.1) == 0.0

    def test_plain_reward(self):
        assert td_error(1.0, 0.0, 0.7, 0.7) == 1.0

    def test_arithmetic(self):
        assert td_error(2.0, 0.5, 1.0, 3.0) == -0.5


class TestCriticStep:
    def test_zero_delta_is_noop(self):
        omega = np.arange(4.0)
        assert np.array_equal(critic_local_step(omega, 0.1, 0.0, np.ones(4)), omega)

    def test_one_hot_touches_one_coordinate(self):
        feats = TabularJointFeatures(2, 2)
        omega = np.zeros(feats.dim)
        staged = critic_local_step(omega, 0.5, 2.0, feats.vector(1, 0))
        expected = np.zeros(feats.dim)
        expected[feats.index(1, 0)] = 1.0
        assert np.array_equal(staged, expected)

    def test_norm_identity(self):
        rng = np.random.default_rng(5)
        omega = rng.standard_normal(6)
        grad = rng.standard_normal(6)
        staged = critic_local_step(omega, 0.2, -1.5, grad)
        assert abs(np.linalg.norm(staged - omega) - 0.2 * 1.5 * np.linalg.norm(grad)) < 1e-12

    def test_straight_line_reimplementation(self):
        rng = np.random.default_rng(6)
        omega = rng.standard_normal(8)
        grad = rng.standard_normal(8)
        beta, delta = 0.37, -2.1
        staged = critic_local_step(omega, beta, delta, grad)
        for k in range(8):
            assert staged[k] == omega[k] + beta * delta * grad[k]


class TestAdvantage:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        counts = (2, 3)
        feats = TabularJointFeatures(2, 6)
        omega = rng.standard_normal(feats.dim)
        actor = ActorParams.zeros(2, counts[0])
        actor.theta[:] = rng.standard_normal(actor.theta.size)
        return counts, feats, omega, actor

    @staticmethod
    def _advantage(omega, actor, feats, counts, s, a):
        """Agent 0's advantage, given what a round holds: Q(s, a), its radix and probs."""
        radix = joint_action_radix(counts)[0]
        return advantage(omega, actor, feats, radix, s, a, feats.q(omega, s, a), policy_probs(actor, s))

    def test_constant_q_gives_zero(self):
        counts, feats, _, actor = self._setup()
        omega = np.full(feats.dim, 3.3)
        a = encode_joint_action([1, 2], counts)
        assert abs(self._advantage(omega, actor, feats, counts, 1, a)) < 1e-12

    def test_near_deterministic_policy(self):
        counts, feats, omega, actor = self._setup(1)
        actor.theta[:] = 0.0
        actor.theta[actor.features.index(0, 1)] = 200.0  # pins action 1 at state 0
        a = encode_joint_action([1, 0], counts)
        assert abs(self._advantage(omega, actor, feats, counts, 0, a)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_centering_identity(self, seed):
        counts, feats, omega, actor = self._setup(seed)
        rng = np.random.default_rng(100 + seed)
        s = int(rng.integers(2))
        other = int(rng.integers(counts[1]))
        probs = policy_probs(actor, s)
        total = 0.0
        for b in range(counts[0]):
            a = encode_joint_action([b, other], counts)
            total += probs[b] * self._advantage(omega, actor, feats, counts, s, a)
        assert abs(total) < 1e-10

    def test_stack_rows_match_single_agents(self):
        """A block of agents with one action count gives each agent's own advantage bitwise."""
        rng = np.random.default_rng(9)
        counts = (3, 2, 3, 3)
        n_joint = math.prod(counts)
        ids = np.array([0, 2, 3])
        feats = ProjectionJointFeatures(2, n_joint, dim=7, seed=4)
        omega = rng.standard_normal((len(counts), feats.dim))
        actors = ActorParams(rng.standard_normal((ids.size, 6)), LocalFeatures(2, 3))
        s, a = 1, int(rng.integers(n_joint))
        q_sa = feats.q(omega, s, a)
        probs = policy_probs(actors, s)
        radix = joint_action_radix(counts)
        got = advantage(omega[ids], actors, feats, radix[ids], s, a, q_sa[ids], probs)
        for row, i in enumerate(ids):
            actor = ActorParams(actors.theta[row], actors.features)
            alone = advantage(omega[i], actor, feats, radix[i], s, a, q_sa[i], probs[row])
            assert got[row] == alone


class TestActorStep:
    def test_zero_advantage(self):
        theta = np.arange(3.0)
        assert np.array_equal(actor_step(theta, 0.7, 0.0, np.ones(3)), theta)

    def test_arithmetic(self):
        out = actor_step(np.zeros(2), 1.0, 2.0, np.array([1.0, -1.0]))
        assert np.array_equal(out, [2.0, -2.0])

    def test_sign_product_invariance(self):
        theta = np.zeros(2)
        psi = np.array([0.3, -0.4])
        a = actor_step(theta, 0.5, 1.5, psi)
        b = actor_step(theta, 0.5, -1.5, -psi)
        assert np.array_equal(a, b)


class TestAvgRewardUpdate:
    def test_fixed_point(self):
        assert avg_reward_update(2.0, 0.3, 2.0) == 2.0

    def test_full_step(self):
        assert avg_reward_update(0.5, 1.0, 3.0) == 3.0

    def test_halfway(self):
        assert avg_reward_update(0.0, 0.5, 2.0) == 1.0

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            avg_reward_update(0.0, 1.5, 1.0)


class TestSelectAction:
    def test_near_deterministic(self):
        actor = ActorParams.zeros(1, 2)
        actor.theta[0] = 20.0
        probs = policy_probs(actor, 0)
        rng = np.random.default_rng(0)
        hits = sum(select_action(probs, rng.random()) == 0 for _ in range(10_000))
        assert hits / 10_000 > 0.999

    def test_uniform_frequencies(self):
        probs = policy_probs(ActorParams.zeros(1, 2), 0)
        rng = np.random.default_rng(1)
        hits = sum(select_action(probs, rng.random()) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_deterministic_in_rng(self):
        probs = policy_probs(ActorParams.zeros(1, 3), 0)
        seq_a = [select_action(probs, np.random.default_rng(7).random()) for _ in range(1)]
        seq_b = [select_action(probs, np.random.default_rng(7).random()) for _ in range(1)]
        assert seq_a == seq_b

    def test_stack_rows_match_single_rows(self):
        """A stack of distributions, or a strided row of a several-state softmax,
        selects per row what that row alone selects."""
        rng = np.random.default_rng(8)
        actors = ActorParams(rng.standard_normal((5, 12)) * 3, LocalFeatures(3, 4))
        for s in range(3):
            u = rng.random(5)
            expected = [select_action(policy_probs(actors, s)[row], u[row]) for row in range(5)]
            assert select_action(policy_probs(actors, s), u).tolist() == expected
            assert select_action(policy_probs(actors, [1, s])[:, 1], u).tolist() == expected
