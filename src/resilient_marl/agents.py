"""Per-agent local computations: softmax policy, linear critic, updates.

Policies are softmax over linear logits with one-hot (state, local action)
features, so the score function has a closed form. Critics are linear in a
joint-action feature map: tabular one-hot by default, or a seeded random
projection when a compressed parameter vector is wanted.

Every rule also takes a stack of agents along leading axes (m actors that
share one action count, m critics) and then returns one result per agent;
each stacked row is bitwise what the rule gives for that agent alone.
Row-wise products go through ``np.vecdot``, which matches a per-row
``np.dot``; an elementwise product summed with ``sum`` or ``einsum`` does not.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

_LOGIT_CLIP = 50.0  # applied after max-subtraction; prevents exp underflow blowups


class LocalFeatures:
    """One-hot features over (state, local action) pairs for the policy."""

    def __init__(self, n_states: int, n_actions: int):
        self.n_states = n_states
        self.n_actions = n_actions
        self.dim = n_states * n_actions
        self.actions = np.arange(n_actions)
        self.actions.flags.writeable = False

    def index(self, s: int, a: int) -> int:
        return s * self.n_actions + a

    def vector(self, s: int, a: int) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.index(s, a)] = 1.0
        return v

    def logits(self, theta: np.ndarray, s) -> np.ndarray:
        """Logits at state s; an array of states gives one row per state."""
        table = theta.reshape(theta.shape[:-1] + (self.n_states, self.n_actions))
        return np.take(table, s, axis=-2)


class TabularJointFeatures:
    """Exact one-hot map over (state, joint action); dim = |S| * |A|."""

    def __init__(self, n_states: int, n_joint_actions: int):
        self.n_states = n_states
        self.n_joint_actions = n_joint_actions
        self.dim = n_states * n_joint_actions

    def index(self, s: int, a: int) -> int:
        return s * self.n_joint_actions + a

    def vector(self, s: int, a: int) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.index(s, a)] = 1.0
        return v

    def q(self, omega: np.ndarray, s: int, a):
        """Q(s, a) = features(s, a) dot omega: the coordinate of (s, a).

        ``omega`` may stack m critics as (m, dim). An int ``a`` then gives
        one value per critic; an int array ``a`` of shape (m, k) gives the
        k values of each critic's row of joint actions.
        """
        idx = self.index(s, a)
        if np.ndim(idx) == 0:
            return omega[..., idx]
        # row r of idx reads row r of omega
        return omega.reshape(-1, self.dim)[_row_numbers(idx.shape), idx]


@functools.lru_cache(maxsize=None)
def _row_numbers(shape: tuple[int, ...]) -> np.ndarray:
    """Read-only row number of every entry of an index array, one column per row."""
    rows = np.arange(math.prod(shape[:-1])).reshape(shape[:-1] + (1,))
    rows.flags.writeable = False
    return rows


class ProjectionJointFeatures:
    """Seeded Gaussian random projection with dim < |S| * |A|.

    The (|S| * |A|, dim) table depends only on its shape and ``seed``, so
    instances alive at the same time with the same three values hold the
    same read-only array; it is freed with the last of them.
    """

    def __init__(self, n_states: int, n_joint_actions: int, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("feature dimension must be positive")
        self.n_states = n_states
        self.n_joint_actions = n_joint_actions
        self.dim = dim
        self._rows = _projection_table(n_states * n_joint_actions, dim, seed)

    def index(self, s: int, a: int) -> int:
        return s * self.n_joint_actions + a

    def vector(self, s: int, a: int) -> np.ndarray:
        return self._rows[self.index(s, a)]

    def q(self, omega: np.ndarray, s: int, a):
        """Q(s, a) = features(s, a) dot omega, stacked as ``TabularJointFeatures.q``."""
        rows = self._rows[self.index(s, a)]
        return np.vecdot(rows, omega if np.ndim(a) == 0 else omega[..., None, :])


def _projection_table(n_rows: int, dim: int, seed: int) -> np.ndarray:
    """Read-only ``default_rng(seed).standard_normal((n_rows, dim)) / sqrt(dim)``."""
    key = (n_rows, dim, seed)
    table = _live_projection_tables.get(key)
    if table is None:
        table = np.random.default_rng(seed).standard_normal((n_rows, dim)) / np.sqrt(dim)
        table.flags.writeable = False
        _live_projection_tables[key] = table
    return table


# tables that a live feature map still holds; a table is freed with its last holder
_live_projection_tables: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass
class ActorParams:
    """Softmax policy weights plus the local feature layout.

    ``theta`` is one flat weight vector, or an (m, dim) stack of m agents
    that share the layout.
    """

    theta: np.ndarray
    features: LocalFeatures

    @classmethod
    def zeros(cls, n_states: int, n_actions: int) -> "ActorParams":
        feats = LocalFeatures(n_states, n_actions)
        return cls(np.zeros(feats.dim), feats)

    def prob_table(self) -> np.ndarray:
        """(..., n_states, n_actions) probability table for the current weights."""
        shape = self.theta.shape[:-1] + (self.features.n_states, self.features.n_actions)
        return _softmax(self.theta.reshape(shape))


def _softmax(z: np.ndarray) -> np.ndarray:
    # ufunc calls rather than the z.max / np.clip / e.sum wrappers: same
    # values, a fraction of the per-call cost on these tiny arrays
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    # after max-subtraction z <= 0 (or NaN), so only the lower clip can bind
    z = np.maximum(z, -_LOGIT_CLIP)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def policy_probs(actor: ActorParams, s) -> np.ndarray:
    """Action distribution at state s: softmax of the local logits.

    Max-subtraction plus clipping keeps the exponentials bounded without
    breaking shift invariance; probabilities are strictly positive for any
    finite weights. A stack of actors gives one distribution per row; an
    array of states adds an axis before the actions, one distribution per
    state, each bitwise what that state alone gives.
    """
    return _softmax(actor.features.logits(actor.theta, s))


def score(actor: ActorParams, s: int, a, probs: np.ndarray) -> np.ndarray:
    """Gradient of log pi(s, a) wrt theta for the softmax parameterization.

    Equals the chosen action's features minus the probability-weighted
    average of all action features at s: minus the probabilities in state
    s's block, plus one at the chosen action, zero elsewhere. ``probs`` is
    ``policy_probs(actor, s)``. A stack of actors takes one action and one
    distribution per row.
    """
    n_acts = actor.features.n_actions
    psi = np.zeros(actor.theta.shape)
    chosen = actor.features.actions == np.asarray(a)[..., None]
    psi[..., s * n_acts : (s + 1) * n_acts] = chosen - probs
    return psi


def td_error(r, mu, q_next, q_curr):
    """Average-reward temporal difference: r - mu + q_next - q_curr."""
    return r - mu + q_next - q_curr


def critic_local_step(omega: np.ndarray, beta: float, delta, grad: np.ndarray) -> np.ndarray:
    """Staged critic value omega + beta * delta * grad; omega is untouched.

    A stack of critics takes one TD error per row and a shared ``grad``.
    """
    if beta < 0:
        raise ValueError("step size must be nonnegative")
    return omega + (beta * np.asarray(delta))[..., None] * grad


def advantage(
    omega: np.ndarray, actor: ActorParams, features, radix, s: int, joint_action: int, q_sa, probs
):
    """Action value minus the policy-weighted baseline over own actions.

    ``q_sa`` is Q(s, joint_action) and ``probs`` is ``policy_probs(actor, s)``,
    both as the round already holds them. The other agents' slots of the
    joint action are held fixed while the agent's own slot b ranges over
    its action set; in the mixed-radix layout (agent 0 most significant)
    that joint index is ``a + (b - digit_i(a)) * radix_i``, with ``radix``
    the agent's entry of ``joint_action_radix``. A stack of m agents that
    share an action count passes (m, dim) critics, their actors, their
    radix entries, and one ``q_sa`` and one distribution per row.
    """
    own_actions = actor.features.actions
    own = joint_action // radix % own_actions.size
    subs = joint_action + (own_actions - own[..., None]) * radix[..., None]
    return q_sa - np.vecdot(probs, features.q(omega, s, subs))


def actor_step(theta: np.ndarray, beta: float, adv, psi: np.ndarray) -> np.ndarray:
    """Policy-gradient ascent step theta + beta * adv * psi.

    A stack of actors takes one advantage and one score row per agent.
    """
    if beta < 0:
        raise ValueError("step size must be nonnegative")
    return theta + (beta * np.asarray(adv))[..., None] * psi


def avg_reward_update(mu, beta: float, r):
    """Running-reward tracker: convex combination (1 - beta) * mu + beta * r.

    Elementwise on arrays, so one call updates every agent's tracker.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("reward-tracking step size must lie in [0, 1]")
    return (1.0 - beta) * mu + beta * r


def select_action(probs: np.ndarray, u):
    """Sample a local action from a policy distribution by inverse CDF.

    ``probs`` is the distribution, e.g. ``policy_probs(actor, s)``; ``u``
    is one uniform draw in [0, 1) per distribution: a float for one, an
    (m,) array for an (m, n_actions) stack. The action is the number of
    cumulative probabilities at or below the draw, capped at the last
    action.
    """
    below = np.add.accumulate(probs, axis=-1) <= np.asarray(u)[..., None]
    a = np.minimum(np.add.reduce(below, axis=-1), probs.shape[-1] - 1)
    return int(a) if a.ndim == 0 else a
