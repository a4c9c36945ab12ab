"""Finite networked multi-agent MDPs and exact Markov-chain quantities.

A single global state is shared by all agents; each agent owns a finite
action set and a private reward table. Joint actions are flattened to a
single mixed-radix index (agent 0 most significant) so the transition
model is a dense (S, A, S) tensor with O(1) lookup.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

_ROW_SUM_TOL = 1e-12


class NonErgodicChainError(RuntimeError):
    """Raised when a chain has no unique stationary distribution."""


def encode_joint_action(local_actions, action_counts) -> int:
    """Flatten per-agent action indices into one joint index (agent 0 most significant)."""
    idx = 0
    for a, c in zip(local_actions, action_counts):
        idx = idx * c + a
    return idx


def joint_action_radix(action_counts) -> np.ndarray:
    """Place value of each agent's slot in a joint index: the product of the later counts.

    Built once per tuple of counts; the array is shared, so it is read-only.
    """
    return _radix(tuple(action_counts))


@functools.lru_cache(maxsize=None)
def _radix(action_counts: tuple[int, ...]) -> np.ndarray:
    radix = np.array([math.prod(action_counts[i + 1 :]) for i in range(len(action_counts))])
    radix.flags.writeable = False
    return radix


def decode_joint_action(joint_action: int, action_counts) -> list[int]:
    """Inverse of :func:`encode_joint_action`."""
    out = [0] * len(action_counts)
    rem = joint_action
    for i in range(len(action_counts) - 1, -1, -1):
        out[i] = rem % action_counts[i]
        rem //= action_counts[i]
    return out


@dataclass(frozen=True)
class Mdp:
    """Networked multi-agent MDP with a dense tabular model.

    transition has shape (n_states, n_joint_actions, n_states); every slice
    transition[s, a] is a probability vector. rewards has shape
    (n_agents, n_states, n_joint_actions) and holds each agent's private
    reward table.

    ``build_simulation`` shares a generated model between the live
    simulations of one process that ask for the same one; that model's
    ``transition`` and ``rewards`` are read-only. ``transition_cdf`` is
    always read-only.
    """

    n_agents: int
    n_states: int
    action_counts: tuple[int, ...]
    transition: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=np.float64))
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=np.float64))
        object.__setattr__(self, "action_counts", tuple(int(c) for c in self.action_counts))
        if self.n_agents < 1 or len(self.action_counts) != self.n_agents:
            raise ValueError("action_counts must list one action-set size per agent")
        a_joint = self.n_joint_actions
        if self.transition.shape != (self.n_states, a_joint, self.n_states):
            raise ValueError(
                f"transition shape {self.transition.shape} != "
                f"{(self.n_states, a_joint, self.n_states)}"
            )
        if self.rewards.shape != (self.n_agents, self.n_states, a_joint):
            raise ValueError(
                f"rewards shape {self.rewards.shape} != "
                f"{(self.n_agents, self.n_states, a_joint)}"
            )
        if (self.transition < 0).any():
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = self.transition.sum(axis=2)
        if np.abs(row_sums - 1.0).max() > _ROW_SUM_TOL:
            raise ValueError("every transition slice P(.|s,a) must sum to 1")
        if not np.isfinite(self.rewards).all():
            raise ValueError("rewards must be finite")

    @functools.cached_property
    def transition_cdf(self) -> np.ndarray:
        """Cumulative P(.|s, a) rows, built once for sample_transition; read-only."""
        cdf = np.cumsum(self.transition, axis=-1)
        cdf.flags.writeable = False
        return cdf

    @property
    def n_joint_actions(self) -> int:
        return math.prod(self.action_counts)

    def rewards_at(self, s: int, a: int) -> np.ndarray:
        """Exact per-agent reward vector for (state, joint action)."""
        return self.rewards[:, s, a]

    def sample_rewards(self, s: int, a: int, rng: np.random.Generator, noise_scale: float = 0.0) -> np.ndarray:
        """Reward vector with optional additive uniform noise; at scale 0 it draws nothing."""
        r = self.rewards[:, s, a]
        if noise_scale > 0.0:
            r = r + rng.uniform(-noise_scale, noise_scale, size=self.n_agents)
        return r

    def mean_reward_table(self) -> np.ndarray:
        """(S, A) table of rewards averaged over agents."""
        return self.rewards.mean(axis=0)

    def to_dict(self) -> dict:
        return {
            "n_agents": self.n_agents,
            "n_states": self.n_states,
            "action_counts": list(self.action_counts),
            "transition": self.transition.ravel().tolist(),
            "rewards": self.rewards.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Mdp":
        n_states = int(doc["n_states"])
        counts = tuple(int(c) for c in doc["action_counts"])
        a_joint = math.prod(counts)
        n_agents = int(doc["n_agents"])
        return cls(
            n_agents=n_agents,
            n_states=n_states,
            action_counts=counts,
            transition=np.asarray(doc["transition"], dtype=np.float64).reshape(
                n_states, a_joint, n_states
            ),
            rewards=np.asarray(doc["rewards"], dtype=np.float64).reshape(
                n_agents, n_states, a_joint
            ),
        )

    def save(self, path) -> None:
        """Write the model to a JSON text file (exact float round-trip)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "Mdp":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class JointPolicy:
    """Product policy: one (n_states, n_actions_i) probability table per agent.

    Per-state rows must sum to 1. Strictly positive entries are required
    only when ``require_positive`` is set; point-mass tables are accepted
    so the exact-chain oracles can be exercised with degenerate policies.
    """

    tables: tuple[np.ndarray, ...]
    require_positive: bool = field(default=False, compare=False)

    def __post_init__(self):
        tables = tuple(np.asarray(t, dtype=np.float64) for t in self.tables)
        object.__setattr__(self, "tables", tables)
        for i, t in enumerate(tables):
            if t.ndim != 2:
                raise ValueError(f"policy table {i} must be 2-D (states x actions)")
            if t.shape[0] != tables[0].shape[0]:
                raise ValueError("all policy tables must share the state dimension")
            if (t < 0).any():
                raise ValueError(f"policy table {i} has negative entries")
            if np.abs(t.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
                raise ValueError(f"policy table {i} rows must sum to 1")
            if self.require_positive and (t <= 0).any():
                raise ValueError(f"policy table {i} must be strictly positive")

    @property
    def n_agents(self) -> int:
        return len(self.tables)

    @property
    def n_states(self) -> int:
        return self.tables[0].shape[0]

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tables)

    @classmethod
    def uniform(cls, mdp: Mdp) -> "JointPolicy":
        return cls(
            tuple(np.full((mdp.n_states, c), 1.0 / c) for c in mdp.action_counts),
            require_positive=True,
        )

    def joint_table(self) -> np.ndarray:
        """(n_states, n_joint_actions) table of joint probabilities.

        The joint-action axis follows the mixed-radix layout of
        :func:`encode_joint_action`.
        """
        out = np.ones((self.n_states, 1))
        for t in self.tables:
            out = (out[:, :, None] * t[:, None, :]).reshape(self.n_states, -1)
        return out

    def matches(self, mdp: Mdp) -> bool:
        return self.n_states == mdp.n_states and self.action_counts == mdp.action_counts


def generate_random_mdp(
    n_agents: int,
    n_states: int,
    actions_per_agent,
    reward_range: tuple[float, float] = (0.0, 4.0),
    seed: int = 0,
    max_joint_actions: int = 4096,
) -> Mdp:
    """Build a seeded random MDP with strictly positive transition slices.

    Positivity makes the induced chain irreducible and aperiodic under any
    policy, so the stationary-distribution oracles are always defined.
    Rewards are drawn uniformly from reward_range. Deterministic in seed.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    if n_states < 2:
        raise ValueError("n_states must be >= 2")
    counts = (
        tuple(int(c) for c in actions_per_agent)
        if np.iterable(actions_per_agent)
        else (int(actions_per_agent),) * n_agents
    )
    if len(counts) != n_agents:
        raise ValueError("actions_per_agent must give one size per agent")
    if min(counts) < 2:
        raise ValueError("every agent needs at least 2 actions")
    a_joint = math.prod(counts)
    if a_joint > max_joint_actions:
        raise ValueError(
            f"joint action space of size {a_joint} exceeds the cap "
            f"{max_joint_actions}; reduce agents or actions"
        )
    lo, hi = float(reward_range[0]), float(reward_range[1])
    if hi < lo:
        raise ValueError("reward_range must satisfy low <= high")
    rng = np.random.default_rng(seed)
    # 0.05 floor keeps every entry strictly positive after normalization
    trans = 0.05 + rng.random((n_states, a_joint, n_states))
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.uniform(lo, hi, size=(n_agents, n_states, a_joint))
    return Mdp(n_agents, n_states, counts, trans, rewards)


def sample_transition(mdp: Mdp, s: int, a: int, rng: np.random.Generator) -> int:
    """Draw the next state from P(.|s, a) using one uniform variate."""
    if not (0 <= s < mdp.n_states):
        raise IndexError(f"state index {s} out of range")
    if not (0 <= a < mdp.n_joint_actions):
        raise IndexError(f"joint-action index {a} out of range")
    nxt = int(np.searchsorted(mdp.transition_cdf[s, a], rng.random(), side="right"))
    return min(nxt, mdp.n_states - 1)


def induced_chain(mdp: Mdp, policy: JointPolicy) -> np.ndarray:
    """State-to-state transition matrix under the given joint policy.

    Row s is the policy-weighted mixture of the joint-action slices
    P(.|s, a); rows sum to 1 up to accumulation error.
    """
    if not policy.matches(mdp):
        raise ValueError("policy dimensions do not match the MDP")
    joint = policy.joint_table()
    return np.einsum("sa,sap->sp", joint, mdp.transition)


def _tree_levels(mask: np.ndarray) -> np.ndarray:
    """Depth of every state in a search tree grown from state 0 along mask.

    mask[u, v] marks an edge u -> v; states the search never reaches get -1.
    """
    level = np.full(mask.shape[0], -1)
    level[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(mask[u] & (level < 0)):
            level[v] = level[u] + 1
            stack.append(v)
    return level


def stationary_distribution(chain: np.ndarray) -> np.ndarray:
    """Unique stationary distribution d of a row-stochastic matrix (d P = d).

    A chain with a zero entry is first checked structurally: it is
    irreducible iff a tree search from state 0 reaches every state both
    along P and along its transpose, and its period is the gcd of
    level[u] + 1 - level[v] over its edges. d is then the one solution of
    (P^T - I) d = 0 with the last equation replaced by sum(d) = 1. Raises
    NonErgodicChainError for reducible or periodic chains.
    """
    p = np.asarray(chain, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("chain must be a square matrix")
    if (p < 0).any() or np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("chain must be row-stochastic")
    n = p.shape[0]
    if p.min() <= 0.0:
        # positivity shortcut fails: check ergodicity structurally
        mask = p > 0.0
        level = _tree_levels(mask)
        if (level < 0).any() or (_tree_levels(mask.T) < 0).any():
            raise NonErgodicChainError("chain is reducible (not irreducible)")
        u, v = np.nonzero(mask)
        if np.gcd.reduce(level[u] + 1 - level[v]) != 1:
            raise NonErgodicChainError("chain is periodic")
    a = p.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    d = np.linalg.solve(a, b)
    d = np.maximum(d, 0.0)
    d /= d.sum()
    if np.abs(d @ p - d).max() >= 1e-10:
        raise NonErgodicChainError("stationary solve did not converge")
    return d


def global_return(mdp: Mdp, policy: JointPolicy) -> float:
    """Long-run average of the agent-mean reward under the policy.

    Exact value: sum over (s, a) of d(s) * pi(s, a) * mean_i R_i(s, a),
    with d the stationary distribution of the induced chain.
    """
    d = stationary_distribution(induced_chain(mdp, policy))
    joint = policy.joint_table()
    return float(d @ (joint * mdp.mean_reward_table()).sum(axis=1))
