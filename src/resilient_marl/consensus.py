"""Trim-and-mix consensus step plus pluggable adversary message strategies.

Trimming is coordinate-wise: at each coordinate the f largest and f
smallest received values are discarded independently, the standard vector
extension of scalar trimmed consensus. The receiving agent's own value is
never trimmed and always participates, which keeps every combined
coordinate inside the convex hull of {own value} U {retained values}.

Trim and combine also run on a group of m receivers at once: k senders
per receiver, values stacked as (m, k, dim). f=0 is not a special path:
it is the all-retained mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConsensusError(RuntimeError):
    """Malformed mixing weights or a violated combination contract."""


@dataclass(frozen=True)
class Inbox:
    """What a group of m receivers got: k senders each, ascending per row.

    ``senders`` is (m, k) and ``values`` (m, k, dim); a single receiver
    drops the leading axis. Listing the senders in ascending id is the
    caller's part: trim breaks ties and combine sums in that order.
    """

    senders: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class TrimResult:
    """Outcome of one trim: message stack, survival mask, trim parameter.

    ``values`` stacks the payloads ordered by ascending sender id;
    ``mask[..., j, k]`` says whether sender j's value survived at
    coordinate k. A group of receivers adds a leading axis to
    ``senders``, ``values`` and ``mask``.
    """

    senders: tuple[int, ...] | np.ndarray
    values: np.ndarray
    mask: np.ndarray
    f: int

    def fully_trimmed_senders(self) -> list[tuple[int, ...]]:
        """Per receiver, the senders whose message was discarded at every coordinate.

        One tuple per receiver row, empty where nothing was dropped; a
        single receiver is a group of one.
        """
        k = self.mask.shape[-2]
        m = math.prod(self.mask.shape[:-2])
        if self.f == 0:  # every message survives
            return [()] * m
        dropped = ~self.mask.any(axis=-1).reshape(m, k)
        senders = np.reshape(self.senders, (m, k))
        out = [()] * m
        for r in np.flatnonzero(dropped.any(axis=1)):
            out[r] = tuple(senders[r][dropped[r]].tolist())
        return out


def trim(own: np.ndarray, msgs: Inbox, f: int) -> TrimResult:
    """Coordinate-wise removal of the f highest and f lowest received values.

    A message survives at coordinate k only if its value there is neither
    among the f largest nor the f smallest of the received values at k
    (ties broken by ascending sender id, via a stable sort). With 2f or
    fewer messages nothing survives and the agent falls back on its own
    value alone; with f=0 everything survives. ``own`` is (dim,) for one
    receiver or (m, dim) for a group.
    """
    if f < 0:
        raise ValueError("trim parameter must be nonnegative")
    values = msgs.values
    if values.shape[-1] != np.shape(own)[-1]:
        raise ValueError("payload length does not match own parameter length")
    k = values.shape[-2]
    mask = np.full(values.shape, f == 0)
    if 2 * f < k and f > 0:
        # the senders at sorted positions f .. k-f-1 survive
        order = np.argsort(values, axis=-2, kind="stable")
        where = list(np.indices(values.shape[:-2] + (k - 2 * f, values.shape[-1]), sparse=True))
        where[-2] = order[..., f : k - f, :]
        mask[tuple(where)] = True
    return TrimResult(msgs.senders, values, mask, f)


def consensus_combine(
    own: np.ndarray, trimmed: TrimResult, pair_weights: np.ndarray
) -> np.ndarray:
    """Convex combination of the own value with the surviving neighbor values.

    ``pair_weights[..., j]`` is the Metropolis weight for sender j
    (full-graph degrees), shaped like ``trimmed.senders``. Per coordinate,
    the self-weight absorbs the mass of whatever was trimmed there, so each
    output coordinate is a proper convex combination of {own} U {survivors
    at that coordinate}. Senders are summed in ascending id order.
    """
    own = np.asarray(own, dtype=np.float64)
    pair_weights = np.asarray(pair_weights, dtype=np.float64)
    if pair_weights.shape != np.shape(trimmed.senders):
        raise ConsensusError("need exactly one pairwise weight per message")
    if (pair_weights < 0).any():
        raise ConsensusError("pairwise weights must be nonnegative")
    weighted_mask = pair_weights[..., None] * trimmed.mask
    neighbor_weight = weighted_mask.sum(axis=-2)
    if (neighbor_weight > 1.0 + 1e-9).any():
        raise ConsensusError(
            "pairwise weights of the survivors exceed 1; rows would not be stochastic"
        )
    self_weight = 1.0 - neighbor_weight
    values = trimmed.values
    if not np.isfinite(values).all():
        # a trimmed ±inf must add nothing, not 0 * inf = NaN, while a NaN
        # stays NaN so the run stops; the check costs far less per call
        # than this np.where
        values = np.where(trimmed.mask | np.isnan(values), values, 0.0)
    return self_weight * own + (weighted_mask * values).sum(axis=-2)


# -- adversary strategies ---------------------------------------------


@dataclass(frozen=True)
class AgentView:
    """What a message strategy reads of the agent it speaks for.

    ``omega_staged`` is the agent's post-critic-step value, the one an
    honest agent would send this round.
    """

    agent_id: int
    omega_staged: np.ndarray
    is_regular: bool = False


@dataclass(frozen=True)
class ConstantStrategy:
    """Broadcast a fixed vector every round regardless of local state."""

    value: float | tuple

    def message(self, agent, t: int, dim: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.value, dtype=np.float64), (dim,)).copy()


@dataclass(frozen=True)
class DriftStrategy:
    """Broadcast start + rate * t per coordinate, creeping away each round."""

    start: float | tuple
    rate: float

    def message(self, agent, t: int, dim: int) -> np.ndarray:
        base = np.broadcast_to(np.asarray(self.start, dtype=np.float64), (dim,))
        return base + self.rate * t


@dataclass(frozen=True)
class NoiseStrategy:
    """Broadcast seeded i.i.d. Gaussian noise; stateless, so reproducible."""

    scale: float
    seed: int = 0

    def message(self, agent, t: int, dim: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, agent.agent_id, t])
        return self.scale * rng.standard_normal(dim)


@dataclass(frozen=True)
class SelfishStrategy:
    """Run the local critic honestly but never mix anyone else's parameters."""

    def message(self, agent, t: int, dim: int) -> np.ndarray:
        return agent.omega_staged


STRATEGY_NAMES = {
    "constant": ConstantStrategy,
    "drift": DriftStrategy,
    "noise": NoiseStrategy,
    "selfish": SelfishStrategy,
}


def adversary_message(strategy, agent, t: int, dim: int) -> np.ndarray:
    """Payload an adversarial agent sends at round t."""
    if agent is not None and agent.is_regular:
        raise ValueError("adversary_message called for a regular agent")
    return strategy.message(agent, t, dim)
