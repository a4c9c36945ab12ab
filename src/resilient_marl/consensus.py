"""Trim-and-mix consensus step plus pluggable adversary message strategies.

Trimming is coordinate-wise: at each coordinate the f largest and f
smallest received values are discarded independently, the standard vector
extension of scalar trimmed consensus. The receiving agent's own value is
never trimmed and always participates, which keeps every combined
coordinate inside the convex hull of {own value} U {retained values}.

Trim and combine also run on a group of m receivers at once: k senders
per receiver, values stacked as (m, k, dim). f=0 is not a special path:
it is the all-retained mask. The mixing weights are built apart from the
mix, so a caller whose mask cannot change (f=0, or k <= 2f) builds them
once.
"""
from __future__ import annotations

import functools
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
        out = [()] * m
        if self.f == 0:  # every message survives
            return out
        rows, cols = np.nonzero(~self.mask.any(axis=-1).reshape(m, k))
        dropped = {}
        for r, j in zip(rows.tolist(), np.reshape(self.senders, (m, k))[rows, cols].tolist()):
            dropped.setdefault(r, []).append(j)
        for r, senders in dropped.items():
            out[r] = tuple(senders)
        return out


@functools.lru_cache(maxsize=None)
def _fixed_mask(shape: tuple[int, ...], kept: bool) -> np.ndarray:
    """Read-only mask that keeps every value, or none."""
    mask = np.full(shape, kept)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=None)
def _lower_id(k: int) -> np.ndarray:
    """(k, k, 1) read-only: is sender l (axis 0) listed before sender j (axis 1)?"""
    lower = (np.arange(k)[:, None] < np.arange(k))[..., None]
    lower.flags.writeable = False
    return lower


def trim(own: np.ndarray, msgs: Inbox, f: int) -> TrimResult:
    """Coordinate-wise removal of the f highest and f lowest received values.

    At each coordinate a sender's stable rank is the number of senders
    whose value there is below its own, an equal value counting as below
    when its sender id is lower. A message survives at a coordinate when
    its rank lies in [f, k - f), so ties go by ascending sender id. With
    2f or fewer messages nothing survives and the agent falls back on its
    own value alone; with f=0 everything survives. ``own`` is (dim,) for
    one receiver or (m, dim) for a group.

    NaN rule: a NaN compares false with every value, itself included, so
    it has rank 0 and counts below no one. It is trimmed as a minimum
    whenever f > 0, and the other senders rank as if it were not there.
    """
    if f < 0:
        raise ValueError("trim parameter must be nonnegative")
    values = msgs.values
    if values.shape[-1] != np.shape(own)[-1]:
        raise ValueError("payload length does not match own parameter length")
    k = values.shape[-2]
    if f == 0 or k <= 2 * f:
        mask = _fixed_mask(values.shape, f == 0)
    else:
        v_l, v_j = values[..., :, None, :], values[..., None, :, :]
        below = (v_l < v_j) | ((v_l == v_j) & _lower_id(k))
        rank = np.add.reduce(below, axis=-3, dtype=np.min_scalar_type(k))
        mask = (f <= rank) & (rank < k - f)
    return TrimResult(msgs.senders, values, mask, f)


def _sum_senders(x: np.ndarray) -> np.ndarray:
    """Sum over the sender axis (-2), adding in ascending sender id.

    np.add.reduce does so while the sender axis is not the inner loop. Over
    a (..., k, 1) stack it would go pairwise once k >= 8, so that shape
    takes one add per sender.
    """
    k = x.shape[-2]
    if x.shape[-1] > 1 or k == 0:
        return np.add.reduce(x, axis=-2)
    total = x[..., 0, :]
    for j in range(1, k):
        total = total + x[..., j, :]
    return total


@dataclass(frozen=True)
class MixingWeights:
    """Per-coordinate mixing weights of a group of receivers.

    ``neighbor[..., j, :]`` weighs sender j and ``own`` the receiver's own
    value. The last axis is dim, or 1 when the weights are the same at
    every coordinate.
    """

    neighbor: np.ndarray
    own: np.ndarray


def mixing_weights(pair_weights: np.ndarray, mask: np.ndarray) -> MixingWeights:
    """Metropolis weights of the senders that survive ``mask``, plus the self weight.

    ``pair_weights[..., j]`` is the Metropolis weight for sender j
    (full-graph degrees) and ``mask`` is a trim mask, shaped (..., k, dim)
    or (..., k, 1). Per coordinate, the self weight absorbs the mass of
    whatever was trimmed there. The neighbour weights are summed in
    ascending sender id whatever the shape.
    """
    pair_weights = np.asarray(pair_weights, dtype=np.float64)
    if pair_weights.shape != mask.shape[:-1]:
        raise ConsensusError("need exactly one pairwise weight per message")
    if (pair_weights < 0).any():
        raise ConsensusError("pairwise weights must be nonnegative")
    neighbor = pair_weights[..., None] * mask.astype(np.float64)
    total = _sum_senders(neighbor)
    if (total > 1.0 + 1e-9).any():
        raise ConsensusError(
            "pairwise weights of the survivors exceed 1; rows would not be stochastic"
        )
    return MixingWeights(neighbor, 1.0 - total)


def consensus_combine(own: np.ndarray, trimmed: TrimResult, weights: MixingWeights) -> np.ndarray:
    """Convex combination of the own value with the surviving neighbor values.

    ``weights`` is ``mixing_weights(pair_weights, trimmed.mask)``, or the
    same built once where the mask cannot change. Each output coordinate
    is then a proper convex combination of {own} U {survivors at that
    coordinate}. Senders are summed in ascending id order.
    """
    own = np.asarray(own, dtype=np.float64)
    values = trimmed.values
    # with f=0 nothing is trimmed, so there is no ±inf to zero
    if trimmed.f > 0 and not np.isfinite(values).all():
        # a trimmed ±inf must add nothing, not 0 * inf = NaN, while a NaN
        # stays NaN so the run stops; the check costs far less per call
        # than this np.where
        values = np.where(trimmed.mask | np.isnan(values), values, 0.0)
    return weights.own * own + _sum_senders(weights.neighbor * values)


# -- adversary strategies ---------------------------------------------


@dataclass(frozen=True)
class AgentView:
    """What a message strategy reads of the agent it speaks for.

    ``omega_staged`` is the agent's post-critic-step value, the one an
    honest agent would send this round.
    """

    agent_id: int
    omega_staged: np.ndarray


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
        # the stream of default_rng([seed, id, t]), without its argument dispatch
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, agent.agent_id, t])))
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
    return strategy.message(agent, t, dim)
