"""Undirected (optionally time-varying) communication networks.

A schedule is a periodic list of edge sets; round t uses phase t mod P.
Adversary placement, locality checks, Metropolis mixing weights, and the
brute-force robustness diagnostic all live here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_WEIGHT_TOL = 1e-12


class GraphError(ValueError):
    pass


class PlacementError(GraphError):
    """No admissible adversary placement found within the retry budget."""


def _normalize_edges(n_nodes, edges):
    out = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphError(f"self-loop on node {u}")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise GraphError(f"edge ({u}, {v}) outside node range 0..{n_nodes - 1}")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


@dataclass(frozen=True)
class GraphSchedule:
    """Periodic communication schedule over a fixed node set.

    phases holds one undirected edge set per phase; a static graph is a
    single phase. The schedule is topology only: which agents are
    adversarial and the trim parameter belong to the run
    (``Simulation.strategies`` and ``Simulation.trim_f``).
    """

    n_nodes: int
    phases: tuple[frozenset, ...]
    _adjacency: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise GraphError("need at least one node")
        if not self.phases:
            raise GraphError("schedule needs at least one phase")
        phases = tuple(_normalize_edges(self.n_nodes, p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        adjacency = []
        for p in phases:
            nbrs = [[] for _ in range(self.n_nodes)]
            for u, v in p:
                nbrs[u].append(v)
                nbrs[v].append(u)
            adjacency.append(tuple(tuple(sorted(ns)) for ns in nbrs))
        object.__setattr__(self, "_adjacency", tuple(adjacency))

    # -- constructors -------------------------------------------------

    @classmethod
    def ring(cls, n):
        return cls(n, (tuple((i, (i + 1) % n) for i in range(n)),))

    @classmethod
    def star(cls, n):
        return cls(n, (tuple((0, i) for i in range(1, n)),))

    @classmethod
    def complete(cls, n):
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        return cls(n, (edges,))

    @classmethod
    def erdos_renyi(cls, n, p, seed):
        rng = np.random.default_rng(seed)
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        )
        return cls(n, (edges,))

    @classmethod
    def from_edges(cls, n, edges):
        return cls(n, (tuple(edges),))

    @classmethod
    def periodic(cls, n, edge_lists):
        return cls(n, tuple(tuple(e) for e in edge_lists))

    # -- queries ------------------------------------------------------

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def static(self) -> bool:
        return len(self.phases) == 1

    def edges_at(self, t: int) -> frozenset:
        return self.phases[t % len(self.phases)]

    def neighbors(self, i: int, t: int = 0) -> tuple[int, ...]:
        return self._adjacency[t % len(self.phases)][i]

    def degrees(self, t: int = 0) -> np.ndarray:
        adj = self._adjacency[t % len(self.phases)]
        return np.array([len(ns) for ns in adj])

    def is_connected(self, t: int = 0) -> bool:
        adj = self._adjacency[t % len(self.phases)]
        seen = {0}
        stack = [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_nodes


def neighborhood(g: GraphSchedule, i: int, t: int = 0) -> frozenset:
    """Neighbor set of node i under the round-t edge set (excludes i)."""
    if not (0 <= i < g.n_nodes):
        raise GraphError(f"node {i} out of range")
    return frozenset(g.neighbors(i, t))


def is_r_local(g: GraphSchedule, nodes, r: int) -> bool:
    """True iff every node outside ``nodes`` has at most r neighbors inside.

    Checked at every phase of a time-varying schedule.
    """
    nodes = frozenset(int(i) for i in nodes)
    if any(i < 0 or i >= g.n_nodes for i in nodes):
        raise GraphError("node ids out of range")
    for t in range(g.n_phases):
        for i in range(g.n_nodes):
            if i in nodes:
                continue
            if sum(1 for j in g.neighbors(i, t) if j in nodes) > r:
                return False
    return True


def place_adversaries(
    g: GraphSchedule,
    count: int,
    f: int | None,
    rng: np.random.Generator,
    max_tries: int = 10_000,
) -> frozenset:
    """Uniformly sample a size-``count`` node subset that is f-local.

    Rejection-samples until a placement passes :func:`is_r_local`; with
    ``f=None`` the locality constraint is skipped. Raises PlacementError
    when the budget is exhausted (e.g. complete graph, count > f).
    """
    if count < 0 or count >= g.n_nodes:
        raise GraphError("adversary count must be in [0, n_nodes)")
    if count == 0:
        return frozenset()
    for _ in range(max_tries):
        pick = frozenset(int(x) for x in rng.choice(g.n_nodes, size=count, replace=False))
        if f is None or is_r_local(g, pick, f):
            return pick
    raise PlacementError(
        f"no {f}-local placement of {count} adversaries found in {max_tries} tries"
    )


def metropolis_pair_weight(deg_i: int, deg_j: int) -> float:
    """Mixing weight on an edge: 1 / (1 + max of the endpoint degrees)."""
    return 1.0 / (1.0 + max(deg_i, deg_j))


@dataclass(frozen=True)
class ConsensusRow:
    """One agent's mixing weights over its retained neighbors plus itself."""

    agent: int
    retained: tuple[int, ...]
    weights: dict

    def __post_init__(self):
        object.__setattr__(self, "retained", tuple(sorted(int(j) for j in self.retained)))
        w = {int(k): float(v) for k, v in self.weights.items()}
        object.__setattr__(self, "weights", w)
        if set(w) != set(self.retained) | {self.agent}:
            raise GraphError("weights must cover exactly the retained set plus self")
        if any(v < 0 for v in w.values()):
            raise GraphError("weights must be nonnegative")
        if abs(sum(w.values()) - 1.0) > _WEIGHT_TOL:
            raise GraphError("weights must sum to 1")

    @property
    def self_weight(self) -> float:
        return self.weights[self.agent]


def metropolis_weights(g: GraphSchedule, t: int = 0, retained=None) -> list[ConsensusRow]:
    """Per-agent Metropolis rows over the retained neighbor sets.

    Degrees are taken on the full (untrimmed) round-t graph, so the rule
    stays local: an agent needs only its own degree and the degree each
    neighbor attaches to its message. The self-weight absorbs whatever
    mass trimming removed, keeping every row stochastic.
    """
    deg = g.degrees(t)
    rows = []
    for i in range(g.n_nodes):
        nbrs = g.neighbors(i, t)
        keep = nbrs if retained is None else tuple(sorted(retained[i]))
        if any(j not in nbrs for j in keep):
            raise GraphError(f"retained set of agent {i} is not a subset of its neighborhood")
        weights = {j: metropolis_pair_weight(deg[i], deg[j]) for j in keep}
        weights[i] = 1.0 - sum(weights.values())
        rows.append(ConsensusRow(i, keep, weights))
    return rows


def weight_matrix(rows: list[ConsensusRow], n_nodes: int) -> np.ndarray:
    """Dense mixing matrix assembled from consensus rows."""
    mat = np.zeros((n_nodes, n_nodes))
    for row in rows:
        for j, w in row.weights.items():
            mat[row.agent, j] = w
    return mat


def _popcounts(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values)


def is_r_robust(g: GraphSchedule, r: int) -> bool:
    """Brute-force r-robustness of a static graph (n_nodes <= 16).

    Robust means: for every pair of disjoint nonempty node subsets, at
    least one subset contains a node with >= r neighbors outside it.
    """
    if not g.static:
        raise GraphError("robustness check is defined for static graphs only")
    n = g.n_nodes
    if n > 16:
        raise GraphError("robustness brute force capped at 16 nodes")
    if r <= 0:
        return True
    nbr_mask = np.zeros(n, dtype=np.uint32)
    for u, v in g.edges_at(0):
        nbr_mask[u] |= np.uint32(1 << v)
        nbr_mask[v] |= np.uint32(1 << u)
    masks = np.arange(1 << n, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    # ok[m]: subset m contains a node with >= r neighbors outside m
    ok = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        inside = (masks >> np.uint32(i)) & np.uint32(1) == 1
        outside_deg = _popcounts(nbr_mask[i] & ~masks)
        ok |= inside & (outside_deg >= r)
    bad = ~ok
    bad[0] = False
    # reach[m]: some nonempty submask of m is bad (subset-sum DP)
    reach = bad.copy()
    for i in range(n):
        bit = np.uint32(1 << i)
        has = (masks & bit) != 0
        reach |= has & reach[masks ^ bit]
    return not bool((bad & reach[full & ~masks]).any())


def max_r_robustness(g: GraphSchedule) -> int:
    """Largest r for which the graph is r-robust (0 for disconnected graphs)."""
    r = 0
    cap = int(g.degrees(0).max(initial=0)) + 1
    while r < cap and is_r_robust(g, r + 1):
        r += 1
    return r


def adversary_fractions(g: GraphSchedule, adversaries, t: int = 0) -> np.ndarray:
    """Per-node fraction of neighbors in ``adversaries`` (NaN-free; isolated -> 0).

    Diagnostic only: the trim parameter, not this fraction, drives the
    consensus step. Adversarial nodes report 0.
    """
    out = np.zeros(g.n_nodes)
    for i in range(g.n_nodes):
        if i in adversaries:
            continue
        nbrs = g.neighbors(i, t)
        if nbrs:
            out[i] = sum(1 for j in nbrs if j in adversaries) / len(nbrs)
    return out
