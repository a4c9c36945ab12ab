"""Synchronous-round orchestration of the adversary-aware actor-critic.

``run`` opens no file: it keeps the trajectory in memory, or hands each
metric row and trim event to a caller's sink the moment the run produces
it (the CLI's sink streams them into trajectory.jsonl). Each round
performs, in order: environment transition and reward observation (with
the running-reward update), action selection at the new state, the
TD/critic/advantage/actor updates, message exchange, and the trim-and-mix
consensus step. A ``Simulation`` names the adversarial agents by the keys
of its ``strategies`` and the trim parameter F by its ``trim_f``; its
graph is topology only. Regular agents follow the full update;
adversarial agents keep their own staged critic value and send whatever
their strategy fabricates.

Every step is a whole-network array pass through the op-layer rules of
``agents`` and ``consensus``, called once per block or group (the
adversary payloads once per adversary, in ascending id):

- critics: one (n, dim) array, row i for agent i;
- actors: one ``ActorParams`` stack of shape (m, S * c) per distinct
  action count c, holding the m agents with that count in ascending id
  order (not padded to a common count, which would change the softmax
  sums' bits). Selection at s_next and the actor step at s both read
  theta as it was before this round's actor step, so each block takes
  one softmax a round, over its logits at [s_next, s]. Q(s, a) is
  read once a round, for every critic, and serves both the TD error and
  the advantage;
- consensus: per graph phase, the regular agents with neighbours grouped
  by degree k, each group with an (m, k) neighbour-index matrix in
  ascending sender id, its Metropolis pair weights and a regular-sender
  mask. A round gathers the group's payloads as (m, k, dim), trims them
  (f=0 is the all-retained mask), combines, and checks the hull.

Built once per run, not per round: each actor block's slice of the
joint-action radix, each group's receivers, senders and pair weights,
and the mixing weights of every group whose trim mask cannot depend on
the payloads (f=0 keeps all, k <= 2f trims all), stored as (m, k, 1) and
(m, 1) so they do not grow with dim. Every other group builds its
weights each round with the same ``mixing_weights``. The op layer keeps
its per-round constants read-only and builds them once: each block's
action range, the row numbers of the tabular Q gathers and the keep-all
and keep-none trim masks.

Determinism contract: a run draws from ``numpy.random.default_rng(seed)``
only. Before round 0 it takes one ``random(n)`` vector for the initial
joint action; each round then takes one uniform draw for the environment
transition, one ``random(n)`` vector for action selection (entry i goes
to agent i whatever its block), and, with reward noise on, one extra
vector right after the transition. A ``random(n)`` vector is bitwise the
same as n scalar draws, so this equals one draw per agent in ascending
id. Sums over senders, the mixing weights' included, run in ascending
sender id whatever the array shape, and row-wise products use
``np.vecdot``, so every agent's values are bitwise those of a
one-agent-at-a-time loop (pinned by ``tests/reference_algorithm.py``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
from resilient_marl.consensus import (
    AgentView,
    Inbox,
    MixingWeights,
    adversary_message,
    consensus_combine,
    mixing_weights,
    trim,
)
from resilient_marl.graphs import GraphSchedule, is_r_local, metropolis_pair_weight
from resilient_marl.mdp import (
    JointPolicy,
    Mdp,
    encode_joint_action,
    global_return,
    induced_chain,
    joint_action_radix,
    sample_transition,
    stationary_distribution,
)

_HULL_TOL = 1e-9


class SimulationError(RuntimeError):
    pass


class NonFiniteParameterError(SimulationError):
    """A parameter vector stopped being finite; reports round and agent."""


class SafetyViolationError(SimulationError):
    """A consensus output escaped the convex hull of its inputs."""


@dataclass(frozen=True)
class StepSizeSchedule:
    """Constant or polynomially decaying step size.

    polynomial gives scale / (t + 1) ** exponent. A zero scale is allowed
    so one timescale can be frozen outright (e.g. a fixed policy while the
    critic runs).
    """

    kind: str
    scale: float
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("schedule scale must be nonnegative")
        if self.kind == "polynomial" and self.exponent <= 0:
            raise ValueError("polynomial schedules need a positive exponent")

    @classmethod
    def constant(cls, c: float) -> "StepSizeSchedule":
        return cls("constant", c)

    @classmethod
    def polynomial(cls, c: float, exponent: float) -> "StepSizeSchedule":
        return cls("polynomial", c, exponent)

    def at(self, t: int) -> float:
        if t < 0:
            raise ValueError("round index must be nonnegative")
        if self.kind == "constant":
            return self.scale
        return self.scale / (t + 1) ** self.exponent


@dataclass(frozen=True)
class EarlyStop:
    """Stop once disagreement and actor movement stay small long enough."""

    disagreement: float
    actor_update: float
    patience: int = 100


@dataclass
class MetricsRow:
    """One logged measurement: exact objective value plus consensus progress.

    ``t`` counts completed rounds. ``j_oracle`` is the exact long-run
    average-reward objective of the current joint policy (all agents,
    adversaries included, since they still act in the environment).
    ``avg_reward_window`` is the empirical mean of the agent-averaged
    reward since the previous row (None on the initial row).
    ``disagreement`` is the largest pairwise max-norm gap between regular
    agents' critic vectors.
    """

    t: int
    j_oracle: float
    avg_reward_window: float | None
    disagreement: float
    avg_rewards: tuple[float, ...]
    params: dict | None = None


@dataclass
class TrajectoryLog:
    """Append-only run record: metadata, metric rows, trim events.

    With no ``sink`` it keeps every row and trim event in memory. With a
    sink, each row goes to ``sink.row(row)`` and each event to
    ``sink.trim(t, agent, senders)`` as the run produces it, in round
    order (the row of t completed rounds before the events of round t);
    the log then keeps no event and only its first and latest row.
    ``final_params`` holds the end-of-run parameter snapshot.
    """

    metadata: dict
    rows: list = field(default_factory=list)
    trim_events: list = field(default_factory=list)
    final_params: dict | None = None
    sink: object = None

    def add_row(self, row: MetricsRow) -> None:
        if self.rows and row.t <= self.rows[-1].t:
            raise ValueError("metric rounds must be strictly increasing")
        if self.sink is not None:
            self.sink.row(row)
            del self.rows[1:]
        self.rows.append(row)

    def add_trim_event(self, t: int, agent: int, senders) -> None:
        if self.sink is None:
            self.trim_events.append((t, agent, tuple(senders)))
        else:
            self.sink.trim(t, agent, senders)

    @property
    def final_row(self) -> MetricsRow:
        return self.rows[-1]


@dataclass
class Simulation:
    """Fully materialized run description handed to :func:`run`.

    ``graph`` is the topology only. The keys of ``strategies`` are the
    adversarial agents, each mapped to its message strategy; every other
    agent is regular. ``trim_f`` is the trim parameter F: each regular
    agent drops the F highest and F lowest received values per coordinate.
    With ``enforce_f_local`` the run rejects an adversary set that is not
    F-local in the graph.
    """

    mdp: Mdp
    graph: GraphSchedule
    features: object
    critic_schedule: StepSizeSchedule
    actor_schedule: StepSizeSchedule
    n_rounds: int
    seed: int
    strategies: dict = field(default_factory=dict)
    log_interval: int = 100
    record_trims: bool = True
    check_regular_hull: bool = False
    snapshot_params: bool = False
    reward_noise: float = 0.0
    initial_state: int = 0
    early_stop: EarlyStop | None = None
    enforce_f_local: bool = False
    trim_f: int = 0


def tabular_features(mdp: Mdp) -> TabularJointFeatures:
    """One-hot critic features over the MDP's (state, joint action) pairs."""
    return TabularJointFeatures(mdp.n_states, mdp.n_joint_actions)


def projection_features(mdp: Mdp, dim: int, seed: int = 0) -> ProjectionJointFeatures:
    """Projection critic features for the MDP; the table is shared read-only per process."""
    return ProjectionJointFeatures(mdp.n_states, mdp.n_joint_actions, dim, seed)


@dataclass
class NetworkState:
    """Every agent's parameters, stacked for whole-network array passes.

    ``blocks`` holds one (ids, actors) pair per distinct action count: the
    ascending ids of the agents with that count and an ``ActorParams``
    stack of their weights, one row per id. ``omega`` is the (n, dim)
    critic array, ``mus`` the running-reward trackers and ``regular``
    marks the agents that are not adversarial.
    """

    blocks: list
    omega: np.ndarray
    mus: np.ndarray
    regular: np.ndarray

    @classmethod
    def zeros(cls, sim: Simulation) -> "NetworkState":
        mdp = sim.mdp
        counts = np.array(mdp.action_counts)
        blocks = []
        for c in sorted(set(mdp.action_counts)):
            ids = np.flatnonzero(counts == c)
            feats = LocalFeatures(mdp.n_states, c)
            blocks.append((ids, ActorParams(np.zeros((ids.size, feats.dim)), feats)))
        n = mdp.n_agents
        regular = np.ones(n, dtype=bool)
        regular[list(sim.strategies)] = False
        return cls(blocks, np.zeros((n, sim.features.dim)), np.zeros(n), regular)

    def per_agent(self, fn) -> list:
        """``fn(actors)`` evaluated per block and split into a list in agent order."""
        out = [None] * self.omega.shape[0]
        for ids, actors in self.blocks:
            for i, value in zip(ids, fn(actors)):
                out[i] = value
        return out

    def thetas(self) -> list[list[float]]:
        return self.per_agent(lambda actors: actors.theta.tolist())


def compute_metrics(
    state: NetworkState, mdp: Mdp, window_rewards, t: int, snapshot: bool = False
) -> MetricsRow:
    """Exact objective of the current joint policy plus consensus progress.

    The policy is assembled from every agent's actor, adversaries
    included; disagreement covers regular agents only.
    """
    tables = state.per_agent(lambda actors: actors.prob_table())
    j_oracle = global_return(mdp, JointPolicy(tuple(tables), require_positive=True))
    disagreement = _disagreement(state.omega[state.regular])
    window = float(np.mean(window_rewards)) if len(window_rewards) else None
    avg_rewards = state.mus.tolist()
    params = None
    if snapshot:
        params = {"theta": state.thetas(), "omega": state.omega.tolist(), "avg_reward": avg_rewards}
    return MetricsRow(t, j_oracle, window, disagreement, tuple(avg_rewards), params)


def _disagreement(omegas: np.ndarray) -> float:
    """Largest coordinate-wise spread of a stack of critics."""
    if len(omegas) < 2:
        return 0.0
    return float((omegas.max(axis=0) - omegas.min(axis=0)).max())


@dataclass(frozen=True)
class _ReceiverGroup:
    """Regular agents of one phase that share a degree k > 0.

    ``nbr`` (m, k) lists each receiver's senders in ascending id,
    ``pair_w`` their Metropolis weights and ``regular`` which are regular.
    ``weights`` holds the mixing weights when the trim mask cannot depend
    on the payloads (f=0 keeps all, k <= 2f trims all), else None.
    """

    ids: np.ndarray
    nbr: np.ndarray
    pair_w: np.ndarray
    regular: np.ndarray
    weights: MixingWeights | None


def _receiver_groups(g: GraphSchedule, adversaries, f: int) -> list[list[_ReceiverGroup]]:
    """Per phase, the agents not in ``adversaries`` that have neighbours, grouped by degree."""
    regular = [i for i in range(g.n_nodes) if i not in adversaries]
    phases = []
    for p in range(g.n_phases):
        deg = g.degrees(p)
        groups = []
        for k in sorted({int(deg[i]) for i in regular} - {0}):
            ids = np.array([i for i in regular if deg[i] == k])
            nbr = np.array([g.neighbors(int(i), p) for i in ids])
            pair_w = np.array([[metropolis_pair_weight(k, int(deg[j])) for j in row] for row in nbr])
            is_regular = ~np.isin(nbr, list(adversaries))
            weights = None
            if f == 0 or k <= 2 * f:
                weights = mixing_weights(pair_w, np.full(pair_w.shape + (1,), f == 0))
            groups.append(_ReceiverGroup(ids, nbr, pair_w, is_regular, weights))
        phases.append(groups)
    return phases


def _escapes_hull(own, values, keep, combined) -> np.ndarray:
    """Per receiver: does ``combined`` leave [min, max] of own and the kept values?

    ``keep`` None means every value was kept.
    """
    # a value not kept is replaced by own, which the hull holds anyway
    held = values if keep is None else np.where(keep, values, own[..., None, :])
    lo = np.minimum(np.minimum.reduce(held, axis=-2), own)
    hi = np.maximum(np.maximum.reduce(held, axis=-2), own)
    return np.logical_or.reduce((combined < lo - _HULL_TOL) | (combined > hi + _HULL_TOL), axis=-1)


def _select_actions(state: NetworkState, s: int, u: np.ndarray) -> np.ndarray:
    """Every agent's local action at s; agent i consumes draw u[i]."""
    actions = np.empty(u.size, dtype=np.int64)
    for ids, actors in state.blocks:
        actions[ids] = select_action(policy_probs(actors, s), u[ids])
    return actions


def _first_non_finite(state: NetworkState) -> int | None:
    """Lowest agent id with a non-finite critic or actor weight, or None.

    One check per array; the agent is located only when a check fails.
    """
    all_finite = np.isfinite(state.omega).all()
    for _, actors in state.blocks:
        all_finite = all_finite and np.isfinite(actors.theta).all()
    if all_finite:
        return None
    finite = np.isfinite(state.omega).all(axis=1)
    for ids, actors in state.blocks:
        finite[ids] &= np.isfinite(actors.theta).all(axis=1)
    return int(np.argmin(finite))


def run(sim: Simulation, sink=None) -> TrajectoryLog:
    """Execute the full algorithm for sim.n_rounds synchronous rounds.

    Deterministic in sim.seed. ``sink``, if given, receives the log's rows
    and trim events while the run runs (see ``TrajectoryLog``). Raises
    ValueError before round 0 on a description it cannot run (a graph
    that does not match the MDP, a strategy id outside [0, n), a negative
    trim_f, ...), NonFiniteParameterError the moment any parameter stops
    being finite and SafetyViolationError if a consensus output leaves its
    inputs' convex hull.
    """
    mdp, g, f = sim.mdp, sim.graph, sim.trim_f
    n = mdp.n_agents
    if g.n_nodes != n:
        raise ValueError(f"graph has {g.n_nodes} nodes but the MDP has {n} agents")
    if not set(sim.strategies) <= set(range(n)):
        raise ValueError(f"strategy ids must lie in [0, {n})")
    if f < 0:
        raise ValueError("trim_f must be nonnegative")
    if sim.n_rounds < 0:
        raise ValueError("n_rounds must be nonnegative")
    if not (0 <= sim.initial_state < mdp.n_states):
        raise ValueError("initial state out of range")
    if not 0.0 <= sim.critic_schedule.at(0) <= 1.0:
        raise ValueError("critic step size must start within [0, 1]")
    adversaries = sorted(sim.strategies)
    if sim.enforce_f_local and not is_r_local(g, adversaries, f):
        raise ValueError("declared adversary set is not F-local for the configured trim")
    # ergodicity precheck; raises NonErgodicChainError on a bad model
    stationary_distribution(induced_chain(mdp, JointPolicy.uniform(mdp)))

    state = NetworkState.zeros(sim)
    counts = mdp.action_counts
    block_radix = [joint_action_radix(counts)[ids] for ids, _ in state.blocks]
    feats = sim.features
    dim = feats.dim
    phase_groups = _receiver_groups(g, adversaries, f)

    rng = np.random.default_rng(np.random.SeedSequence(sim.seed))
    log = TrajectoryLog(
        metadata={
            "seed": sim.seed,
            "rounds_requested": sim.n_rounds,
            "rounds_executed": 0,
            "trim_f": f,
            "adversaries": adversaries,
        },
        sink=sink,
    )

    s = sim.initial_state
    a_locals = _select_actions(state, s, rng.random(n))
    a = encode_joint_action(a_locals.tolist(), counts)
    log.add_row(compute_metrics(state, mdp, [], 0, sim.snapshot_params))

    window: list[float] = []
    calm_rounds = 0
    executed = 0
    for t in range(sim.n_rounds):
        beta_w = sim.critic_schedule.at(t)
        beta_t = sim.actor_schedule.at(t)

        # environment transition; the reward pays off the previous (s, a)
        s_next = sample_transition(mdp, s, a, rng)
        r = mdp.sample_rewards(s, a, rng, sim.reward_noise)
        mus_prev = state.mus
        state.mus = avg_reward_update(mus_prev, beta_w, r)

        # action selection at s_next and the actor updates at s (every
        # agent, adversaries included) both read theta before this round's
        # actor step, so one softmax per block serves both
        u = rng.random(n)
        a_next_locals = np.empty(n, dtype=np.int64)
        omega = state.omega
        q_sa = feats.q(omega, s, a)
        max_actor_move = 0.0
        for (ids, actors), radix in zip(state.blocks, block_radix):
            probs = policy_probs(actors, [s_next, s])
            a_next_locals[ids] = select_action(probs[:, 0], u[ids])
            adv = advantage(omega[ids], actors, feats, radix, s, a, q_sa[ids], probs[:, 1])
            psi = score(actors, s, a_locals[ids], probs[:, 1])
            new_theta = actor_step(actors.theta, beta_t, adv, psi)
            if sim.early_stop is not None:
                max_actor_move = max(max_actor_move, float(np.abs(new_theta - actors.theta).max()))
            actors.theta = new_theta
        a_next = encode_joint_action(a_next_locals.tolist(), counts)

        # local critic updates
        delta = td_error(r, mus_prev, feats.q(omega, s_next, a_next), q_sa)
        staged = critic_local_step(omega, beta_w, delta, feats.vector(s, a))

        # message exchange over the round-t edges
        payloads = staged
        if adversaries:
            payloads = staged.copy()
            for i in adversaries:
                payloads[i] = adversary_message(sim.strategies[i], AgentView(i, staged[i]), t, dim)

        # trim-and-mix for regular agents; adversaries and isolated agents
        # keep their staged value
        new_omega = staged.copy()
        violations = []
        events = []
        for grp in phase_groups[t % g.n_phases]:
            own = staged[grp.ids]
            values = payloads[grp.nbr]
            trimmed = trim(own, Inbox(grp.nbr, values), f)
            weights = grp.weights
            if weights is None:
                weights = mixing_weights(grp.pair_w, trimmed.mask)
            combined = consensus_combine(own, trimmed, weights)
            escaped = _escapes_hull(own, values, None if f == 0 else trimmed.mask, combined)
            violations += [(int(i), 0) for i in grp.ids[escaped]]
            if sim.check_regular_hull:
                strayed = _escapes_hull(own, values, grp.regular[..., None], combined)
                violations += [(int(i), 1) for i in grp.ids[strayed]]
            if sim.record_trims:
                dropped = trimmed.fully_trimmed_senders()
                events += [(int(i), senders) for i, senders in zip(grp.ids, dropped) if senders]
            new_omega[grp.ids] = combined
        if violations:
            agent, kind = min(violations)
            if kind == 0:
                raise SafetyViolationError(
                    f"round {t}: agent {agent} escaped the convex hull of its retained values"
                )
            raise SafetyViolationError(f"round {t}: agent {agent} left the span of regular values")
        for agent, senders in sorted(events):
            log.add_trim_event(t, agent, senders)
        state.omega = new_omega

        agent = _first_non_finite(state)
        if agent is not None:
            raise NonFiniteParameterError(f"round {t}: agent {agent} has non-finite parameters")
        if not np.isfinite(state.mus).all():
            raise NonFiniteParameterError(f"round {t}: non-finite running reward")

        window.append(float(np.add.reduce(r)) / n)  # bitwise np.mean
        s, a, a_locals = s_next, a_next, a_next_locals
        executed = t + 1

        should_log = executed % sim.log_interval == 0 or t == sim.n_rounds - 1
        stop = False
        if sim.early_stop is not None:
            calm = (
                _disagreement(new_omega[state.regular]) < sim.early_stop.disagreement
                and max_actor_move < sim.early_stop.actor_update
            )
            calm_rounds = calm_rounds + 1 if calm else 0
            stop = calm_rounds >= sim.early_stop.patience
        if should_log or stop:
            log.add_row(compute_metrics(state, mdp, window, executed, sim.snapshot_params))
            window = []
        if stop:
            break

    log.metadata["rounds_executed"] = executed
    thetas = state.thetas()
    log.final_params = {
        "t": executed,
        "agents": [
            {
                "id": i,
                "role": "regular" if state.regular[i] else "adversarial",
                "theta": thetas[i],
                "omega": state.omega[i].tolist(),
                "avg_reward": float(state.mus[i]),
            }
            for i in range(n)
        ],
    }
    return log
