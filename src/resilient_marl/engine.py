"""Synchronous-round orchestration of the adversary-aware actor-critic.

Each round performs, in order: environment transition and reward
observation (with the running-reward update), action selection at the new
state, the per-agent TD/critic/advantage/actor updates, message exchange,
and the trim-and-mix consensus step. Regular agents follow the full
update; adversarial agents keep their own staged critic value and send
whatever their strategy fabricates.

Determinism contract: a run consumes exactly one uniform draw for the
environment transition and one per agent (ascending id) for action
selection each round, all from ``numpy.random.default_rng(seed)``; the
initial joint action consumes one draw per agent before round 0. Optional
reward noise consumes one extra vector draw right after the transition.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from resilient_marl.agents import (
    ActorParams,
    AgentState,
    ProjectionJointFeatures,
    TabularJointFeatures,
    actor_step,
    critic_local_step,
    policy_probs,
    select_action,
    td_error,
)
from resilient_marl.consensus import ParameterMessage, adversary_message, consensus_combine, trim
from resilient_marl.graphs import GraphSchedule, is_r_local, metropolis_pair_weight
from resilient_marl.mdp import (
    JointPolicy,
    Mdp,
    decode_joint_action,
    encode_joint_action,
    global_return,
    induced_chain,
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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "exponent": self.exponent}


def step_size(schedule: StepSizeSchedule, t: int) -> float:
    """Step size at round t under the given schedule."""
    return schedule.at(t)


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

    def to_record(self) -> dict:
        rec = {
            "kind": "metrics",
            "t": self.t,
            "j_oracle": self.j_oracle,
            "avg_reward_window": self.avg_reward_window,
            "disagreement": self.disagreement,
            "avg_rewards": list(self.avg_rewards),
        }
        if self.params is not None:
            rec["params"] = self.params
        return rec


@dataclass
class TrajectoryLog:
    """Append-only run record: metadata, metric rows, trim events.

    ``final_params`` holds the end-of-run parameter snapshot; it is kept
    out of the serialized stream so the jsonl stays row-oriented.
    """

    metadata: dict
    rows: list = field(default_factory=list)
    trim_events: list = field(default_factory=list)
    final_params: dict | None = None

    def add_row(self, row: MetricsRow) -> None:
        if self.rows and row.t <= self.rows[-1].t:
            raise ValueError("metric rounds must be strictly increasing")
        self.rows.append(row)

    def add_trim_event(self, t: int, agent: int, senders) -> None:
        self.trim_events.append((t, agent, tuple(senders)))

    def iter_records(self):
        yield {"kind": "meta", **self.metadata}
        events = [
            {"kind": "trim", "t": t, "agent": agent, "trimmed": list(senders)}
            for t, agent, senders in self.trim_events
        ]
        merged = [r.to_record() for r in self.rows] + events
        merged.sort(key=lambda rec: (rec["t"], rec["kind"] != "metrics"))
        yield from merged

    def to_json_lines(self) -> list[str]:
        return [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in self.iter_records()]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_json_lines():
                fh.write(line + "\n")

    @property
    def final_row(self) -> MetricsRow:
        return self.rows[-1]


@dataclass
class Simulation:
    """Fully materialized run description handed to :func:`run`.

    ``strategies`` maps adversarial agent ids to their message strategies
    and must agree with the graph's adversary set.
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


def tabular_features(mdp: Mdp) -> TabularJointFeatures:
    return TabularJointFeatures(mdp.n_states, mdp.n_joint_actions)


def projection_features(mdp: Mdp, dim: int, seed: int = 0) -> ProjectionJointFeatures:
    return ProjectionJointFeatures(mdp.n_states, mdp.n_joint_actions, dim, seed)


def _initial_agents(sim: Simulation) -> list[AgentState]:
    mdp = sim.mdp
    dim = sim.features.dim
    agents = []
    for i in range(mdp.n_agents):
        actor = ActorParams.zeros(mdp.n_states, mdp.action_counts[i])
        agents.append(
            AgentState(i, actor, np.zeros(dim), np.zeros(dim), 0.0, sim.strategies.get(i))
        )
    return agents


def compute_metrics(agents, mdp: Mdp, window_rewards, t: int, snapshot: bool = False) -> MetricsRow:
    """Exact objective of the current joint policy plus consensus progress.

    The policy is assembled from every agent's actor, adversaries
    included; disagreement covers regular agents only.
    """
    policy = JointPolicy(tuple(ag.actor.prob_table() for ag in agents), require_positive=True)
    j_oracle = global_return(mdp, policy)
    disagreement = _disagreement(agents)
    window = float(np.mean(window_rewards)) if len(window_rewards) else None
    params = None
    if snapshot:
        params = {
            "theta": [ag.actor.theta.tolist() for ag in agents],
            "omega": [ag.omega.tolist() for ag in agents],
            "avg_reward": [float(ag.avg_reward) for ag in agents],
        }
    return MetricsRow(
        t, j_oracle, window, disagreement, tuple(float(ag.avg_reward) for ag in agents), params
    )


def _disagreement(agents) -> float:
    """Largest coordinate-wise spread of the critics over regular agents."""
    regular = [ag.omega for ag in agents if ag.is_regular]
    if len(regular) < 2:
        return 0.0
    stack = np.stack(regular)
    return float((stack.max(axis=0) - stack.min(axis=0)).max())


def _config_hash(doc) -> str | None:
    if doc is None:
        return None
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _hull_check(own, trimmed, combined, t, agent):
    lo = np.where(trimmed.mask, trimmed.values, np.inf).min(axis=0, initial=np.inf)
    hi = np.where(trimmed.mask, trimmed.values, -np.inf).max(axis=0, initial=-np.inf)
    lo = np.minimum(lo, own)
    hi = np.maximum(hi, own)
    if ((combined < lo - _HULL_TOL) | (combined > hi + _HULL_TOL)).any():
        raise SafetyViolationError(
            f"round {t}: agent {agent} escaped the convex hull of its retained values"
        )


def _substitution_tables(counts):
    """Joint indices reachable by swapping one agent's slot of a joint action.

    subs[i][a, b] is the joint index of action a with agent i's local
    action replaced by b; used to vectorize the advantage baseline.
    """
    n_joint = int(np.prod(counts))
    subs = []
    for i, n_own in enumerate(counts):
        table = np.empty((n_joint, n_own), dtype=np.int64)
        for a in range(n_joint):
            locals_ = decode_joint_action(a, counts)
            for b in range(n_own):
                locals_[i] = b
                table[a, b] = encode_joint_action(locals_, counts)
        subs.append(table)
    return subs


def run(sim: Simulation, config_doc: dict | None = None) -> TrajectoryLog:
    """Execute the full algorithm for sim.n_rounds synchronous rounds.

    Deterministic in sim.seed. Raises NonFiniteParameterError the moment
    any parameter stops being finite and SafetyViolationError if a
    consensus output leaves its inputs' convex hull.
    """
    mdp, g = sim.mdp, sim.graph
    n = mdp.n_agents
    if g.n_nodes != n:
        raise ValueError(f"graph has {g.n_nodes} nodes but the MDP has {n} agents")
    if set(sim.strategies) != set(g.adversary_set):
        raise ValueError("strategy map must cover exactly the graph's adversary set")
    if sim.n_rounds < 0:
        raise ValueError("n_rounds must be nonnegative")
    if not (0 <= sim.initial_state < mdp.n_states):
        raise ValueError("initial state out of range")
    if not 0.0 <= sim.critic_schedule.at(0) <= 1.0:
        raise ValueError("critic step size must start within [0, 1]")
    if sim.enforce_f_local and not is_r_local(g, g.adversary_set, g.trim_f):
        raise ValueError("declared adversary set is not F-local for the configured trim")
    # ergodicity precheck; raises NonErgodicChainError on a bad model
    stationary_distribution(induced_chain(mdp, JointPolicy.uniform(mdp)))

    agents = _initial_agents(sim)
    counts = mdp.action_counts
    feats = sim.features
    f = g.trim_f
    dim = feats.dim
    n_joint = mdp.n_joint_actions
    tabular = isinstance(feats, TabularJointFeatures)
    subs = _substitution_tables(counts)

    # per-phase topology tables: neighbors, degrees, pairwise weights, and
    # the untrimmed self-weight (accumulated in ascending-neighbor order so
    # the no-trim fast path reproduces the general combine exactly)
    phase_tables = []
    for p in range(g.n_phases):
        deg = g.degrees(p)
        nbrs = [g.neighbors(i, p) for i in range(n)]
        pair_w = [
            np.array([metropolis_pair_weight(int(deg[i]), int(deg[j])) for j in nbrs[i]])
            for i in range(n)
        ]
        self_w = []
        for i in range(n):
            acc = 0.0
            for w in pair_w[i]:
                acc = acc + float(w)
            self_w.append(1.0 - acc)
        phase_tables.append((nbrs, deg, pair_w, self_w))

    rng = np.random.default_rng(np.random.SeedSequence(sim.seed))
    log = TrajectoryLog(
        metadata={
            "seed": sim.seed,
            "rounds_requested": sim.n_rounds,
            "rounds_executed": 0,
            "trim_f": f,
            "adversaries": sorted(g.adversary_set),
            "config": config_doc,
            "config_sha256": _config_hash(config_doc),
            "format_version": 1,
        }
    )

    mus = np.zeros(n)
    s = sim.initial_state
    a_locals = [select_action(agents[i].actor, s, rng) for i in range(n)]
    a = encode_joint_action(a_locals, counts)
    log.add_row(compute_metrics(agents, mdp, [], 0, sim.snapshot_params))

    window: list[float] = []
    calm_rounds = 0
    executed = 0
    for t in range(sim.n_rounds):
        beta_w = sim.critic_schedule.at(t)
        beta_t = sim.actor_schedule.at(t)

        # environment transition; the reward pays off the previous (s, a)
        s_next = sample_transition(mdp, s, a, rng)
        if sim.reward_noise > 0.0:
            r = mdp.sample_rewards(s, a, rng, sim.reward_noise)
        else:
            r = mdp.rewards_at(s, a)
        mus_prev = mus
        mus = (1.0 - beta_w) * mus + beta_w * r

        a_next_locals = [select_action(agents[i].actor, s_next, rng) for i in range(n)]
        a_next = encode_joint_action(a_next_locals, counts)

        # local critic and actor updates (every agent, adversaries included).
        # Tabular critics take coordinate-lookup shortcuts that compute the
        # same values as the op-layer formulas (enforced bitwise by the
        # straight-line reference test).
        grad = feats.vector(s, a)
        max_actor_move = 0.0
        q_base = s * n_joint
        for i in range(n):
            ag = agents[i]
            om = ag.omega
            if tabular:
                q_curr = float(om[q_base + a])
                q_next = float(om[s_next * n_joint + a_next])
                qs = om[q_base + subs[i][a]]
            else:
                q_curr = feats.q(om, s, a)
                q_next = feats.q(om, s_next, a_next)
                qs = np.array([feats.q(om, s, int(x)) for x in subs[i][a]])
            delta = td_error(float(r[i]), float(mus_prev[i]), q_next, q_curr)
            ag.omega_staged = critic_local_step(om, beta_w, delta, grad)
            probs = policy_probs(ag.actor, s)
            adv = float(qs[a_locals[i]] - np.dot(probs, qs))
            n_acts = counts[i]
            psi = np.zeros(n_acts * mdp.n_states)
            blk = s * n_acts
            psi[blk : blk + n_acts] = -probs
            psi[blk + a_locals[i]] += 1.0
            new_theta = actor_step(ag.actor.theta, beta_t, adv, psi)
            if sim.early_stop is not None:
                max_actor_move = max(max_actor_move, float(np.abs(new_theta - ag.actor.theta).max()))
            ag.actor.theta = new_theta

        # message exchange over the round-t edges
        nbrs, deg, pair_w, self_w = phase_tables[t % g.n_phases]
        payloads = [
            ag.omega_staged if ag.is_regular else adversary_message(ag.strategy, ag, t, dim)
            for ag in agents
        ]

        # trim-and-mix for regular agents; adversaries keep their own value
        new_omegas = [None] * n
        for i in range(n):
            ag = agents[i]
            own = ag.omega_staged
            if not ag.is_regular:
                new_omegas[i] = own
                continue
            if not nbrs[i]:
                new_omegas[i] = own
                continue
            if f == 0:
                # everything is retained: one plain Metropolis-weighted round
                values = np.stack([payloads[j] for j in nbrs[i]])
                combined = self_w[i] * own + (pair_w[i][:, None] * values).sum(axis=0)
                lo = np.minimum(values.min(axis=0), own)
                hi = np.maximum(values.max(axis=0), own)
                if ((combined < lo - _HULL_TOL) | (combined > hi + _HULL_TOL)).any():
                    raise SafetyViolationError(
                        f"round {t}: agent {i} escaped the convex hull of its retained values"
                    )
            else:
                msgs = [ParameterMessage(j, payloads[j], int(deg[j])) for j in nbrs[i]]
                trimmed = trim(own, msgs, f)
                combined = consensus_combine(own, trimmed, pair_w[i])
                _hull_check(own, trimmed, combined, t, i)
                if sim.record_trims:
                    dropped = trimmed.fully_trimmed_senders()
                    if dropped:
                        log.add_trim_event(t, i, dropped)
            if sim.check_regular_hull:
                reg_vals = [own] + [payloads[j] for j in nbrs[i] if agents[j].is_regular]
                stack = np.stack(reg_vals)
                lo, hi = stack.min(axis=0), stack.max(axis=0)
                if ((combined < lo - _HULL_TOL) | (combined > hi + _HULL_TOL)).any():
                    raise SafetyViolationError(
                        f"round {t}: agent {i} left the span of regular values"
                    )
            new_omegas[i] = combined
        for i in range(n):
            agents[i].omega = new_omegas[i]
            agents[i].avg_reward = float(mus[i])

        for i in range(n):
            if not (
                np.isfinite(agents[i].omega).all() and np.isfinite(agents[i].actor.theta).all()
            ):
                raise NonFiniteParameterError(f"round {t}: agent {i} has non-finite parameters")
        if not np.isfinite(mus).all():
            raise NonFiniteParameterError(f"round {t}: non-finite running reward")

        window.append(float(r.mean()))
        s, a, a_locals = s_next, a_next, a_next_locals
        executed = t + 1

        should_log = executed % sim.log_interval == 0 or t == sim.n_rounds - 1
        stop = False
        if sim.early_stop is not None:
            calm = (
                _disagreement(agents) < sim.early_stop.disagreement
                and max_actor_move < sim.early_stop.actor_update
            )
            calm_rounds = calm_rounds + 1 if calm else 0
            stop = calm_rounds >= sim.early_stop.patience
        if should_log or stop:
            log.add_row(compute_metrics(agents, mdp, window, executed, sim.snapshot_params))
            window = []
        if stop:
            break

    log.metadata["rounds_executed"] = executed
    log.final_params = {
        "t": executed,
        "agents": [
            {
                "id": ag.agent_id,
                "role": "regular" if ag.is_regular else "adversarial",
                "theta": ag.actor.theta.tolist(),
                "omega": ag.omega.tolist(),
                "avg_reward": float(ag.avg_reward),
            }
            for ag in agents
        ],
    }
    return log

