"""Declarative experiment configs: parsing, validation, materialization.

Configs are YAML or JSON mappings (YAML is a superset, so one parser
covers both). Each section of the document is one table of fields, and
for the config's own specs that table is the dataclass itself: every
attribute carries its type, default, bounds and the ``kind``,
``topology`` or ``strategy`` it applies to. One routine parses every
table and one writes it back, so the echoed document resolves every
default and fully describes the run. Errors carry the dotted field path.

The format is strict: a field applies only to its kind, topology or
strategy, and anywhere else it is an unknown field, so every value a
document gives is one the run reads.
"""
from __future__ import annotations

import dataclasses
import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import yaml

from resilient_marl.consensus import STRATEGY_NAMES
from resilient_marl.engine import (
    EarlyStop,
    Simulation,
    StepSizeSchedule,
    projection_features,
    tabular_features,
)
from resilient_marl.graphs import GraphSchedule, is_r_local, place_adversaries
from resilient_marl.mdp import Mdp, generate_random_mdp


class ConfigError(ValueError):
    """Invalid config document; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # pickling rebuilds from args, which hold one string; a sweep worker sends both fields
        return type(self), (self.path, self.message)


_TOP = "<config>"


def _check_keys(doc, allowed, path):
    unknown = set(doc) - set(allowed)
    if unknown:
        try:
            unknown = sorted(unknown)
        except TypeError:  # keys of mixed types, such as 1 and "a"
            unknown = sorted(unknown, key=repr)
        raise ConfigError(path, f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


def _as_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(path, f"must be finite, got {value!r}") from None


def _real(value, path, finite=False):
    """``value`` as given, once it is a number other than NaN (or ±inf if ``finite``)."""
    x = _as_number(value, path)
    if x != x:
        raise ConfigError(path, f"expected a number, got {value!r}")
    if finite and math.isinf(x):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return value


# -- composite values: (value, path) -> parsed value -----------------------


def _actions(value, path):
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(a, f"{path}[{k}]", minimum=2) for k, a in enumerate(value))
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, "expected an int or a list of ints")
    return (_as_int(value, path, minimum=2),)


def _reward_range(value, path):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(path, "expected [low, high]")
    lo, hi = (_as_number(x, f"{path}[{k}]") for k, x in enumerate(value))
    if hi < lo:
        raise ConfigError(path, "low must not exceed high")
    return tuple(_real(x, f"{path}[{k}]", finite=True) for k, x in enumerate((lo, hi)))


def _edges(value, path):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of [u, v] pairs")
    edges = []
    for k, e in enumerate(value):
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ConfigError(f"{path}[{k}]", "expected a pair [u, v]")
        edges.append((_as_int(e[0], f"{path}[{k}][0]", minimum=0), _as_int(e[1], f"{path}[{k}][1]", minimum=0)))
    return tuple(edges)


def _phases(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(path, "expected a nonempty list of edge lists")
    return tuple(_edges(phase, f"{path}[{k}]") for k, phase in enumerate(value))


def _ids(value, path):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of node ids")
    ids = tuple(sorted(_as_int(i, f"{path}[{k}]", minimum=0) for k, i in enumerate(value)))
    if len(set(ids)) != len(ids):
        raise ConfigError(path, "duplicate ids")
    return ids


def _payload(value, path):
    """A broadcast value: one number or one per coordinate; ±inf is a valid attack."""
    if isinstance(value, (list, tuple)):
        return tuple(_real(x, f"{path}[{k}]") for k, x in enumerate(value))
    return _real(value, path)


# -- the schema -------------------------------------------------------------

_REQUIRED = object()  # the field must be given
_OMIT = object()  # an absent field is left out of the spec and of the echo


class Field(NamedTuple):
    """How to read one field.

    ``type`` is int, float, bool, str, a tuple of allowed values, a Section,
    or a parse function ``(value, path) -> value``. ``default`` stands in
    for an absent or null field; ``{}`` gives a section all its defaults.
    ``minimum`` bounds an int, ``reject`` is a ``(test, message)`` pair for
    a float, which is never NaN and with ``finite`` never ±inf. ``when``
    lists the discriminator values the field applies to; empty means all.
    """

    name: str
    type: object
    default: object = _REQUIRED
    minimum: int | None = None
    reject: tuple | None = None
    finite: bool = False
    when: tuple = ()

    def applies(self, kind) -> bool:
        return not self.when or kind in self.when


class Section(NamedTuple):
    """A mapping's fields and the spec built from them.

    ``by`` names the discriminator that ``Field.when`` refers to; a section
    without that field takes it from the enclosing one. A field that does
    not apply to the discriminator's value is an unknown field.
    """

    fields: tuple[Field, ...]
    make: Callable
    by: str | None = None


def _rule(type, default=_REQUIRED, **limits):
    """A spec attribute that carries its Field.

    The attribute defaults to ``default``, or to None where the field may be
    absent or is required for some kinds only. A field always required, or a
    section read from ``{}``, gives the attribute no default.
    """
    if default is _OMIT or (default is _REQUIRED and limits.get("when")):
        unset = None
    elif default is _REQUIRED or isinstance(default, dict):
        unset = dataclasses.MISSING
    else:
        unset = default
    return dataclasses.field(default=unset, metadata={"rule": Field("", type, default, **limits)})


def _section(spec, make=None, by=None) -> Section:
    """The Section whose fields are the attributes of the dataclass ``spec``."""
    fields = tuple(f.metadata["rule"]._replace(name=f.name) for f in dataclasses.fields(spec))
    return Section(fields, make or spec, by)


def _parse(section: Section, doc, path: str, kind=None):
    """Check ``doc`` against ``section``'s fields and build its spec.

    The first fault met is reported: not a mapping, the section's own
    discriminator, keys that do not apply to it, then each field in
    declaration order.
    """
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected a mapping, got {type(doc).__name__}")
    values = {}
    for f in section.fields:
        if f.name == section.by:
            kind = values[f.name] = _field(f, doc, path, values)
    fields = [f for f in section.fields if f.applies(kind)]
    _check_keys(doc, [f.name for f in fields], path)
    for f in fields:
        if f.name not in values and (value := _field(f, doc, path, values)) is not _OMIT:
            values[f.name] = value
    return section.make(**values)


def _field(f: Field, doc: dict, path: str, outer: dict):
    """The field's parsed value, its default, or _OMIT."""
    value = doc.get(f.name)
    if value is None:
        if f.default is _REQUIRED:
            raise ConfigError(path, f"missing required field '{f.name}'")
        if not isinstance(f.default, dict):  # a section's {} is parsed for its defaults
            return f.default
        value = f.default
    return _value(f, value, f.name if path == _TOP else f"{path}.{f.name}", outer)


def _value(f: Field, value, path: str, outer: dict):
    t = f.type
    if t is int:
        return _as_int(value, path, f.minimum)
    if t is bool or t is str:
        if not isinstance(value, t):
            raise ConfigError(path, f"expected {'true/false' if t is bool else 'a string'}, got {value!r}")
        return value
    if t is float:
        x = _as_number(value, path)
        if f.reject and f.reject[0](x):
            raise ConfigError(path, f.reject[1])
        return _real(x, path, f.finite)
    if isinstance(t, Section):
        return _parse(t, value, path, outer.get(t.by))
    if isinstance(t, tuple):
        if value not in t:
            raise ConfigError(path, f"unknown {f.name} {value!r}; valid: {list(t)}")
        return value
    return t(value, path)


def _echo(section: Section, spec, kind=None) -> dict:
    """The document that parses back to ``spec``."""
    values = dict(spec) if isinstance(spec, tuple) else vars(spec)
    kind = values.get(section.by, kind)
    doc = {}
    for f in section.fields:
        value = values.get(f.name)
        if not f.applies(kind) or (value is None and f.default is _OMIT):
            continue
        if isinstance(f.type, Section) and value is not None:
            value = _echo(f.type, value, values.get(f.type.by))
        doc[f.name] = _plain(value)
    return doc


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


# -- the sections -------------------------------------------------------------


def _schedule(exponent: float) -> Section:
    """A step-size schedule whose exponent defaults to ``exponent``."""
    return Section(
        (
            Field("kind", ("constant", "polynomial"), "polynomial"),
            Field("scale", float, 1.0, reject=(lambda x: x < 0, "must be nonnegative")),
            Field("exponent", float, exponent, when=("polynomial",),
                  reject=(lambda x: x <= 0, "polynomial schedules need a positive exponent")),
        ),
        StepSizeSchedule, by="kind",
    )


_EARLY_STOP = Section(
    (Field("disagreement", float), Field("actor_update", float), Field("patience", int, 100, minimum=1)),
    EarlyStop,
)


_PARAMS = Section(
    (
        Field("value", _payload, when=("constant",)),
        Field("start", _payload, when=("drift",)),
        Field("rate", partial(_real, finite=True), when=("drift",)),
        Field("scale", partial(_real, finite=True), when=("noise",)),
        Field("seed", int, _OMIT, minimum=0, when=("noise",)),
    ),
    lambda **params: tuple(sorted(params.items())),
    by="strategy",
)

_GRAPHS = {
    "ring": lambda n, spec: GraphSchedule.ring(n),
    "star": lambda n, spec: GraphSchedule.star(n),
    "complete": lambda n, spec: GraphSchedule.complete(n),
    "erdos_renyi": lambda n, spec: GraphSchedule.erdos_renyi(n, spec.p, spec.seed),
    "edges": lambda n, spec: GraphSchedule.periodic(n, spec.phases or (spec.edges,)),
}


@dataclass(frozen=True, kw_only=True)
class MdpSpec:
    """The environment: a random MDP drawn from a seed, or one loaded from a file."""

    kind: str = _rule(("random", "file"), "random")
    n_states: int | None = _rule(int, minimum=2, when=("random",))
    actions_per_agent: tuple[int, ...] | None = _rule(_actions, when=("random",))
    reward_range: tuple[float, float] = _rule(_reward_range, (0.0, 4.0), when=("random",))
    seed: int | None = _rule(int, None, minimum=0, when=("random",))
    path: str | None = _rule(str, when=("file",))


@dataclass(frozen=True, kw_only=True)
class GraphSpec:
    """The communication graph: a named topology, an edge list, or a periodic schedule of edge lists."""

    topology: str = _rule(tuple(_GRAPHS))
    p: float | None = _rule(float, when=("erdos_renyi",),
                           reject=(lambda x: not 0.0 <= x <= 1.0, "edge probability must lie in [0, 1]"))
    seed: int = _rule(int, 0, minimum=0, when=("erdos_renyi",))
    phases: tuple | None = _rule(_phases, _OMIT, when=("edges",))
    edges: tuple | None = _rule(_edges, _OMIT, when=("edges",))
    require_connected: bool = _rule(bool, True)


@dataclass(frozen=True, kw_only=True)
class AdversarySpec:
    """Which agents are adversarial (given ids or a random count) and the strategy they run."""

    strategy: str = _rule(tuple(sorted(STRATEGY_NAMES)))
    params: tuple = _rule(_PARAMS, {})
    ids: tuple[int, ...] | None = _rule(_ids, _OMIT)
    count: int | None = _rule(int, _OMIT, minimum=0)
    enforce_f_local: bool = _rule(bool, True)

    def params_dict(self):
        return dict(self.params)


@dataclass(frozen=True, kw_only=True)
class FeatureSpec:
    """The critic's features: tabular (one-hot), or a seeded random projection to ``dim``."""

    kind: str = _rule(("tabular", "projection"), "tabular")
    dim: int | None = _rule(int, minimum=1, when=("projection",))
    seed: int = _rule(int, 0, minimum=0, when=("projection",))


def _graph_spec(edges=None, phases=None, **values):
    if values["topology"] == "edges" and (edges is None) == (phases is None):
        raise ConfigError("graph", "give exactly one of 'edges' or 'phases'")
    return GraphSpec(edges=edges, phases=phases, **values)


def _adversary_spec(ids=None, count=None, **values):
    if (ids is None) == (count is None):
        raise ConfigError("adversaries", "give exactly one of 'ids' or 'count'")
    return AdversarySpec(ids=ids, count=count, **values)


_MDP = _section(MdpSpec, by="kind")
_GRAPH = _section(GraphSpec, _graph_spec, by="topology")
_ADVERSARIES = _section(AdversarySpec, _adversary_spec)
_FEATURES = _section(FeatureSpec, by="kind")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully resolved run description; every default is made explicit.

    Fields are read, and faults reported, in the order declared here.
    """

    n_agents: int = _rule(int, minimum=1)
    rounds: int = _rule(int, minimum=0)
    seed: int = _rule(int, 0, minimum=0)
    mdp: MdpSpec = _rule(_MDP)
    graph: GraphSpec = _rule(_GRAPH)
    trim_f: int = _rule(int, 0, minimum=0)
    features: FeatureSpec = _rule(_FEATURES, {})
    critic_step: StepSizeSchedule = _rule(_schedule(0.65), {})
    actor_step: StepSizeSchedule = _rule(_schedule(0.85), {})
    adversaries: AdversarySpec | None = _rule(_ADVERSARIES, None)
    log_interval: int = _rule(int, 100, minimum=1)
    reward_noise: float = _rule(float, 0.0, finite=True, reject=(lambda x: x < 0, "must be nonnegative"))
    record_trims: bool = _rule(bool, True)
    check_regular_hull: bool = _rule(bool, False)
    snapshot_params: bool = _rule(bool, False)
    initial_state: int = _rule(int, 0, minimum=0)
    early_stop: EarlyStop | None = _rule(_EARLY_STOP, None)
    out: str | None = _rule(str, None)

    def to_dict(self) -> dict:
        return _echo(_CONFIG, self)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


_CONFIG = _section(ExperimentConfig)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a raw mapping and resolve every default."""
    cfg = _parse(_CONFIG, doc, _TOP)
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig):
    if cfg.mdp.kind == "random":
        n_acts = cfg.mdp.actions_per_agent
        if len(n_acts) not in (1, cfg.n_agents):
            raise ConfigError(
                "mdp.actions_per_agent",
                f"got {len(n_acts)} entries for {cfg.n_agents} agents",
            )
        # every agent has 2 or more actions, so 13 of them already pass the cap
        n_joint = math.prod(n_acts) if len(n_acts) > 1 else n_acts[0] ** min(cfg.n_agents, 13)
        if n_joint > 4096:
            raise ConfigError("mdp.actions_per_agent", "joint action space exceeds the cap of 4096")
    if cfg.adversaries is not None and cfg.adversaries.ids is not None:
        bad = [i for i in cfg.adversaries.ids if i >= cfg.n_agents]
        if bad:
            raise ConfigError("adversaries.ids", f"ids {bad} exceed n_agents - 1")
        if len(cfg.adversaries.ids) >= cfg.n_agents:
            raise ConfigError("adversaries.ids", "at least one agent must stay regular")
    if cfg.adversaries is not None and cfg.adversaries.count is not None:
        if cfg.adversaries.count >= cfg.n_agents:
            raise ConfigError("adversaries.count", "at least one agent must stay regular")
    if cfg.critic_step.at(0) > 1.0:
        raise ConfigError("critic_step.scale", "critic step must start within [0, 1]")
    if cfg.mdp.kind == "random":
        _check_sizes(cfg, cfg.mdp.n_states, n_joint)


def _check_sizes(cfg: ExperimentConfig, n_states: int, n_joint: int):
    """Bounds set by the MDP's size: known while parsing a random MDP, once loaded for a file."""
    full = n_states * n_joint
    if cfg.features.kind == "projection" and cfg.features.dim > full:
        raise ConfigError("features.dim", f"projection dim exceeds the tabular size {full}")
    if cfg.initial_state >= n_states:
        raise ConfigError("initial_state", f"must be < {n_states}, the number of states, got {cfg.initial_state}")
    dim = cfg.features.dim if cfg.features.kind == "projection" else full
    for name, value in cfg.adversaries.params if cfg.adversaries else ():
        if isinstance(value, tuple) and len(value) not in (1, dim):
            raise ConfigError(f"adversaries.params.{name}", f"got {len(value)} entries for critic dim {dim}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML or JSON config document into a validated ExperimentConfig."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(_TOP, f"unparseable document: {exc}") from exc
    return config_from_dict(doc)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _build_mdp(cfg: ExperimentConfig) -> Mdp:
    spec = cfg.mdp
    if spec.kind == "file":
        try:
            mdp = Mdp.load(spec.path)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("mdp.path", f"not a valid model file: {type(exc).__name__}: {exc}") from exc
        if mdp.n_agents != cfg.n_agents:
            raise ConfigError("mdp.path", f"file has {mdp.n_agents} agents, config says {cfg.n_agents}")
        _check_sizes(cfg, mdp.n_states, mdp.n_joint_actions)
        return mdp
    acts = spec.actions_per_agent
    if len(acts) == 1:
        acts = acts[0]
    seed = cfg.seed if spec.seed is None else spec.seed
    key = (cfg.n_agents, spec.n_states, acts, spec.reward_range, seed)
    mdp = _live_random_mdps.get(key)
    if mdp is None:
        mdp = _live_random_mdps[key] = generate_random_mdp(*key[:4], seed=seed)
    return mdp


# generated models that a live simulation still holds; a model is freed with its last holder
_live_random_mdps: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _build_graph(cfg: ExperimentConfig, enforce_connected: bool = True) -> GraphSchedule:
    spec = cfg.graph
    n = cfg.n_agents
    g = _GRAPHS[spec.topology](n, spec)
    if spec.require_connected and enforce_connected:
        # for a periodic schedule, connectivity of the union of phases is
        # what consensus over a full period needs
        union = GraphSchedule.from_edges(n, [e for ph in g.phases for e in ph]) if not g.static else g
        if not union.is_connected():
            raise ConfigError("graph", "graph is disconnected but require_connected is set")
    return g


def resolve_graph(cfg: ExperimentConfig, enforce_f_local: bool = True) -> tuple[GraphSchedule, frozenset]:
    """Build the graph and resolve the adversary placement: ``(graph, adversary ids)``.

    Random placement draws from a stream seeded with (master seed, 1),
    keeping it independent of the simulation stream. With
    ``enforce_f_local=False`` a declared non-local placement or a
    disconnected graph is returned instead of rejected (used by
    diagnostics).
    """
    graph = _build_graph(cfg, enforce_connected=enforce_f_local)
    adversary_ids = frozenset()
    if cfg.adversaries is not None:
        spec = cfg.adversaries
        if spec.ids is not None:
            adversary_ids = frozenset(spec.ids)
            if (
                enforce_f_local
                and spec.enforce_f_local
                and not is_r_local(graph, adversary_ids, cfg.trim_f)
            ):
                raise ConfigError(
                    "adversaries.ids",
                    f"declared placement is not {cfg.trim_f}-local for the configured trim_f",
                )
        else:
            placement_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
            adversary_ids = place_adversaries(
                graph, spec.count, cfg.trim_f if spec.enforce_f_local else None, placement_rng
            )
    return graph, adversary_ids


def build_simulation(cfg: ExperimentConfig) -> Simulation:
    """Materialize the config: MDP, graph, adversary placement, features.

    The seed-independent tables are shared read-only between the live
    simulations of a process: a generated (``kind: random``) MDP by its
    sizes, reward range and resolved seed, and a projection table by its
    shape and feature seed. A build that differs from a live one in
    ``seed`` alone, or in a section the tables do not read, holds the same
    arrays; once no simulation holds a table it is freed, and the next
    build makes it again. A ``kind: file`` MDP is read again on every
    build, since the file can change.
    """
    mdp = _build_mdp(cfg)
    graph, adversary_ids = resolve_graph(cfg, enforce_f_local=True)
    strategies = {}
    if adversary_ids:
        strategy = STRATEGY_NAMES[cfg.adversaries.strategy](**cfg.adversaries.params_dict())
        strategies = {i: strategy for i in adversary_ids}
    if cfg.features.kind == "tabular":
        features = tabular_features(mdp)
    else:
        features = projection_features(mdp, cfg.features.dim, cfg.features.seed)
    return Simulation(
        mdp=mdp,
        graph=graph,
        features=features,
        critic_schedule=cfg.critic_step,
        actor_schedule=cfg.actor_step,
        n_rounds=cfg.rounds,
        seed=cfg.seed,
        strategies=strategies,
        log_interval=cfg.log_interval,
        record_trims=cfg.record_trims,
        check_regular_hull=cfg.check_regular_hull,
        snapshot_params=cfg.snapshot_params,
        reward_noise=cfg.reward_noise,
        initial_state=cfg.initial_state,
        early_stop=cfg.early_stop,
        enforce_f_local=bool(cfg.adversaries and cfg.adversaries.enforce_f_local),
        trim_f=cfg.trim_f,
    )
