"""Property test of the config parser: mutated documents fail cleanly or round-trip.

Each example starts from a valid document and applies a few mutations:
drop a key or list entry, swap a value for one of another type or out of
range (NaN and ±inf included), or add an unknown key. The parser must
either reject the result with a ConfigError or accept it, and an accepted
document must parse back from its own echo to an equal config with the
same echo.
"""
import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_marl.config import ConfigError, config_from_dict

FULL = {
    "n_agents": 4,
    "rounds": 30,
    "seed": 3,
    "mdp": {"kind": "random", "n_states": 3, "actions_per_agent": [2, 3, 2, 2],
            "reward_range": [0.0, 2.0], "seed": 1},
    "graph": {"topology": "erdos_renyi", "p": 0.8, "seed": 2, "require_connected": True},
    "trim_f": 1,
    "features": {"kind": "projection", "dim": 6, "seed": 4},
    "critic_step": {"kind": "polynomial", "scale": 0.5, "exponent": 0.7},
    "actor_step": {"kind": "constant", "scale": 0.1},
    "adversaries": {"ids": [1], "strategy": "drift", "params": {"start": [0.5], "rate": 0.01},
                    "enforce_f_local": False},
    "log_interval": 5,
    "record_trims": True,
    "check_regular_hull": False,
    "snapshot_params": False,
    "reward_noise": 0.1,
    "initial_state": 1,
    "early_stop": {"disagreement": 1e-3, "actor_update": 1e-4, "patience": 3},
    "out": "runs/x",
}
OTHER = {
    "n_agents": 3,
    "rounds": 0,
    "mdp": {"kind": "file", "path": "model.json"},
    "graph": {"topology": "edges", "phases": [[[0, 1], [1, 2]], [[2, 0]]]},
    "features": {"kind": "tabular"},
    "adversaries": {"count": 1, "strategy": "noise", "params": {"scale": 2, "seed": 5}},
}
SMALL = {
    "n_agents": 5,
    "rounds": 10,
    "mdp": {"n_states": 2, "actions_per_agent": 2},
    "graph": {"topology": "edges", "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    "adversaries": {"ids": [0, 4], "strategy": "constant", "params": {"value": float("inf")}},
}

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from([2**63, 10**30, -(10**30), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.sampled_from([{}, {"zz": 1}, {1: 2, "zz": 3}, [[0, 1], [1, 2]], [[0.5, 1]]]),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _paths(value, prefix + (k,))


def _odd_value(data):
    return copy.deepcopy(data.draw(ODD_VALUES))  # later mutations must not change the strategy's constants


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "swap", "add"]))
    if not path:
        return _odd_value(data) if op == "swap" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op == "drop":
        del parent[path[-1]]
    elif op == "swap":
        parent[path[-1]] = _odd_value(data)
    elif isinstance(node, dict):
        node[data.draw(st.sampled_from(["zz", "kind", "seed", "edges", "p", "value"]))] = _odd_value(data)
    elif isinstance(node, list):
        node.append(_odd_value(data))
    return doc


def _echo_bytes(cfg):
    return json.dumps(cfg.to_dict(), sort_keys=True)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.data())
def test_mutated_document_is_rejected_cleanly_or_round_trips(data):
    doc = copy.deepcopy(data.draw(st.sampled_from([FULL, OTHER, SMALL])))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert _echo_bytes(again) == _echo_bytes(cfg)


def test_bases_are_valid():
    for doc in (FULL, OTHER, SMALL):
        cfg = config_from_dict(copy.deepcopy(doc))
        assert config_from_dict(cfg.to_dict()) == cfg
