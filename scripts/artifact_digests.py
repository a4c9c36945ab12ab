"""Print the sha256 of every deterministic artifact of a fixed set of runs.

    PYTHONPATH=src python3 scripts/artifact_digests.py

Runs each experiment below through ``resilient_marl.cli`` in a temporary
directory and prints one line per artifact: run name, file name, digest.
The three artifacts (``trajectory.jsonl``, ``final_params.json`` and
``summary.json``) are fixed by (config, seed), so running this script with
PYTHONPATH pointing at two checkouts and diffing the output checks that a
change leaves every artifact byte for byte as it was. A run that raises
prints its error in place of the digests.

The set: the three benchmark workloads (``bench/workloads/*.yaml``, read
only) at seeds 1, 2 and 7; ``demos/configs/cooperative.yaml`` and
``defense.yaml``; the three runs of ``demos/configs/f_sweep.yaml``; and
small configs that reach what those do not (heterogeneous action counts
with a selfish adversary, an Erdos-Renyi graph with drift and reward
noise, f=2 with two constant and with two noise adversaries, an early
stop, a frozen actor on a constant schedule (the only echo that holds a
constant schedule), and complete(9) at f=0 and at f=2 with two constant
adversaries sending the same value, the only configs with a degree of 8
or more).

Every run shares this one process, one after another: each run frees
its simulation before the next is built, so each builds its own model
(``config.build_simulation`` shares tables only between live
simulations). Those tables are read-only, so a run that wrote into one
would raise here.
"""
from __future__ import annotations

import copy
import hashlib
import sys
import tempfile
from pathlib import Path

import yaml

from resilient_marl.cli import run_experiment, run_sweep
from resilient_marl.config import config_from_dict

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("trajectory.jsonl", "final_params.json", "summary.json")
WORKLOAD_SEEDS = (1, 2, 7)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _small_configs():
    """Configs named after what they reach beyond the workloads."""
    coop = _load(ROOT / "bench" / "workloads" / "coop_ring.yaml")
    mdp = {"n_states": 3, "actions_per_agent": 2, "seed": 4}
    f2 = {
        "n_agents": 6, "rounds": 300, "seed": 5, "mdp": mdp,
        "graph": {"topology": "complete"}, "trim_f": 2, "log_interval": 20,
        "check_regular_hull": True,
    }
    return {
        "star_heterogeneous_selfish": {
            "n_agents": 6, "rounds": 300, "seed": 3,
            "mdp": {"n_states": 3, "actions_per_agent": [3, 2, 2, 5, 2, 9], "seed": 8},
            "graph": {"topology": "star"}, "log_interval": 25,
            "adversaries": {"ids": [3], "strategy": "selfish", "enforce_f_local": False},
        },
        "erdos_renyi_drift_noise": {
            "n_agents": 8, "rounds": 300, "seed": 6, "mdp": mdp,
            "graph": {"topology": "erdos_renyi", "p": 0.55, "seed": 4}, "trim_f": 1,
            "adversaries": {"ids": [0], "strategy": "drift",
                            "params": {"start": 0.5, "rate": 0.01}, "enforce_f_local": False},
            "reward_noise": 0.3, "log_interval": 20,
        },
        "complete6_f2_constant": dict(f2, adversaries={
            "ids": [1, 4], "strategy": "constant", "params": {"value": 50.0}}),
        "complete6_f2_noise": dict(f2, adversaries={
            "ids": [1, 4], "strategy": "noise", "params": {"scale": 5.0, "seed": 2}}),
        "coop_ring_early_stop": dict(copy.deepcopy(coop), rounds=500, log_interval=7, early_stop={
            "disagreement": 1e9, "actor_update": 1e9, "patience": 10}),
        "coop_ring_constant_actor": dict(copy.deepcopy(coop), rounds=500, actor_step={
            "kind": "constant", "scale": 0.0}),
        "complete9_f0": {
            "n_agents": 9, "rounds": 200, "seed": 8, "mdp": mdp,
            "graph": {"topology": "complete"}, "log_interval": 10,
        },
        "complete9_f2_constant_ties": {
            "n_agents": 9, "rounds": 200, "seed": 9, "mdp": mdp,
            "graph": {"topology": "complete"}, "trim_f": 2, "log_interval": 10,
            "check_regular_hull": True, "adversaries": {
                "ids": [2, 6], "strategy": "constant", "params": {"value": 1.5}},
        },
    }


def _runs():
    for name in ("coop_ring", "defense_complete", "projection_periodic"):
        doc = _load(ROOT / "bench" / "workloads" / f"{name}.yaml")
        for seed in WORKLOAD_SEEDS:
            yield f"{name}.seed{seed}", dict(doc, seed=seed)
    for name in ("cooperative", "defense"):
        yield name, _load(ROOT / "demos" / "configs" / f"{name}.yaml")
    yield from _small_configs().items()


def _digests(out_dir):
    return [(name, hashlib.sha256((out_dir / name).read_bytes()).hexdigest()) for name in ARTIFACTS]


def main():
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        tmp = Path(tmp)
        for name, doc in _runs():
            try:
                run_experiment(config_from_dict(doc), tmp / name, quiet=True)
            except Exception as exc:  # report and go on: the diff shows it
                print(f"{name} error {type(exc).__name__}: {exc}")
                continue
            for artifact, digest in _digests(tmp / name):
                print(f"{name} {artifact} {digest}")
        sweep = _load(ROOT / "demos" / "configs" / "f_sweep.yaml")
        run_sweep(sweep, tmp / "f_sweep", quiet=True)
        for entry in sweep["runs"]:
            for artifact, digest in _digests(tmp / "f_sweep" / entry["name"]):
                print(f"f_sweep/{entry['name']} {artifact} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
