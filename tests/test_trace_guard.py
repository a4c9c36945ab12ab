"""The benchmark's outside-in layer trace still fits the program.

``bench/layertrace.py`` wraps functions by the names ``engine`` and ``cli``
import. A renamed or dropped name would crash a traced benchmark run, and a
name the engine no longer calls would read as zero time. The module is
loaded from its file, read-only.
"""
import importlib.util
import json
from pathlib import Path

import yaml

from resilient_marl import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
ARTIFACTS = ("trajectory.jsonl", "final_params.json", "summary.json")


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", BENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    for layer, targets in _layertrace().LAYERS.items():
        for owner, name in targets:
            assert callable(getattr(owner, name, None)), f"{layer}: {owner.__name__}.{name}"


def test_traced_run_is_byte_identical_and_reaches_every_round_layer(tmp_path):
    doc = yaml.safe_load((BENCH / "workloads" / "defense_complete.yaml").read_text())
    doc["rounds"] = 50
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    layertrace = _layertrace()

    def run(out):
        return cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"])

    assert run(tmp_path / "plain") == 0
    with layertrace.Tracer() as tracer:
        assert run(tmp_path / "traced") == 0
    for name in ARTIFACTS:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes(), name
    for layer in ("agents.select", "agents.update", "consensus.trim", "consensus.combine",
                  "consensus.adversary", "mdp.transition", "engine.metrics"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.trim_events == 4 * 50
    assert 0 < tracer.retained_coords < tracer.received_coords
