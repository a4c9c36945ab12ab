"""Command-line entry points: run, sweep, check-graph.

This module writes every artifact; ``engine.run`` opens no file.
trajectory.jsonl is one JSON object per line, keys sorted: a header
(``kind: meta``, the engine's metadata, the config echo, its
``config_sha256`` and ``format_version``), then metric rows (``kind:
metrics``, a MetricsRow's fields) and trim events (``kind: trim``, ``t``,
``agent``, ``trimmed``) in round order, the row of t completed rounds
before the events of round t. The body is streamed while the run runs,
through the engine's sink into an unnamed temporary file in the output
directory, so its memory does not grow with the rounds; the header, which
holds ``rounds_executed``, is written last, in front of the copied body.
A run that raises leaves no trajectory.jsonl. Every artifact but
run_info.json, which holds wall-clock timing, is deterministic in
(config, seed).
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

from resilient_marl.config import (
    ConfigError,
    _as_int,
    _check_keys,
    ExperimentConfig,
    build_simulation,
    config_from_dict,
    load_config,
    resolve_graph,
)
from resilient_marl.engine import SimulationError, run
from resilient_marl.graphs import (
    GraphError,
    PlacementError,
    adversary_fractions,
    is_r_local,
    max_r_robustness,
)
from resilient_marl.mdp import NonErgodicChainError

OUT_ROOT_ENV = "RESILIENT_MARL_OUT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _resolve_out_dir(cfg: ExperimentConfig, cli_out, config_path) -> Path:
    if cli_out:
        return Path(cli_out)
    if cfg.out:
        return Path(cfg.out)
    root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    stem = Path(config_path).stem if config_path else "experiment"
    return root / f"{stem}.seed{cfg.seed}"


def _write_json(path, record, sort_keys=False):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _row_record(row) -> dict:
    rec = {
        "kind": "metrics",
        "t": row.t,
        "j_oracle": row.j_oracle,
        "avg_reward_window": row.avg_reward_window,
        "disagreement": row.disagreement,
        "avg_rewards": list(row.avg_rewards),
    }
    if row.params is not None:
        rec["params"] = row.params
    return rec


def _json_line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


class _TrajectoryBody:
    """Engine sink: each metrics row and trim event as one trajectory.jsonl line.

    A trim line is the bytes ``_json_line`` gives for its record, formatted
    directly: the events come several a round, inside the round loop, and
    json.dumps costs about four times as much a line.
    """

    _TRIM = '{"agent":%d,"kind":"trim","t":%d,"trimmed":[%s]}\n'

    def __init__(self, fh):
        self.write = fh.write

    def row(self, row) -> None:
        self.write(_json_line(_row_record(row)))

    def trim(self, t: int, agent: int, senders) -> None:
        self.write(self._TRIM % (agent, t, ",".join(map(str, senders))))


def run_experiment(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> dict:
    """Execute one experiment and write its four artifacts under out_dir.

    Returns the summary record.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = build_simulation(cfg)
    config = cfg.to_dict()
    config_sha256 = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    try:  # losing a valid run's output is a runtime fault, not a config error
        # the header holds rounds_executed, known only at the end: the body
        # streams into an unnamed file and is copied after the header
        with tempfile.TemporaryFile("w+", encoding="utf-8", dir=out_dir) as body:
            started = time.time()
            log = run(sim, sink=_TrajectoryBody(body))
            duration = time.time() - started
            header = {**log.metadata, "config": config, "config_sha256": config_sha256, "format_version": 2}
            with open(out_dir / "trajectory.jsonl", "w", encoding="utf-8") as fh:
                fh.write(_json_line({"kind": "meta", **header}))
                fh.flush()
                body.seek(0)
                # as bytes, 16 KiB at a time: decoding would hold several chunks
                shutil.copyfileobj(body.buffer, fh.buffer, 1 << 14)
        summary = {
            "final_j_oracle": log.final_row.j_oracle,
            "final_disagreement": log.final_row.disagreement,
            "initial_j_oracle": log.rows[0].j_oracle,
            "rounds_executed": log.metadata["rounds_executed"],
            "seed": cfg.seed,
            "config_sha256": config_sha256,
            "config": config,
        }
        _write_json(out_dir / "summary.json", summary, sort_keys=True)
        _write_json(out_dir / "final_params.json", log.final_params, sort_keys=True)
        _write_json(out_dir / "run_info.json", {"started_unix": started, "duration_sec": duration})
    except OSError as exc:
        raise SimulationError(f"cannot write the artifacts: {exc}") from exc
    if not quiet:
        print(
            f"[resilient-marl] rounds={summary['rounds_executed']} "
            f"J={summary['final_j_oracle']:.6f} "
            f"disagreement={summary['final_disagreement']:.3e} -> {out_dir}"
        )
    return summary


def check_graph(cfg: ExperimentConfig) -> dict:
    """Topology diagnostics: connectivity, degrees, locality, robustness.

    Connectivity is reported per phase; the degree statistics and the
    adversary-neighbour fraction are taken over every node of every phase.

    Never rejects a non-F-local placement; it reports it, so misconfigured
    setups can be inspected before a run.
    """
    g = resolve_graph(cfg, enforce_f_local=False)
    phases = range(g.n_phases)
    degrees = np.stack([g.degrees(p) for p in phases])
    report = {
        "n_nodes": g.n_nodes,
        "n_phases": g.n_phases,
        "connected": [bool(g.is_connected(p)) for p in phases],
        "degrees": {
            "min": int(degrees.min()),
            "mean": float(degrees.mean()),
            "max": int(degrees.max()),
        },
        "adversaries": sorted(g.adversary_set),
        "trim_f": g.trim_f,
        "f_local": is_r_local(g, g.adversary_set, g.trim_f),
        "adversary_fraction_max": max(float(adversary_fractions(g, p).max()) for p in phases),
    }
    if g.static and g.n_nodes <= 16:
        report["max_r_robust"] = max_r_robustness(g)
    else:
        report["max_r_robust"] = None
        report["robustness_skipped"] = "graph is time-varying or larger than the 16-node cap"
    return report


def _print_graph_report(report):
    print(f"nodes: {report['n_nodes']}  phases: {report['n_phases']}")
    for p, ok in enumerate(report["connected"]):
        print(f"connected[phase {p}]: {ok}")
    if not all(report["connected"]):
        print("WARNING: graph has a disconnected phase; consensus cannot reach all agents")
    deg = report["degrees"]
    print(f"degrees: min {deg['min']} / mean {deg['mean']:.2f} / max {deg['max']}")
    print(f"adversaries: {report['adversaries']} (trim_f={report['trim_f']})")
    print(f"f_local: {report['f_local']}")
    print(f"adversary neighbor fraction (max over regular nodes and phases): "
          f"{report['adversary_fraction_max']:.3f}")
    if report["max_r_robust"] is None:
        print(f"r-robustness: skipped ({report['robustness_skipped']})")
    else:
        print(f"r-robustness: holds up to r = {report['max_r_robust']}")


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _sweep_worker(args):
    doc, out_dir, quiet = args
    cfg = config_from_dict(doc)
    summary = run_experiment(cfg, out_dir, quiet=quiet)
    return {"out": str(out_dir), "final_j_oracle": summary["final_j_oracle"],
            "final_disagreement": summary["final_disagreement"],
            "rounds_executed": summary["rounds_executed"], "seed": summary["seed"]}


def run_sweep(sweep_doc: dict, out_root, jobs: int = 1, quiet: bool = False) -> list[dict]:
    """Run every override of a sweep document, one directory per run.

    ``runs`` lists ``{name, overrides}``, where null means the default and
    a name is a unique file name. Every run is checked before any starts;
    a bad run config is reported under the run's path. Each run gets seed =
    base seed + run index unless its override pins a non-null seed.
    Runs execute in parallel up to ``jobs``, with no more workers than runs.
    """
    if not isinstance(sweep_doc, dict) or "base" not in sweep_doc or "runs" not in sweep_doc:
        raise ConfigError("<sweep>", "sweep document needs 'base' and 'runs'")
    _check_keys(sweep_doc, ("base", "runs"), "<sweep>")
    base = sweep_doc["base"]
    runs = sweep_doc["runs"]
    if not isinstance(base, dict):
        raise ConfigError("<sweep>.base", "expected a mapping")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("<sweep>.runs", "expected a nonempty list of runs")
    seed = base.get("seed")
    base_seed = 0 if seed is None else _as_int(seed, "<sweep>.base.seed", minimum=0)
    out_root = Path(out_root)
    tasks = []
    names = set()
    for idx, entry in enumerate(runs):
        path = f"<sweep>.runs[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "expected a mapping")
        _check_keys(entry, ("name", "overrides"), path)
        overrides = {} if entry.get("overrides") is None else entry["overrides"]
        if not isinstance(overrides, dict):
            raise ConfigError(f"{path}.overrides", "expected a mapping")
        name = f"run_{idx:03d}" if entry.get("name") is None else entry["name"]
        if not isinstance(name, str):
            raise ConfigError(f"{path}.name", f"expected a string, got {name!r}")
        if name in names or name in ("", ".", "..") or "/" in name or os.sep in name:
            raise ConfigError(f"{path}.name", f"expected a unique file name, got {name!r}")
        names.add(name)
        doc = _deep_merge(base, overrides)
        if overrides.get("seed") is None:
            doc["seed"] = base_seed + idx
        doc.pop("out", None)
        try:  # fail fast on any bad override before launching
            config_from_dict(doc)
        except ConfigError as exc:
            raise ConfigError(path, str(exc)) from exc
        tasks.append((doc, out_root / name, quiet))
    # a fork-started pool starts every worker at the first submit, used or not
    jobs = min(max(1, jobs), len(tasks))
    if jobs == 1:
        results = [_sweep_worker(task) for task in tasks]
    else:
        import concurrent.futures  # only here: it adds set-up time to every other command

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    try:
        out_root.mkdir(parents=True, exist_ok=True)
        _write_json(out_root / "sweep_summary.json", results, sort_keys=True)
    except OSError as exc:  # every run is done, as in run_experiment
        raise SimulationError(f"cannot write the sweep summary: {exc}") from exc
    return results


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="resilient-marl",
        description="Decentralized actor-critic simulator with trimmed-consensus defense",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="YAML or JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a list of config overrides")
    p_sweep.add_argument("--config", required=True, help="sweep document with base + runs")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_sweep.add_argument("--out", default=None, help="output root directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p_sweep.add_argument("--quiet", action="store_true")

    p_check = sub.add_parser("check-graph", help="print topology diagnostics")
    p_check.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.seed is not None:
                doc = cfg.to_dict()
                doc["seed"] = args.seed
                cfg = config_from_dict(doc)
            out_dir = _resolve_out_dir(cfg, args.out, args.config)
            run_experiment(cfg, out_dir, quiet=args.quiet)
        elif args.command == "sweep":
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    sweep_doc = yaml.safe_load(fh)
                except yaml.YAMLError as exc:
                    raise ConfigError("<sweep>", f"unparseable document: {exc}") from exc
            # run_sweep rejects a document without a mapping base
            if args.seed is not None and isinstance(sweep_doc, dict) and isinstance(sweep_doc.get("base"), dict):
                sweep_doc["base"]["seed"] = args.seed
            out_root = Path(args.out) if args.out else (
                Path(os.environ.get(OUT_ROOT_ENV, "runs")) / f"{Path(args.config).stem}-sweep"
            )
            run_sweep(sweep_doc, out_root, jobs=args.jobs, quiet=args.quiet)
        else:
            cfg = load_config(args.config)
            _print_graph_report(check_graph(cfg))
    except (ConfigError, GraphError, PlacementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, NonErgodicChainError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
