"""One benchmark workload, measured in a fresh Python process.

Started by run.py, which has already written the seeded config, set
PYTHONPATH and limited BLAS to one thread. Phases, in order:

1. set-up (``setup_s``): import resilient_marl, load the config, build the
   simulation and run it for zero rounds, timed from the moment run.py
   spawned this process;
2. measurement: whole rounds of ``resilient_marl.cli.main(["run", ...])``
   until ``--seconds`` have passed; with ``--trace 1`` each round is one
   untraced and one traced run;
3. correctness checks on the artifacts of the last run (see checks.py).

The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("trajectory.jsonl", "final_params.json", "summary.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    return parser.parse_args(argv)


def timed_cli_run(cli, config_path, out_dir):
    """One `resilient-marl run`; returns (run_s, rounds, engine_s) or None if it failed.

    A single timer around the engine call gives the time spent inside
    ``engine.run``; it wraps whatever ``cli.run`` currently is, so under a
    tracer it includes the tracing of the layers below.
    """
    engine_run = cli.run
    span = {}

    def timed_run(*args, **kwargs):
        start = time.perf_counter()
        log = engine_run(*args, **kwargs)
        span["engine_s"] = time.perf_counter() - start
        span["rounds"] = log.metadata["rounds_executed"]
        return log

    cli.run = timed_run
    try:
        start = time.perf_counter()
        code = cli.main(["run", "--config", str(config_path), "--out", str(out_dir), "--quiet"])
        run_s = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        return None
    finally:
        cli.run = engine_run
    if code != 0 or "engine_s" not in span:
        print(f"resilient-marl run exited with code {code}", file=sys.stderr)
        return None
    return run_s, span["rounds"], span["engine_s"]


def messages_per_round(graph, rounds):
    """Messages delivered per round: one per directed edge of the round's phase."""
    per_phase = [int(graph.degrees(p).sum()) for p in range(graph.n_phases)]
    return sum(per_phase[t % graph.n_phases] for t in range(rounds)) / rounds


def layer_metrics(tracers, samples, sim, trajectory_bytes, overhead_pct):
    rounds = sum(s[1] for s in samples)
    runs = len(samples)
    metrics = {}
    for layer in tracers[0].self_ns:
        self_ns = sum(tr.self_ns[layer] for tr in tracers)
        calls = sum(tr.calls[layer] for tr in tracers)
        metrics[f"{layer}.self_us_per_round"] = (self_ns / 1e3 / rounds, "us/round")
        metrics[f"{layer}.calls_per_round"] = (calls / rounds, "calls/round")
    received = sum(tr.received_coords for tr in tracers)
    retained = sum(tr.retained_coords for tr in tracers)
    messages = messages_per_round(sim.graph, rounds // runs)
    metrics.update({
        "engine.rounds": (rounds / runs, "count"),
        "engine.rows_logged": (sum(tr.rows_logged for tr in tracers) / runs, "count"),
        "engine.trim_events": (sum(tr.trim_events for tr in tracers) / runs, "count"),
        "cli.trajectory_bytes": (trajectory_bytes, "B"),
        "consensus.messages_per_round": (messages, "msgs/round"),
        "consensus.payload_bytes_per_round": (messages * sim.features.dim * 8, "B/round"),
        # with f=0 the engine mixes every received value and never calls trim
        "consensus.retained_fraction": (retained / received if received else 1.0, "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics


def main(argv=None):
    args = parse_args(argv)

    from resilient_marl import cli, config, engine  # set-up includes the package import

    cfg = config.load_config(args.config)
    sim = config.build_simulation(cfg)
    engine.run(dataclasses.replace(sim, n_rounds=0))
    setup_s = time.monotonic() - args.spawned

    import checks  # the script's directory is first on sys.path
    from layertrace import Tracer

    workdir = Path(args.workdir)
    plain_out, traced_out = workdir / "untraced", workdir / "traced"
    plain, traced, tracers = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        attempted += 1
        sample = timed_cli_run(cli, args.config, plain_out)
        if sample is None:
            failed += 1
        else:
            plain.append(sample)
        if args.trace:
            attempted += 1
            with Tracer() as tracer:
                sample = timed_cli_run(cli, args.config, traced_out)
            if sample is None:
                failed += 1
            else:
                traced.append(sample)
                tracers.append(tracer)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not plain or (args.trace and not traced):
        print(f"no run of {args.workload} completed", file=sys.stderr)
        return 1

    records, summary, final = checks.read_artifacts(plain_out)
    errors = checks.check_common(sim, cfg, records, summary, final)
    if args.workload == "coop_ring":
        errors += checks.check_reference_prefix(cfg, ROOT / "tests")
    elif args.workload == "defense_complete":
        errors += checks.check_defense(cfg, records, final)
    elif args.workload == "projection_periodic":
        errors += checks.check_projection(sim, records, final)
    if args.trace:
        for name in ARTIFACTS:
            if (plain_out / name).read_bytes() != (traced_out / name).read_bytes():
                errors.append(f"traced run changed {name}")
    for err in errors:
        print(f"check failed [{args.workload}]: {err}", file=sys.stderr)

    rps = [rounds / engine_s for _, rounds, engine_s in plain]
    if args.trace:
        # each untraced run is paired with the traced run that follows it, so
        # both sides of a ratio see the same load on the host
        overhead_pct = statistics.median(
            (t[2] / u[2] - 1.0) * 100.0 for u, t in zip(plain, traced)
        )
        trajectory_bytes = os.path.getsize(traced_out / "trajectory.jsonl")
        metrics = layer_metrics(tracers, traced, sim, trajectory_bytes, overhead_pct)
        note = f"traced: {len(traced)} runs of {cfg.rounds} rounds"
    else:
        metrics = {
            "rounds_per_s": (statistics.median(rps), "rounds/s"),
            "run_s": (statistics.median(s[0] for s in plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        note = f"median of {len(plain)} runs of {cfg.rounds} rounds"

    print(f"workload {args.workload}  seed {args.seed}  {note}  "
          f"attempted {attempted}  failed {failed}  correct {not errors}")
    print("  each run: rounds/s " + " ".join(f"{r / e:.1f}" for _, r, e in plain)
          + " | run_s " + " ".join(f"{s[0]:.3f}" for s in plain))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
