"""Paired benchmark runs of two checkouts, with the results written to one JSON record.

    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload coop_ring --seeds 70-79 --seconds 30 --out BENCH.json

For every workload and seed, runs ``bench/run.py --trace 0`` once in each
checkout, each in its own fresh process as the benchmark does, and
alternates which side goes first from one seed to the next so that both
see the same drift in host load. It prints, per workload and end-to-end
metric, the median and quartiles of each side, how many pairs the head
won and a verdict (see ``verdict``). ``--trace-seed`` adds one ``--trace 1`` run per side, whose per-layer
table goes into the record. The record also holds the machine facts, the
commands and every single run; each checkout is named by its git commit,
if any, whether its ``src`` differs from that commit, and a digest of its
``src`` tree.

The metric names, their better direction and their regression bounds come
from the base checkout's ``BENCHMARK.json``. Nothing under either checkout's ``bench/`` is changed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("coop_ring", "defense_complete", "projection_periodic")


def parse_seeds(text: str) -> list[int]:
    """'70-79' or '3,5,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--head", required=True, type=Path, help="checkout under test")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default all three")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 70-79")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace-seed", type=int, help="also record one --trace 1 run per side")
    parser.add_argument("--out", required=True, type=Path, help="JSON record to write")
    return parser.parse_args(argv)


def bench_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its JSON result, or the failure."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base: list[float], head: list[float], better: str, bound: float, pairs: int) -> str:
    """``gain``, ``regressed``, ``unresolved`` or ``unchanged``, checked in that order.

    - gain: the head wins at least nine tenths of the ``pairs`` run (ties
      count for neither side), and its median is better than the base's
      by more than the base's interquartile spread;
    - regressed: the head's median is worse than the base's by more than
      ``bound`` times the base's median;
    - unresolved: the base's interquartile spread is wider than ``bound``
      times its median, so a change within the bound cannot be told from
      noise, unless every head run reads better than every base run;
    - unchanged: anything else.
    """
    sign = 1 if better == "higher" else -1
    b, h = summarize(base), summarize(head)
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    spread = b["q3"] - b["q1"]
    ahead = sign * (h["median"] - b["median"])
    if wins >= 0.9 * pairs and ahead > spread:
        return "gain"
    if -ahead > bound * b["median"]:
        return "regressed"
    if spread > bound * b["median"] and not min(sign * y for y in head) > max(sign * x for x in base):
        return "unresolved"
    return "unchanged"


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the head's wins and the verdict."""
    out = {}
    done = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["head"]]
    for spec in metrics:
        name = spec["name"]
        base = [p["base"]["metrics"][name]["value"] for p in done]
        head = [p["head"]["metrics"][name]["value"] for p in done]
        if not done:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": summarize(base),
            "head": summarize(head),
            "head_over_base": statistics.median(head) / statistics.median(base),
            "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "pairs": len(done),
            "verdict": verdict(base, head, spec["better"], spec["bound"], len(pairs)),
        }
    return out


def machine_facts() -> dict:
    import numpy

    facts = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        facts["cpu_model"] = models[0] if models else None
    except OSError:
        facts["cpu_model"] = None
    return facts


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def identify(checkout: Path) -> dict:
    """The checkout's git commit, whether ``src`` differs from it, and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    commit = git(checkout, "rev-parse", "HEAD")
    changed = git(checkout, "status", "--porcelain", "--", "src") if commit else None
    return {"commit": commit, "src_changed": None if changed is None else bool(changed),
            "src_sha256": digest.hexdigest()}


def main(argv=None):
    args = parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or list(WORKLOADS)
    record = {
        "machine": machine_facts(),
        "checkouts": {side: identify(path) for side, path in sides.items()},
        "command": {"seconds": args.seconds, "trace": 0, "seeds": args.seeds},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for n, seed in enumerate(args.seeds):
            order = ("base", "head") if n % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_once(sides[side], workload, seed, args.seconds, 0)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {pair[side].get('metrics', {}).get('rounds_per_s', {}).get('value', float('nan')):.0f}"
                for side in ("base", "head")) + " rounds/s", flush=True)
        entry = {
            "pairs": pairs,
            "correct": {side: all(p[side].get("correct") is True for p in pairs) for side in sides},
            "failed": {side: sum(p[side].get("failed", 1) for p in pairs) for side in sides},
            "summary": compare(pairs, spec["end_to_end"]),
        }
        if args.trace_seed is not None:
            entry["trace"] = {side: bench_once(sides[side], workload, args.trace_seed, args.seconds, 1)
                              for side in sides}
        record["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print(f"  {workload} {name:<14} base {s['base']['median']:10.4f} "
                  f"[{s['base']['q1']:.4f}, {s['base']['q3']:.4f}]  head {s['head']['median']:10.4f} "
                  f"[{s['head']['q1']:.4f}, {s['head']['q3']:.4f}]  x{s['head_over_base']:.3f}  "
                  f"head wins {s['head_wins']}/{s['pairs']}  {s['verdict']}", flush=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
