"""Simulator benchmark: one workload, one seed, one fresh measuring process.

    python3 bench/run.py --workload coop_ring --seed 1 --seconds 20 --trace 0

Writes the workload's config with the given seed into a work directory
under bench/_work/, starts bench/workload.py in a fresh interpreter with
PYTHONPATH=src and BLAS limited to one thread, relays its output and
removes the work directory. The last line of standard output is the
JSON result; see README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("coop_ring", "defense_complete", "projection_periodic")
CHILD_TIMEOUT_S = 170
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    package = ROOT / "src" / "resilient_marl" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with open(BENCH_DIR / "workloads" / f"{args.workload}.yaml", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["seed"] = args.seed
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(ONE_THREAD, "1"))
        # set-up reads cached bytecode, as an installed package would
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        command = [
            sys.executable, str(BENCH_DIR / "workload.py"),
            "--workload", args.workload, "--config", str(config_path), "--workdir", str(workdir),
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        spawned = time.monotonic()
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"error: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"error: {args.workload} printed no JSON result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
