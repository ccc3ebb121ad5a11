#!/usr/bin/env python3
"""Benchmark of the ``sparse-ctrb`` command-line analyses.

Run from the root of a checkout:

    python3 bench/run.py --workload float-scale --seed 1 --seconds 30 --trace 0

Workloads: ``float-scale``, ``search-blocked``, ``exact-rational`` (see
``bench/README.md``).  The workload runs in one fresh worker process
(``worker.py``) with ``OPENBLAS_NUM_THREADS=1``; ``setup_s`` is the median
import time of ``sparse_ctrb`` and ``sparse_ctrb.cli`` over 12 fresh
interpreters, half launched before the worker and half after it.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
Exits 2 without a result when the checkout has no ``src/sparse_ctrb``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 12
WORKER_TIMEOUT_S = 165
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sparse_ctrb, sparse_ctrb.cli; "
    "print(time.perf_counter() - t)"
)


def child_env(src):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([src, BENCH_DIR])
    env.pop("SPARSE_CTRB_TOL", None)
    return env


def import_seconds(env, launches):
    """Import times of ``launches`` fresh interpreters."""
    times = []
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="checked by worker.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sparse_ctrb", "cli.py")):
        print("bench: no src/sparse_ctrb here; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(src)
    workdir = os.path.join(BENCH_DIR, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)

    # setup_s: one untimed launch, then half the launches before the worker
    # and half after it, so that the median spans the run's whole duration.
    setup = []
    if not args.trace:
        import_seconds(env, 1)
        setup += import_seconds(env, SETUP_LAUNCHES // 2)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"bench: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        setup += import_seconds(env, SETUP_LAUNCHES - len(setup))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(f"bench: {args.workload} seed {args.seed}: {result['passes']} timed passes",
          file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
