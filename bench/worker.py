"""One workload in one fresh process: build inputs, run passes, check reports.

Started by ``run.py`` with ``OPENBLAS_NUM_THREADS=1`` and ``src`` on the
path.  A pass runs every operation of the workload once through
``sparse_ctrb.cli.main(argv)`` in this process.  After one untimed warm-up
pass, whole passes run until ``--seconds`` have gone by.  Reports are checked
after the timing ends, each distinct report once.  Prints one JSON object.

With ``--trace 1`` untraced and traced passes alternate until
``--seconds`` have gone by; the result holds the per-layer metrics of the
traced passes, per pass, and the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import checker
import inputs
import tracer as tracing


def run_op(main, op):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except Exception:  # recorded and reported by the checker as a problem
        return None, traceback.format_exc()
    return code, out.getvalue()


def run_pass(main, ops, outcomes, timed, per_command=None):
    """Run every op once; returns the wall time of the pass.

    ``outcomes[op.id]`` maps each distinct (exit code, stdout) to the number
    of timed passes that produced it, so memory does not grow with passes.
    """
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        outcome = run_op(main, op)
        if per_command is not None:
            per_command[f"cli.{op.argv[0]}.s"] += clock() - t0
        seen = outcomes[op.id]
        seen[outcome] = seen.get(outcome, 0) + int(timed)
    return clock() - start


def check_outcomes(ops, outcomes):
    """(failed, problems): failed counts timed-pass ops of a known fault."""
    failed = 0
    problems = []
    for op in ops:
        for outcome, timed in outcomes[op.id].items():
            found = checker.check(op, *outcome)
            if not found:
                continue
            if op.fault is None:
                problems.append(f"{op.id}: {'; '.join(found)}")
            else:
                failed += timed
    return failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    ops = inputs.build(args.workload, args.seed, args.workdir)
    from sparse_ctrb import cli

    outcomes = {op.id: {} for op in ops}
    run_pass(cli.main, ops, outcomes, timed=False)  # warm-up
    metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)
        per_command = {f"cli.{c}.s": 0.0 for c in tracing.COMMANDS}
        layers = {}
        times, untraced = [], []
        # Untraced and traced passes alternate, so that a drift in machine
        # speed does not show up as tracing overhead.
        while not times or sum(times) + sum(untraced) < args.seconds:
            untraced.append(run_pass(cli.main, ops, outcomes, timed=False))
            tracer.install()
            times.append(run_pass(traced_main, ops, outcomes, True, per_command))
            tracer.uninstall()
            for name, (calls, self_s) in tracer.take().items():
                entry = layers.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        counts = {"linalg.svd.calls": tracer.svd_calls, "linalg.svd.flops": tracer.svd_flops}
        passes = len(times)
        for name, unit in tracing.metric_names():
            if name == "trace.overhead":
                value = 100.0 * (sum(times) / sum(untraced) - 1.0)
            elif name in counts:
                value = counts[name] // passes
            elif name in per_command:
                value = per_command[name] / passes
            else:
                layer, kind = name.rsplit(".", 1)
                calls, self_s = layers.get(layer, (0, 0.0))
                value = calls // passes if kind == "calls" else self_s / passes
            metrics[name] = {"value": value, "unit": unit}
    else:
        times = []
        while not times or sum(times) < args.seconds:
            times.append(run_pass(cli.main, ops, outcomes, timed=True))
        passes = len(times)
        metrics["ops_per_s"] = {"value": len(ops) * passes / sum(times), "unit": "1/s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}

    failed, problems = check_outcomes(ops, outcomes)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * passes,
        "failed": failed,
        "passes": passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
