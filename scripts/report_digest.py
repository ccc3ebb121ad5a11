#!/usr/bin/env python3
"""Digest the CLI reports of one checkout, one line per run.

Runs ``sparse_ctrb.cli.main`` in-process, loaded from ``<root>/src``, over
two sets of argument lists and prints, sorted, one line per run:
``id <TAB> exit code <TAB> sha256 of stdout``.  Temporary and checkout paths
in stdout are replaced by placeholders, so the digests of two checkouts can
be compared with ``diff``.

The runs are every operation of the benchmark workloads (inputs built by
``bench/inputs.py`` of this script's own repository, into a temporary
directory), and, for every fixture of ``<root>/fixtures`` and every s in
1..L+1: ``check`` (state, common-support, and output where A exists),
``bounds`` (all five variants), ``oracle`` (state, and output where A
exists) and ``decompose``, each in floating point and with ``--rational``;
plus ``steer`` at K = 0, 1 and N to the all-ones state.

Usage:
    python scripts/report_digest.py --root . --seed 401 > change.txt
    python scripts/report_digest.py --root ../parent --seed 401 > parent.txt
    diff parent.txt change.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
VARIANTS = ("unconstrained", "sparse", "relaxed", "output", "common-support")
WORKLOADS = ("float-scale", "search-blocked", "exact-rational")


def benchmark_runs(seed, tmp):
    """(id, argv) of every operation of the benchmark workloads."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(BENCH))
    import inputs

    runs = []
    for workload in WORKLOADS:
        for op in inputs.build(workload, seed, os.path.join(tmp, workload)):
            runs.append((f"{workload}/{op.id}", op.argv))
    return runs


def fixture_runs(fixtures, tmp):
    """(id, argv) of the fixture battery described in the module docstring."""
    runs = []
    for path in sorted(fixtures.glob("*.json")):
        system = json.loads(path.read_text(encoding="utf-8"))
        n, l = len(system["D"]), len(system["H"][0])
        has_output = "A" in system
        target = os.path.join(tmp, f"{path.stem}.ones.json")
        with open(target, "w", encoding="utf-8") as fh:
            json.dump([1.0] * n, fh)
        for s in range(1, l + 2):
            base = [str(path), "-s", str(s)]
            plans = [("check", ["--output-mode", "state"]),
                     ("check", ["--output-mode", "common-support"])]
            plans += [("bounds", ["--variant", v]) for v in VARIANTS]
            plans.append(("oracle", ["--mode", "state"]))
            if has_output:
                plans.append(("check", ["--output-mode", "output"]))
                plans.append(("oracle", ["--mode", "output"]))
            plans.append(("decompose", []))
            for command, extra in plans:
                for arith in ([], ["--rational"]):
                    argv = [command] + base + extra + arith
                    runs.append((f"{path.stem}/{' '.join(argv[2:])}", argv))
            for k in (0, 1, n):
                argv = ["steer"] + base + ["--k", str(k), "--x-final", target]
                runs.append((f"{path.stem}/steer -s {s} --k {k}", argv))
    return runs


def digest(main, argv, placeholders):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = stdout.getvalue()
    for path, name in placeholders:
        text = text.replace(path, name)
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, required=True,
                        help="checkout whose src/ and fixtures/ are used")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the benchmark inputs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from sparse_ctrb.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        runs = benchmark_runs(args.seed, tmp) + fixture_runs(root / "fixtures", tmp)
        ids = [run_id for run_id, _ in runs]
        if len(set(ids)) != len(ids):
            raise SystemExit("report_digest: run ids are not unique")
        placeholders = [(tmp, "<tmp>"), (str(root), "<root>")]
        lines = []
        for run_id, run_argv in runs:
            code, sha = digest(cli_main, run_argv, placeholders)
            lines.append(f"{run_id}\t{code}\t{sha}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
