#!/usr/bin/env python3
"""Run the full analysis battery over every fixture system.

For each JSON system in the fixtures directory this drives the CLI
subcommands that apply to it (check, bounds, oracle, decompose) and either
prints the reports or writes one ``<fixture>.<command>.json`` per run.

Usage:
    python scripts/fixture_report.py                # print to stdout
    python scripts/fixture_report.py --out reports  # write files
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sparse_ctrb.cli import main as cli_main

FIXTURES = ROOT / "fixtures"


def run_command(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def planned_runs(path, sparsity):
    system = json.loads(path.read_text(encoding="utf-8"))
    has_output = "A" in system
    runs = [("check", [str(path), "-s", str(sparsity)])]
    if has_output:
        runs.append(
            ("check-output", [str(path), "-s", str(sparsity), "--output-mode", "output"])
        )
    runs += [
        ("bounds", [str(path), "-s", str(sparsity), "--variant",
                    "output" if has_output else "sparse"]),
        ("oracle", [str(path), "-s", str(sparsity)]
                   + (["--mode", "output"] if has_output else [])),
        ("decompose", [str(path), "-s", str(sparsity)]),
    ]
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=pathlib.Path, default=FIXTURES)
    parser.add_argument("--out", type=pathlib.Path, help="directory for report files")
    parser.add_argument("-s", "--sparsity", type=int, default=1)
    args = parser.parse_args(argv)

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for path in sorted(args.fixtures.glob("*.json")):
        for label, run_argv in planned_runs(path, args.sparsity):
            command = label.split("-")[0]
            code, out, err = run_command([command] + run_argv)
            tag = f"{path.stem}.{label}"
            if code not in (0, 3):
                # Input errors are expected for e.g. bounds on uncontrollable
                # systems; record them rather than aborting.
                print(f"{tag}: exit {code}: {err.strip()}")
                failures += 1
                continue
            summary = err.strip()
            if args.out:
                (args.out / f"{tag}.json").write_text(out, encoding="utf-8")
                print(f"{tag}: exit {code} -> {args.out / (tag + '.json')}")
            else:
                print(f"# {tag} (exit {code}): {summary}")
                print(out)
    print(f"done; {failures} runs rejected their inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
