"""The scripts under ``scripts/`` import private names of the package, so
each is run, or for the long ones imported, in a child process."""

import os
import subprocess
import sys

import pytest

from tests.conftest import FIXTURES

ROOT = FIXTURES.parent


def _python(*args, hash_seed=None):
    # No PYTHONPATH: each script finds the package as it is run from a shell,
    # and no SPARSE_CTRB_TOL: the scripts run at the default tolerance.
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "SPARSE_CTRB_TOL")
    }
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["equivalence_sweep.py", "--count", "20", "--seed", "3"],
        ["bounds_vs_oracle.py", "--count", "10"],
        ["fixture_report.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    proc = _python(str(ROOT / "scripts" / argv[0]), *argv[1:])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("name", ["staircase_crosscheck.py", "report_digest.py"])
def test_script_imports(name):
    # Both guard main(); a full cross-check takes about 11 s on a 2-vCPU host.
    load = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='imported')"
    proc = _python("-c", load, str(ROOT / "scripts" / name))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_report_digest_is_byte_stable():
    # The whole battery, about 2.5 s a run on a 2-vCPU host: string hashing
    # may not reach a report, and no run may crash.
    script = str(ROOT / "scripts" / "report_digest.py")
    argv = [script, "--root", str(ROOT), "--seed", "401"]
    first, second = (_python(*argv, hash_seed=seed) for seed in ("1", "2"))
    assert first.returncode == 0, first.stderr[-2000:]
    assert second.returncode == 0, second.stderr[-2000:]
    assert first.stdout and first.stdout == second.stdout
