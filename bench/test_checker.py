"""Tests of the benchmark's own checker: genuine reports pass, corrupted ones
are flagged.  Run from the repository root:

    python3 -m pytest -q bench/test_checker.py
"""

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from sparse_ctrb import cli  # noqa: E402


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    found = {}
    for workload in ("float-scale", "search-blocked"):
        workdir = tmp_path_factory.mktemp(workload)
        for op in inputs.build(workload, 0, str(workdir)):
            found[op.id] = op
    return found


def run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def corrupt(stdout, edit):
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report)


@pytest.mark.parametrize("op_id", [
    "ring-16/check", "ring-16/bounds", "ring-16/decompose", "ring-16/oracle",
    "ring-16/steer", "rank-blocked-16/check", "rank-blocked-16/bounds",
    "rank-blocked-16/steer", "ineq-blocked-16/decompose",
    "chain-4x3-s1/oracle", "chain-4x3-s1/oracle-output",
    "chain-4x3-s1/check-common-support", "ineq-blocked-3x3-s1/oracle",
])
def test_genuine_reports_pass(ops, op_id):
    op = ops[op_id]
    assert checker.check(op, *run(op)) == []


def test_known_fault_is_seen(ops):
    op = ops["spectral-16/decompose"]
    assert op.fault == "F2"
    assert any("R_s" in p for p in checker.check(op, *run(op)))


def test_wrong_k_star_flagged(ops):
    op = ops["ring-16/oracle"]
    code, out = run(op)

    def edit(report):
        report["result"]["k_star"] += 1
        report["witnesses"]["schedule"].insert(0, [])

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("k_star" in p for p in problems)


def test_non_minimal_k_star_flagged_by_brute_force(ops):
    op = ops["chain-4x3-s1/oracle-output"]
    code, out = run(op)
    truthless = copy.copy(op)
    truthless.truth = {}

    def edit(report):
        report["result"]["k_star"] += 1
        report["witnesses"]["schedule"].insert(0, [])

    problems = checker.check(truthless, code, corrupt(out, edit))
    assert any("already reaches" in p for p in problems)


def test_support_wider_than_s_flagged(ops):
    op = ops["chain-4x3-s1/oracle"]
    code, out = run(op)

    def edit(report):
        report["witnesses"]["schedule"][0] = [0, 1]

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("|S_i| <= 1" in p for p in problems)


def test_steer_support_wider_than_s_flagged(ops):
    op = ops["ring-16/steer"]
    code, out = run(op)

    def edit(report):
        report["result"]["schedule"][0] = [0, 1, 2]

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("channels" in p for p in problems)


def test_understated_residual_flagged(ops):
    op = ops["rank-blocked-16/steer"]
    code, out = run(op)

    def edit(report):
        report["result"]["residual"] /= 10.0

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("re-simulated" in p for p in problems)


def test_altered_inputs_flagged(ops):
    op = ops["ring-16/steer"]
    code, out = run(op)

    def edit(report):
        step, sup = next((i, s) for i, s in enumerate(report["result"]["schedule"]) if s)
        report["result"]["inputs"][step][sup[0]] += 1.0

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("trajectory" in p for p in problems)


def test_wrong_r_s_flagged(ops):
    op = ops["ineq-blocked-16/decompose"]
    code, out = run(op)

    def edit(report):
        report["result"]["R_s"] -= 1

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("R_s" in p for p in problems)


def test_broken_similarity_flagged(ops):
    op = ops["ring-16/decompose"]
    code, out = run(op)

    def edit(report):
        report["result"]["D_bar"][0][0] += 1e-3

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("T D_bar T^-1 - D" in p for p in problems)


def test_wrong_witness_lambda_flagged(ops):
    op = ops["rank-blocked-16/check"]
    code, out = run(op)

    def edit(report):
        report["witnesses"]["lambda"][0] += 0.1

    problems = checker.check(op, code, corrupt(out, edit))
    assert any("witness" in p for p in problems)


def test_wrong_exit_code_flagged(ops):
    op = ops["rank-blocked-16/bounds"]
    assert checker.check(op, 0, "{}") == ["exit code 0, expected 2"]


def _fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_exact_rank_matches_fraction_elimination():
    rng = np.random.default_rng(0)
    for _ in range(300):
        rows, cols = rng.integers(1, 7, 2)
        m = rng.integers(-2, 3, (rows, cols))
        if rows > 1 and rng.random() < 0.5:
            m[-1] = m[0] * 3 - m[1 % rows]
        assert reference.exact_rank(m.tolist()) == _fraction_rank(m.tolist())


def test_exact_systems_are_integer_with_unimodular_similarity():
    rng = np.random.default_rng(0)
    p, p_inv = inputs.unimodular(rng, 8)
    assert np.array_equal(p @ p_inv, np.eye(8, dtype=np.int64))
