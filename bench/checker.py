"""Independent checks of ``sparse-ctrb`` reports against the benchmark's truths.

``check(op, code, stdout)`` returns a list of problems, empty when the report
agrees with what the input was built to have.  The checker reads the system
files itself and recomputes what it can with numpy and the standard library
(``reference.py``); it never imports ``sparse_ctrb``.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

import numpy as np

import reference

# Above this dimension the brute-force minimality check of K* is skipped.
BRUTE_FORCE_MAX_N = 5
# Residual and comparison tolerances of the checker.
LAMBDA_REL = 1e-6
SIMILARITY_MAX = 1e-6
RESIDUAL_REL = 1e-6
FEASIBLE_ABS = 1e-8  # the program's default residual_abs


def _load(path):
    st = os.stat(path)
    return _read(path, st.st_mtime_ns, st.st_size)


@lru_cache(maxsize=None)
def _read(path, mtime_ns, size):
    """Parse a system or vector file; cached per file version."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return np.array(data, dtype=float)
    return {key: np.array(data[key], dtype=float) for key in ("D", "H", "A") if key in data}


def _flag(argv, name, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def check(op, code, stdout) -> list:
    """Problems with one CLI outcome; ``op`` carries argv, truth and files."""
    truth = op.truth
    if code is None:
        return [f"raised {stdout.strip().splitlines()[-1]}"]
    if "exit" in truth:
        if code != truth["exit"]:
            return [f"exit code {code}, expected {truth['exit']}"]
        return []
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("command") != op.argv[0]:
        problems.append(f"command {report.get('command')!r} != {op.argv[0]!r}")
    if report.get("exact") != ("--rational" in op.argv):
        problems.append("exact flag does not match --rational")
    system = _load(op.files["system"])
    s = int(_flag(op.argv, "-s"))
    checker = _CHECKS[op.argv[0]]
    problems += checker(op, report["result"], report.get("witnesses"), system, s)
    return problems


def _expect(result, truth, keys):
    return [
        f"{key} = {result.get(key)!r}, expected {truth[key]!r}"
        for key in keys
        if key in truth and result.get(key) != truth[key]
    ]


def _check_check(op, result, witnesses, system, s):
    truth = op.truth
    problems = _expect(result, truth, ("verdict", "rank_condition_holds", "slack"))
    d, h = system["D"], system["H"]
    n = d.shape[0]
    mode = _flag(op.argv, "--output-mode", "state")
    if mode == "common-support" and result.get("verdict"):
        support = (witnesses or {}).get("support")
        if support is None or len(support) != s:
            problems.append(f"common support {support!r} is not of size {s}")
        elif reference.kalman_rank(d, h[:, list(support)]) != n:
            problems.append(f"common support {support} does not control the system")
    if mode == "state" and witnesses and "lambda" in witnesses:
        lam = complex(*witnesses["lambda"])
        z = np.array([complex(*v) for v in witnesses["z"]])
        pencil = np.hstack([lam * np.eye(n) - d, h])
        scale = max(1.0, float(np.linalg.norm(pencil, 2))) * float(np.linalg.norm(z))
        if float(np.linalg.norm(z @ pencil)) > LAMBDA_REL * scale:
            problems.append("witness z is not a left null vector of [lambda I - D, H]")
        if "witness_lambda" in truth:
            want = complex(*truth["witness_lambda"])
            if abs(lam - want) > LAMBDA_REL * max(1.0, abs(want)):
                problems.append(f"witness lambda {lam} != {want}")
    elif "witness_lambda" in truth:
        problems.append("no witness lambda reported")
    return problems


def _check_bounds(op, result, witnesses, system, s):
    return _expect(result, op.truth, ("lower", "upper", "q", "s_star"))


def _check_decompose(op, result, witnesses, system, s):
    problems = _expect(result, op.truth, ("R", "r", "R_s"))
    d, h = system["D"], system["H"]
    n = d.shape[0]
    t = np.array(result["T"], dtype=float)
    d_bar = np.array(result["D_bar"], dtype=float)
    h_bar = np.array(result["H_bar"], dtype=float)
    scale = max(1.0, float(np.linalg.norm(d, 2)))
    similarity = float(np.linalg.norm(t @ d_bar @ np.linalg.inv(t) - d, 2)) / scale
    if not similarity <= SIMILARITY_MAX:
        problems.append(f"T D_bar T^-1 - D is {similarity:.3e} of |D|")
    if not float(np.linalg.norm(t @ h_bar - h)) <= SIMILARITY_MAX * max(1.0, float(np.linalg.norm(h))):
        problems.append("T H_bar differs from H")
    labels = result["classification"]
    counts = [labels.count(c) for c in ("sparse_controllable", "sparse_uncontrollable", "uncontrollable")]
    if len(labels) != n or counts != [result["R_s"], result["R"] - result["R_s"], n - result["R"]]:
        problems.append("classification does not match R, R_s and N")
    return problems


def _check_oracle(op, result, witnesses, system, s):
    truth = op.truth
    problems = []
    k_star = result.get("k_star")
    if result.get("inconclusive"):
        return ["oracle reported inconclusive"]
    if "k_star" in truth and k_star != truth["k_star"]:
        problems.append(f"k_star = {k_star!r}, expected {truth['k_star']!r}")
    if "k_star_range" in truth:
        lo, hi = truth["k_star_range"]
        if k_star is None or not lo <= k_star <= hi:
            problems.append(f"k_star = {k_star!r}, expected within [{lo}, {hi}]")
    if k_star is None:
        return problems
    schedule = (witnesses or {}).get("schedule")
    if schedule is None or len(schedule) != k_star:
        return problems + [f"witness schedule {schedule!r} does not have {k_star} steps"]
    d, h = system["D"], system["H"]
    l = h.shape[1]
    if any(len(sup) > s or any(not 0 <= j < l for j in sup) for sup in schedule):
        return problems + [f"witness schedule {schedule} breaks |S_i| <= {s} or 0 <= j < L"]
    output = _flag(op.argv, "--mode") == "output"
    a = system["A"] if output else None
    target = a.shape[0] if output else d.shape[0]
    supports = [tuple(sup) for sup in schedule]
    if "--rational" in op.argv and not output:
        got = reference.exact_rank(reference.exact_scheduled_matrix(d, h, supports))
    else:
        got = reference.svd_rank(reference.scheduled_matrix(d, h, supports, a))
    if got < target:
        problems.append(f"witness schedule reaches rank {got} < {target}")
    if d.shape[0] <= BRUTE_FORCE_MAX_N and k_star > 1:
        if reference.some_schedule_reaches(d, h, s, k_star - 1, target, a):
            problems.append(f"a schedule of {k_star - 1} steps already reaches rank {target}")
    return problems


def _check_steer(op, result, witnesses, system, s):
    truth = op.truth
    problems = []
    d, h = system["D"], system["H"]
    n, l = h.shape
    target = _load(op.files["target"])
    k = int(_flag(op.argv, "--k"))
    schedule = result["schedule"]
    inputs = np.array(result["inputs"], dtype=float).reshape(k, l)
    if len(schedule) != k:
        problems.append(f"schedule has {len(schedule)} steps, expected {k}")
    for step, sup in enumerate(schedule):
        if len(sup) > s:
            problems.append(f"step {step} uses {len(sup)} > {s} channels")
        off = [j for j in range(l) if j not in sup and inputs[step, j] != 0.0]
        if off:
            problems.append(f"step {step} drives channels {off} outside its support")
    x = np.zeros(n)
    states = [x]
    for u in inputs:
        x = d @ x + h @ u
        states.append(x)
    trajectory = np.array(result["trajectory"], dtype=float)
    scale = max(1.0, float(np.linalg.norm(target)))
    if trajectory.shape != (k + 1, n) or not np.allclose(trajectory, np.array(states), rtol=RESIDUAL_REL, atol=FEASIBLE_ABS * scale):
        problems.append("reported trajectory differs from re-simulated one")
    residual = float(np.linalg.norm(target - x))
    reported = result["residual"]
    if abs(reported - residual) > RESIDUAL_REL * residual + FEASIBLE_ABS * scale:
        problems.append(f"residual {reported:.6e} reported, {residual:.6e} re-simulated")
    feasible = residual <= FEASIBLE_ABS * scale
    if result["feasible"] != feasible:
        problems.append(f"feasible = {result['feasible']} for residual {residual:.3e}")
    if "feasible" in truth and result["feasible"] != truth["feasible"]:
        problems.append(f"feasible = {result['feasible']}, expected {truth['feasible']}")
    if "residual_at_least" in truth and residual < truth["residual_at_least"] * (1 - RESIDUAL_REL):
        problems.append(f"residual {residual:.6e} below the reachable-set gap {truth['residual_at_least']:.6e}")
    return problems


_CHECKS = {
    "check": _check_check,
    "bounds": _check_bounds,
    "decompose": _check_decompose,
    "oracle": _check_oracle,
    "steer": _check_steer,
}
