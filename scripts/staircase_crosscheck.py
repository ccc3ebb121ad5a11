#!/usr/bin/env python3
"""Cross-check the float rank condition (the controllability staircase) and
the float minimal-polynomial degree q.

Two comparisons, one line per mismatch and a summary; exits 1 on any
mismatch:

* On the ring, rank-blocked and spectral systems of the benchmark's
  ``float-scale`` workload (N = 16, 32, 64, 128; inputs built by
  ``bench/inputs.py`` for three seeds, into a temporary directory), the
  verdict and witness eigenvalue of ``pbh_test`` against a reference written
  here: the eigenvalue probe sweep, ``rank([lambda*I - D, H]) < N`` at each
  of ``eigenvalue_probes(D)`` in order.  Witnesses must agree to 1e-6
  relative.  Every one of these D has N distinct eigenvalues, so
  ``min_poly_degree`` must return q = N.
* On integer systems ``(P J P^-1, P H_J)`` with unimodular P and Jordan
  blocks of size up to 6 (``bench/inputs.jordan_system``), N = 4..24, the
  verdict of ``pbh_test`` against exact Kalman rank (``controllable_exact``),
  and exact Kalman rank against an exact eigenvalue test written here:
  ``rank_exact([lambda*I - D, H]) == N`` at each distinct eigenvalue lambda
  of the Jordan structure, all of them integers.
  Each size also reports how many systems the staircase alone would call
  controllable (R = N) where ``pbh_test``'s eigenvalue probe sweep finds a
  rank drop; those are not mismatches, they show why the sweep is kept.
  Float q below the exact q of the Jordan structure (the sum over distinct
  eigenvalues of the largest block) is a mismatch: it would make the
  steering bound q * ceil(S*/s) invalid.  Float q above it only loosens the
  bound; each size reports how many systems it overcounts.  The exact
  route's q (``min_poly_degree_exact``, certified modulo a prime) must equal
  the exact q of the Jordan structure on every one of these systems.  The core
  dimension r of ``decompose`` is not checked: ``linalg.core_nilpotent`` is
  known to fold eigenvalues into its nilpotent part.

On every system of both sets the reference sweep also asks, at each probe
it ranks, whether the Cholesky screen of ``ctrb._probe_sweep`` certifies the
pencil full, through the Gram it assembles from the products of D and H
made once per system, as the sweep does.  Each size reports how many probes
the screen certified and how many it left to the SVD; a certified probe
whose SVD rank is below N is a mismatch.

Usage:
    python scripts/staircase_crosscheck.py
"""

import os
import pathlib
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.dont_write_bytecode = True  # leave bench/ as it is
ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402

from sparse_ctrb import (  # noqa: E402
    DEFAULT_TOLERANCE,
    SystemModel,
    controllable_exact,
    eigenvalue_probes,
    load_system,
    min_poly_degree,
    pbh_test,
    rank,
    rank_exact,
)
from sparse_ctrb.ctrb import _FloatSpan, _full_row_rank_screen, _Pencils  # noqa: E402
from sparse_ctrb.exact import min_poly_degree_exact  # noqa: E402

FAMILIES = ("ring-", "rank-blocked-", "spectral-")
SEEDS = (0, 1, 2)
JORDAN_SIZES = (4, 8, 12, 16, 20, 24)
JORDAN_PER_SIZE = 12


def probe_sweep(sys, screen, problems, name):
    """(holds, witness lambda) of the eigenvalue probe sweep.  ``screen``
    (certified, left to the SVD) adds up what the Cholesky screen says of
    each probe ranked; a certified probe of SVD rank below N goes into
    ``problems``."""
    n, pencils = sys.n_states, _Pencils(None, sys.D, sys.H)
    for lam in eigenvalue_probes(sys.D):
        pencil = np.hstack([lam * np.eye(n) - sys.D, sys.H.astype(complex)])
        full = rank(pencil) == n
        certified = _full_row_rank_screen(pencils, lam, DEFAULT_TOLERANCE)
        screen[0 if certified else 1] += 1
        if certified and not full:
            problems.append(f"{name}: screen certified rank-deficient probe {lam}")
        if not full:
            return False, complex(lam)
    return True, None


def benchmark_mismatches():
    """Mismatches against the probe sweep on the float-scale families, with
    the screen's (certified, left to the SVD) probe counts per N."""
    checked, problems, screens = 0, [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            out = os.path.join(tmp, str(seed))
            paths = {
                op.files["system"]
                for op in inputs.build("float-scale", seed, out)
                if op.id.startswith(FAMILIES)
            }
            for path in sorted(paths):
                sys_, _ = load_system(path)
                rep = pbh_test(sys_)
                name = f"seed {seed} {os.path.basename(path)}"
                screen = screens.setdefault(sys_.n_states, [0, 0])
                holds, lam = probe_sweep(sys_, screen, problems, name)
                checked += 1
                q = min_poly_degree(sys_.D)
                if q != sys_.n_states:
                    problems.append(f"{name}: q = {q}, not N = {sys_.n_states}")
                if rep.verdict != holds:
                    problems.append(f"{name}: staircase {rep.verdict}, sweep {holds}")
                elif lam is not None and abs(rep.witness_lambda - lam) > 1e-6 * max(
                    1.0, abs(lam)
                ):
                    problems.append(
                        f"{name}: witness {rep.witness_lambda} against sweep {lam}"
                    )
    return checked, problems, screens


def jordan_blocks(rng, n):
    """Jordan blocks (eigenvalue, size) of total size n, sizes up to 6 and
    eigenvalues in -3..3, so equal and defective eigenvalues are common."""
    blocks, left = [], n
    while left:
        size = int(rng.integers(1, min(6, left) + 1))
        blocks.append((int(rng.integers(-3, 4)), size))
        left -= size
    return blocks


def exact_q(blocks):
    """Minimal-polynomial degree of a Jordan matrix: the largest block of each
    distinct eigenvalue, summed."""
    largest = {}
    for lam, size in blocks:
        largest[lam] = max(largest.get(lam, 0), size)
    return sum(largest.values())


def exact_pbh(d, h, blocks):
    """Whether ``rank_exact([lambda*I - D, H]) == N`` at every distinct
    eigenvalue lambda of the Jordan ``blocks`` of the integer D."""
    n = len(d)
    return all(
        rank_exact(np.hstack([lam * np.eye(n, dtype=d.dtype) - d, h])) == n
        for lam in {lam for lam, _ in blocks}
    )


def jordan_mismatches():
    """Per N: (N, systems, uncontrollable ones, full staircases overturned by
    the probe sweep, float q above exact, the screen's (certified, left to
    the SVD) probe counts, mismatches) against exact Kalman rank and exact q
    on integer Jordan systems; the exact route's q must equal exact q, and
    the exact eigenvalue test must agree with exact Kalman rank."""
    rng = np.random.default_rng(0)
    rows = []
    for n in JORDAN_SIZES:
        uncontrollable, overturned, q_above, problems = 0, 0, 0, []
        screen = [0, 0]
        for _ in range(JORDAN_PER_SIZE):
            blocks = jordan_blocks(rng, n)
            columns = [
                [b for b in range(len(blocks)) if rng.random() < 0.6]
                for _ in range(int(rng.integers(1, 4)))
            ]
            d, h = inputs.jordan_system(rng, blocks, columns)
            sys_ = SystemModel(D=d.astype(float), H=h.astype(float))
            want = controllable_exact(sys_)
            got = pbh_test(sys_).verdict
            probe_sweep(sys_, screen, problems, f"N={n} blocks {blocks}")
            uncontrollable += not want
            big_r = _FloatSpan(sys_, DEFAULT_TOLERANCE)._staircase_of(None)[2]
            overturned += big_r == n and not got
            if got != want:
                problems.append(
                    f"N={n} blocks {blocks} columns {columns}: "
                    f"float {got}, exact {want}"
                )
            if exact_pbh(d, h, blocks) != want:
                problems.append(
                    f"N={n} blocks {blocks} columns {columns}: exact eigenvalue "
                    f"test {not want}, exact Kalman rank {want}"
                )
            q, q_exact = min_poly_degree(sys_.D), exact_q(blocks)
            q_above += q > q_exact
            if q < q_exact:
                problems.append(f"N={n} blocks {blocks}: float q {q} < exact {q_exact}")
            q_route = min_poly_degree_exact(sys_.D)
            if q_route != q_exact:
                problems.append(
                    f"N={n} blocks {blocks}: exact-route q {q_route} != {q_exact}"
                )
        rows.append(
            (n, JORDAN_PER_SIZE, uncontrollable, overturned, q_above, screen,
             problems)
        )
    return rows


def main():
    checked, bench_problems, screens = benchmark_mismatches()
    rows = jordan_mismatches()
    problems = bench_problems + [line for *_, found in rows for line in found]
    for line in problems:
        print(f"MISMATCH {line}")
    print(
        f"float-scale families: {checked} systems, "
        f"{len(bench_problems)} mismatches against the probe sweep, q = N or "
        f"the screen"
    )
    for n, (certified, svd) in sorted(screens.items()):
        print(
            f"float-scale families N={n}: screen certified {certified} probes, "
            f"left {svd} to the SVD"
        )
    for n, count, uncontrollable, overturned, q_above, screen, found in rows:
        print(
            f"integer Jordan systems N={n}: {count} systems ({uncontrollable} "
            f"uncontrollable, {overturned} full staircases overturned by the "
            f"sweep, float q above exact on {q_above}; screen certified "
            f"{screen[0]} probes, left {screen[1]} to the SVD), {len(found)} "
            f"mismatches against exact Kalman rank (the float verdict, or the "
            f"exact eigenvalue test, unequal to it) and exact q (float q below "
            f"it, or the exact route's q unequal to it) or the screen"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
