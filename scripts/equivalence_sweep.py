#!/usr/bin/env python3
"""Cross-validate the sparse controllability decision test against the oracle.

Samples deduplicated integer systems, runs the algebraic decision test and
the exhaustive schedule search on each (system, sparsity) pair, and reports
any disagreement.  The search runs twice, in float (``exact_min_k``) and in
rational arithmetic (``min_k_exact``), both to the horizon N*ceil(L/s), and
the two K* must agree too, with an inconclusive search a mismatch; so must
the float and exact decision tests (``sparse_pbh_test`` against
``sparse_controllable_exact``: verdict, rank condition and slack) and, once
per system, the float and exact minimal-polynomial degrees of D.  For every
K up to N*ceil(L/s), in both arithmetics, the matroid-intersection r*(K)
must be the best rank of the depth-first search alone: it reaches r*(K)
and not r*(K)+1.  Exits non-zero when a mismatch is found.

Usage:
    python scripts/equivalence_sweep.py --count 500 --seed 0
"""

import argparse
import itertools
import math
import sys
import time

import numpy as np

from sparse_ctrb import (
    InconclusiveError,
    OracleBudget,
    SystemModel,
    exact_min_k,
    min_k_exact,
    min_poly_degree,
    sparse_controllable_exact,
    sparse_pbh_test,
)
from sparse_ctrb.ctrb import _FloatSpan
from sparse_ctrb.exact import _ExactSpan, min_poly_degree_exact
from sparse_ctrb.linalg import DEFAULT_TOLERANCE
from sparse_ctrb.oracle import (
    _best_schedule,
    _common_independent,
    _Counter,
    _descending_blocks,
    _supports_of,
)


def sample_systems(count, seed, max_n, max_l, magnitude):
    rng = np.random.default_rng(seed)
    seen = set()
    systems = []
    while len(systems) < count:
        n = int(rng.integers(2, max_n + 1))
        l = int(rng.integers(1, max_l + 1))
        d = rng.integers(-magnitude, magnitude + 1, size=(n, n))
        h = rng.integers(-magnitude, magnitude + 1, size=(n, l))
        key = (n, l, d.tobytes(), h.tobytes())
        if key in seen:
            continue
        seen.add(key)
        systems.append(SystemModel(D=d.astype(float), H=h.astype(float)))
    return systems


def rstar_mismatches(sys_, s):
    """One line for each (arithmetic, K) with K up to N*ceil(L/s) where the
    depth-first search does not reach r*(K) or reaches r*(K)+1."""
    l = sys_.n_inputs
    supports = list(itertools.combinations(range(l), s))
    horizon = sys_.n_states * math.ceil(l / s)
    found = []
    for name, span in (("float", _FloatSpan(DEFAULT_TOLERANCE)), ("exact", _ExactSpan())):
        problems = _descending_blocks(sys_, s, span, False, horizon)
        for k, (blocks, caps) in enumerate(problems, start=1):
            counter = _Counter(OracleBudget(), "equivalence sweep")
            inside, _ = _common_independent(blocks, s, l, span, counter, k)
            r_star = span.leaf_rank(len(inside), blocks, _supports_of(inside, k))
            reached = [
                _best_schedule(blocks, caps, supports, t, span, counter, None, None)
                is not None
                for t in (r_star, r_star + 1)
            ]
            if reached != [True, False]:
                found.append(f"{name} K={k}: r*={r_star}, search reaches r*, r*+1: {reached}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500, help="systems to sample")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--max-n", type=int, default=3, help="largest state dimension")
    parser.add_argument("--max-l", type=int, default=3, help="largest input count")
    parser.add_argument(
        "--magnitude", type=int, default=1, help="entries drawn from [-m, m]"
    )
    parser.add_argument(
        "--max-s", type=int, default=2, help="largest sparsity level to test"
    )
    args = parser.parse_args(argv)

    systems = sample_systems(
        args.count, args.seed, args.max_n, args.max_l, args.magnitude
    )
    start = time.perf_counter()
    pairs = 0
    controllable = 0
    mismatches = []
    for idx, sys_ in enumerate(systems):
        q, q_exact = min_poly_degree(sys_.D), min_poly_degree_exact(sys_.D)
        if q != q_exact:
            mismatches.append((idx, "any", f"q={q}, exact q={q_exact}"))
        for s in range(1, min(args.max_s, sys_.n_inputs) + 1):
            pairs += 1
            rep = sparse_pbh_test(sys_, s)
            float_test = (rep.verdict, rep.rank_condition_holds, rep.slack)
            exact_test = sparse_controllable_exact(sys_, s)
            if float_test != exact_test:
                mismatches.append(
                    (idx, s, f"decision={float_test}, exact decision={exact_test}")
                )
            verdict = rep.verdict
            horizon = sys_.n_states * math.ceil(sys_.n_inputs / s)
            try:
                k, _ = exact_min_k(sys_, s)
                k_exact, _ = min_k_exact(sys_, s, max_k=horizon)
            except InconclusiveError as exc:
                mismatches.append((idx, s, f"inconclusive search: {exc}"))
            else:
                if verdict != (k is not None):
                    mismatches.append((idx, s, f"decision={verdict}, oracle_k={k}"))
                if k_exact != k:
                    mismatches.append(
                        (idx, s, f"oracle_k={k}, exact oracle_k={k_exact}")
                    )
            for what in rstar_mismatches(sys_, s):
                mismatches.append((idx, s, what))
            if verdict:
                controllable += 1
    elapsed = time.perf_counter() - start

    print(
        f"{len(systems)} systems, {pairs} (system, s) pairs, "
        f"{controllable} sparse-controllable, {elapsed:.1f}s"
    )
    for idx, s, what in mismatches:
        sys_ = systems[idx]
        print(f"MISMATCH at system {idx}, s={s}: {what}")
        print("  D =", sys_.D.tolist())
        print("  H =", sys_.H.tolist())
    if mismatches:
        print(f"{len(mismatches)} mismatches")
        return 1
    print(
        "float and exact decision tests, q, float oracle and exact oracle "
        "agree on every pair, and r*(K) is the search's best rank at every K"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
