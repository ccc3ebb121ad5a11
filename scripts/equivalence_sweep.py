#!/usr/bin/env python3
"""Cross-validate the sparse controllability decision test against the oracle.

Samples deduplicated integer systems, runs the algebraic decision test and
the oracle on each (system, sparsity) pair, and reports any disagreement.
The sample holds ``--count`` dense systems drawn by the flags and as many
sparse ones (N <= 5, L <= 4, entries in -2..2, about half of them zero), on
which the best schedules often need an exchange.  The oracle runs twice, in
float (``exact_min_k``) and in rational arithmetic (``min_k_exact``), both
to the horizon N*ceil(L/s), and the two K* must agree too, with an
inconclusive search a mismatch.  Each witness, float and exact, must be the
first schedule at its K* of the exhaustive depth-first search kept in
``tests/reference_search.py`` (on the sparse sample, unless that search
runs out of its budget; counted).  The float and exact decision tests
(``sparse_pbh_test`` against ``sparse_controllable_exact``: verdict, rank
condition and slack) must agree as well, and so, once per system, must the
float and exact minimal-polynomial degrees of D.  In each arithmetic the
verdict-only test (``ctrb._sparse_verdict``) must give the report's verdict,
and the span's witness-free ``holds`` its rank condition.  For every K up
to N*ceil(L/s), in both
arithmetics, the matroid-intersection r*(K) must be the best rank of the
depth-first search alone: it reaches r*(K) and not r*(K)+1 (on the sparse
sample, unless that search runs out of its budget; counted); and the
schedule of ``greedy_support_schedule`` must have exact rank r*(K).  In
each arithmetic, once a K > N is ruled out by the rank of all blocks or by
the paper's inequality (where the oracle's walk closes), every later K must
be ruled out by one of the two, with r*(K) below N.  The summary counts the
(arithmetic, K) pairs that the oracle's pre-check by the paper's rank
inequality rules out, and those that the kernel's cut does.
Exits non-zero when a mismatch is found.

Usage:
    python scripts/equivalence_sweep.py --count 500 --seed 0
"""

import argparse
import collections
import itertools
import math
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # tests.reference_search
sys.path.insert(0, str(ROOT / "src"))

from sparse_ctrb import (
    BudgetExceededError,
    InconclusiveError,
    OracleBudget,
    SystemModel,
    exact_min_k,
    greedy_support_schedule,
    min_k_exact,
    min_poly_degree,
    sparse_controllable_exact,
    sparse_pbh_test,
)
from sparse_ctrb.ctrb import _FloatSpan, _sparse_verdict
from sparse_ctrb.exact import _ExactSpan, min_poly_degree_exact
from sparse_ctrb.linalg import DEFAULT_TOLERANCE
from sparse_ctrb.oracle import (
    _blocked,
    _common_independent,
    _Counter,
    _descending_blocks,
    _ruled_out,
    _SETTLED,
    _supports_of,
)
from tests.reference_search import _best_schedule, _within_reach

SPARSE_N, SPARSE_L, SPARSE_MAGNITUDE = 5, 4, 2
SEARCH_BUDGET = 20_000


def sample_systems(count, seed, max_n, max_l, magnitude, sparse=False):
    """``count`` distinct integer systems; with ``sparse`` each entry is
    zero with probability one half and otherwise nonzero."""
    rng = np.random.default_rng(seed)
    seen = set()
    systems = []

    def draw(shape):
        if not sparse:
            return rng.integers(-magnitude, magnitude + 1, size=shape)
        nonzero = rng.integers(1, magnitude + 1, size=shape) * rng.choice([-1, 1], shape)
        return nonzero * (rng.random(shape) < 0.5)

    while len(systems) < count:
        n = int(rng.integers(2, max_n + 1))
        l = int(rng.integers(1, max_l + 1))
        d, h = draw((n, n)), draw((n, l))
        key = (n, l, d.tobytes(), h.tobytes())
        if key in seen:
            continue
        seen.add(key)
        systems.append(SystemModel(D=d.astype(float), H=h.astype(float)))
    return systems


def witness_free_mismatches(sys_, s, reports):
    """One line for each arithmetic whose verdict-only test or witness-free
    ``holds`` differs from its report; ``reports`` maps ``"float"`` and
    ``"exact"`` to the report's (verdict, rank condition)."""
    found = []
    for name, span in (
        ("float", _FloatSpan(sys_, DEFAULT_TOLERANCE)), ("exact", _ExactSpan(sys_))
    ):
        got = (_sparse_verdict(span, s), span.holds())
        if got != reports[name]:
            found.append(
                f"{name} verdict-only test and holds {got}, report {reports[name]}"
            )
    return found


def witness_mismatches(sys_, s, witnesses, sparse, unchecked):
    """One line for each arithmetic whose oracle witness at its K* is not
    the depth-first search's first schedule of rank N at that K.
    ``witnesses`` maps ``"float"`` and ``"exact"`` to ``(K*, supports)``.
    The search has the budget of ``rstar_mismatches``; on the ``sparse``
    sample running out of it goes to ``unchecked``."""
    supports = list(itertools.combinations(range(sys_.n_inputs), s))
    budget = OracleBudget(max_enumerations=SEARCH_BUDGET) if sparse else OracleBudget()
    found = []
    for name, span in (
        ("float", _FloatSpan(sys_, DEFAULT_TOLERANCE)), ("exact", _ExactSpan(sys_))
    ):
        k, witness = witnesses[name]
        if k is None:
            continue
        *_, (blocks, caps) = _descending_blocks(span, s, False, k)
        counter = _Counter(budget, "reference search")
        try:
            reference = _best_schedule(
                blocks, caps, supports, sys_.n_states, span, counter
            )
        except BudgetExceededError:
            if sparse:
                unchecked["witness"] += 1
            else:
                found.append(f"{name} K*={k}: the reference search ran out of budget")
            continue
        if reference != witness:
            found.append(f"{name} K*={k}: witness {witness}, reference search {reference}")
    return found


def reaches(blocks, caps, supports, target, span, budget):
    """Whether the depth-first search alone finds a schedule of rank
    ``target`` within ``budget``."""
    counter = _Counter(budget, "reference search")
    return _within_reach(blocks, caps, target, span) and (
        _best_schedule(blocks, caps, supports, target, span, counter) is not None
    )


def exact_rank(blocks, supports):
    """Exact rank of the columns that ``supports`` picks from exact ``blocks``."""
    basis, dim = (), 0
    for block, support in zip(blocks, supports):
        basis, dim = _ExactSpan.extend(basis, block, support)
    return dim


def rstar_mismatches(sys_, s, sparse, unchecked, cuts):
    """One line for each (arithmetic, K) with K up to N*ceil(L/s) where the
    depth-first search does not reach r*(K) or reaches r*(K)+1, and for each
    K where the steering schedule's exact rank is not the exact r*(K).  On
    the dense sample the search has the oracle's default budget, and every
    disagreement, running out included, is a mismatch.  ``cuts`` counts the
    (arithmetic, K) that the oracle's inequality cut rules out and those
    that pass its pre-checks and the kernel's cut rules out; the search's
    own pre-check stays the cut-free ``_within_reach``.  On the ``sparse``
    sample a K where the search runs out of ``SEARCH_BUDGET`` extensions
    goes to ``unchecked`` instead.  After an arithmetic's closing K, the
    first K > N that the rank of all blocks or the inequality rules out, a
    K with r*(K) = N or ruled otherwise is a mismatch too."""
    l, n = sys_.n_inputs, sys_.n_states
    supports = list(itertools.combinations(range(l), s))
    horizon = n * math.ceil(l / s)
    found, closing = [], {}
    budget = OracleBudget(max_enumerations=SEARCH_BUDGET) if sparse else OracleBudget()
    float_span, exact_span = _FloatSpan(sys_, DEFAULT_TOLERANCE), _ExactSpan(sys_)
    problems = zip(
        _descending_blocks(exact_span, s, False, horizon),
        _descending_blocks(float_span, s, False, horizon),
    )
    for k, ((exact_blocks, exact_caps), (float_blocks, float_caps)) in enumerate(
        problems, start=1
    ):
        for name, span, blocks, caps in (
            ("exact", exact_span, exact_blocks, exact_caps),
            ("float", float_span, float_blocks, float_caps),
        ):
            counter = _Counter(OracleBudget(), "equivalence sweep")
            inside, cut = _common_independent(blocks, s, span, counter)
            ruling = _ruled_out(blocks, caps, s, n, span, True)
            if ruling == "inequality":
                cuts["inequality"] += 1
            elif ruling is None and len(inside) < n:
                dim = sum(1 for x in inside if x in cut)
                cuts["kernel"] += _blocked(blocks, s, n, span, dim, _supports_of(cut, k))
            r_star = span.leaf_rank(len(inside), blocks, _supports_of(inside, k))
            if name == "exact":
                exact_r_star = r_star
            if name in closing and (r_star >= n or ruling not in _SETTLED):
                found.append(
                    f"{name} K={k}: past the closing K={closing[name]}, "
                    f"r*={r_star} and ruled out by {ruling}"
                )
            if k > n and ruling in _SETTLED:
                closing.setdefault(name, k)
            try:
                reached = [
                    reaches(blocks, caps, supports, t, span, budget)
                    for t in (r_star, r_star + 1)
                ]
            except BudgetExceededError:
                if sparse:
                    unchecked["budget"] += 1
                else:
                    found.append(f"{name} K={k}: the reference search ran out of budget")
                continue
            if reached != [True, False]:
                found.append(f"{name} K={k}: r*={r_star}, search reaches r*, r*+1: {reached}")
        steer = exact_rank(exact_blocks, greedy_support_schedule(sys_, s, k).supports)
        if steer != exact_r_star:
            found.append(f"K={k}: exact r*={exact_r_star}, steering schedule rank {steer}")
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
    ) + sample_systems(
        args.count, args.seed, SPARSE_N, SPARSE_L, SPARSE_MAGNITUDE, sparse=True
    )
    start = time.perf_counter()
    pairs = 0
    controllable = 0
    mismatches, unchecked, cuts = [], collections.Counter(), collections.Counter()
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
            reports = {"float": float_test[:2], "exact": exact_test[:2]}
            for what in witness_free_mismatches(sys_, s, reports):
                mismatches.append((idx, s, what))
            verdict = rep.verdict
            horizon = sys_.n_states * math.ceil(sys_.n_inputs / s)
            sparse = idx >= args.count
            try:
                k, schedule = exact_min_k(sys_, s)
                k_exact, witness_exact = min_k_exact(sys_, s, max_k=horizon)
            except InconclusiveError as exc:
                mismatches.append((idx, s, f"inconclusive search: {exc}"))
            else:
                if verdict != (k is not None):
                    mismatches.append((idx, s, f"decision={verdict}, oracle_k={k}"))
                if k_exact != k:
                    mismatches.append(
                        (idx, s, f"oracle_k={k}, exact oracle_k={k_exact}")
                    )
                witnesses = {
                    "float": (k, schedule and schedule.supports),
                    "exact": (k_exact, witness_exact),
                }
                for what in witness_mismatches(sys_, s, witnesses, sparse, unchecked):
                    mismatches.append((idx, s, what))
            for what in rstar_mismatches(sys_, s, sparse, unchecked, cuts):
                mismatches.append((idx, s, what))
            if verdict:
                controllable += 1
    elapsed = time.perf_counter() - start

    print(
        f"{len(systems)} systems, {pairs} (system, s) pairs, "
        f"{controllable} sparse-controllable, {elapsed:.1f}s; r*(K) left "
        f"unchecked: {unchecked['budget']} sparse (arithmetic, K) pairs where "
        f"the reference search ran out of {SEARCH_BUDGET} extensions; witnesses "
        f"left unchecked: {unchecked['witness']} sparse (arithmetic, K*) pairs "
        f"where the reference search ran out; (arithmetic, K) pairs ruled out: "
        f"{cuts['inequality']} by the inequality cut, {cuts['kernel']} by the "
        "kernel's cut"
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
        "agree on every pair, the verdict-only test and the witness-free "
        "rank condition agree with each report, every witness checked is "
        "the search's first schedule at K*, r*(K) is the search's best rank and the "
        "steering schedule's rank at every K checked, and every K past a "
        "closing K is ruled out by the rank or the inequality pre-check"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
