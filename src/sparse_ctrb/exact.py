"""Exact-rational backend for rank-based controllability decisions.

Entries are mapped to ``fractions.Fraction`` exactly (binary floats are
rationals), and every decision below reduces to exact matrix ranks: in exact
arithmetic the eigenvalue rank condition is equivalent to the Kalman rank
test, so no algebraic eigenvalues are needed.  The minimal schedule length
(:func:`min_k_exact`) is not searched here: ``_ExactSpan`` supplies rational
arithmetic to the one schedule search in ``oracle``.  Intended for
desk-scale fixture pinning and the CLI ``--rational`` mode; cost grows
quickly with dimension.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ctrb import SystemModel, _check_sparsity, _require_output_map
from .errors import UncontrollableSystemError
from .oracle import OracleBudget, _min_k, _partition_horizon

__all__ = [
    "to_fractions",
    "rank_exact",
    "controllable_exact",
    "sparse_controllable_exact",
    "common_support_exact",
    "output_kalman_exact",
    "output_sparse_rank_holds_exact",
    "min_poly_degree_exact",
    "s_star_exact",
    "min_k_exact",
    "bound_quantities_exact",
]


def to_fractions(arr):
    """Exact conversion of a 2-D array of finite floats/ints to Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in arr)


def _matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _hstack(mats):
    mats = [m for m in mats if m and len(m[0])]
    if not mats:
        return ()
    return tuple(tuple(itertools.chain(*rows)) for rows in zip(*mats))


def _identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def _columns(m, support):
    return tuple(tuple(row[j] for j in support) for row in m)


def rank_exact(m) -> int:
    """Exact rank by fraction-pivoted Gaussian elimination."""
    rows = [list(row) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c] != 0:
                f = rows[i][c] / pivot[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        r += 1
        if r == nrows:
            break
    return r


def _power_blocks(d, h, k):
    """[H, D H, ..., D^(k-1) H] in ascending power order."""
    blocks = [h]
    for _ in range(k - 1):
        blocks.append(_matmul(d, blocks[-1]))
    return blocks


def _ctrb(d, h, k):
    return _hstack(_power_blocks(d, h, k)[::-1])


def controllable_exact(sys: SystemModel) -> bool:
    d, h = to_fractions(sys.D), to_fractions(sys.H)
    n = sys.n_states
    return rank_exact(_ctrb(d, h, n)) == n


def sparse_controllable_exact(sys: SystemModel, s: int):
    """Returns (verdict, rank_condition_holds, slack) with exact arithmetic."""
    _check_sparsity(sys, s)
    d, h = to_fractions(sys.D), to_fractions(sys.H)
    n = sys.n_states
    rank_ok = rank_exact(_ctrb(d, h, n)) == n
    slack = s + rank_exact(d) - n
    return rank_ok and slack >= 0, rank_ok, slack


def common_support_exact(sys: SystemModel, s: int):
    """Exact common-support verdict; enumeration replaces the float screen."""
    _check_sparsity(sys, s)
    d, h = to_fractions(sys.D), to_fractions(sys.H)
    n = sys.n_states
    for support in itertools.combinations(range(sys.n_inputs), s):
        if rank_exact(_ctrb(d, _columns(h, support), n)) == n:
            return True, support
    return False, None


def output_kalman_exact(sys: SystemModel) -> bool:
    a = to_fractions(_require_output_map(sys))
    d, h = to_fractions(sys.D), to_fractions(sys.H)
    return rank_exact(_matmul(a, _ctrb(d, h, sys.n_states))) == len(a)


def output_sparse_rank_holds_exact(sys: SystemModel, s: int) -> bool:
    """Exact evaluation of the rank inequality ``s >= m - rank(A D)``."""
    a = to_fractions(_require_output_map(sys))
    _check_sparsity(sys, s)
    return s >= len(a) - rank_exact(_matmul(a, to_fractions(sys.D)))


def min_poly_degree_exact(d_float) -> int:
    d = to_fractions(d_float)
    n = len(d)
    vecs = [tuple(itertools.chain(*_identity(n)))]
    power = _identity(n)
    for q in range(1, n + 1):
        power = _matmul(power, d)
        stacked_prev = tuple(zip(*vecs))
        stacked_next = tuple(zip(*(vecs + [tuple(itertools.chain(*power))])))
        if rank_exact(stacked_next) == rank_exact(stacked_prev):
            return q
        vecs.append(tuple(itertools.chain(*power)))
    return n


def s_star_exact(sys: SystemModel) -> int:
    d, h = to_fractions(sys.D), to_fractions(sys.H)
    n, l = sys.n_states, sys.n_inputs
    if rank_exact(_ctrb(d, h, n)) != n:
        raise UncontrollableSystemError("S* undefined: system is not controllable")
    for size in range(1, l + 1):
        for support in itertools.combinations(range(l), size):
            if rank_exact(_ctrb(d, _columns(h, support), n)) == n:
                return size
    raise AssertionError("unreachable: full support is controllable")


class _ExactSpan:
    """Exact arithmetic for the schedule search in ``oracle``.

    The running span is a list of pivot-reduced rational vectors, so its
    dimension is exact and a leaf needs no re-check.
    """

    what = "exact schedule search"
    matrix = staticmethod(to_fractions)
    matmul = staticmethod(_matmul)

    @staticmethod
    def rank(blocks):
        return rank_exact(_hstack(blocks))

    @staticmethod
    def empty(block):
        return ()

    @staticmethod
    def extend(pivots, block, support):
        pivots = list(pivots)
        for j in support:
            v = [row[j] for row in block]
            for idx, p in pivots:
                if v[idx] != 0:
                    f = v[idx] / p[idx]
                    v = [a - f * b for a, b in zip(v, p)]
            pivot_idx = next((i for i, x in enumerate(v) if x != 0), None)
            if pivot_idx is not None:
                pivots.append((pivot_idx, v))
        return pivots, len(pivots)

    @staticmethod
    def leaf_rank(dim, blocks, chosen):
        return dim

    @staticmethod
    def horizon(sys, s, output):
        return _partition_horizon(sys, s)


def min_k_exact(
    sys: SystemModel,
    s: int,
    max_k: int,
    max_enumerations: int = 1_000_000,
    output: bool = False,
):
    """Exact minimal schedule length, or (None, None) if none within max_k.

    Runs the schedule search of ``oracle`` in rational arithmetic; the
    witness is the lexicographically smallest full-rank schedule at the
    minimal K.  With ``output=True`` the blocks are mapped through A and the
    target rank is the output dimension.
    """
    if not (isinstance(max_k, int) and max_k >= 1):
        raise ValueError(f"max_k must be a positive integer, got {max_k!r}")
    budget = OracleBudget(max_k=max_k, max_enumerations=max_enumerations)
    k, witness, _ = _min_k(sys, s, budget, _ExactSpan(), output)
    return k, witness


def bound_quantities_exact(sys: SystemModel):
    """Exact integer quantities feeding the steering-time bound formulas."""
    d, h = to_fractions(sys.D), to_fractions(sys.H)
    out = {
        "n": sys.n_states,
        "l": sys.n_inputs,
        "q": min_poly_degree_exact(sys.D),
        "r_h": rank_exact(h),
        "r_d": rank_exact(d),
        "m": None,
        "r_ah": None,
    }
    if sys.A is not None:
        a = to_fractions(sys.A)
        out["m"] = sys.n_outputs
        out["r_ah"] = rank_exact(_matmul(a, h))
    return out
