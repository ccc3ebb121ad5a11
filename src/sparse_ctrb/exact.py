"""Exact-rational arithmetic for every rank question of the package.

Entries are mapped to ``fractions.Fraction`` exactly (binary floats are
rationals, so a decimal such as 0.35 is decided at its binary value), and
each matrix is then scaled once by the lcm of its denominators to Python ints.
``_ExactSpan(sys)`` is the rational counterpart of ``ctrb._FloatSpan``: it
holds the system, with D and H converted once when it is built, and the
decisions and bounds are written once, in ``ctrb``, ``bounds`` and
``oracle``, against either span.  Its one elimination is ``extend``, a span
of pivot-reduced integer vectors grown column by column by fraction-free
steps; ranks, the rank condition (in exact arithmetic the eigenvalue rank
condition is equivalent to Kalman rank N, so no algebraic eigenvalues are
needed) and the minimal-polynomial degree all grow such a span.  The
``*_exact`` functions run the shared code with this span.  Intended for
fixture pinning and the CLI ``--rational`` mode; the entries of D^k grow
with k, so cost grows faster with dimension than on the float route.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .bounds import _s_star
from .ctrb import (
    SystemModel,
    _common_support,
    _output_kalman,
    _require_output_map,
    _sparse_test,
)
from .linalg import _integer, _powers
from .oracle import OracleBudget, _min_k

__all__ = [
    "to_fractions",
    "rank_exact",
    "controllable_exact",
    "sparse_controllable_exact",
    "common_support_exact",
    "output_kalman_exact",
    "min_poly_degree_exact",
    "s_star_exact",
    "min_k_exact",
]


def to_fractions(arr):
    """Exact conversion of a 2-D array of finite floats/ints to Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in arr)


def _integers(arr):
    """``to_fractions(arr)`` times the lcm of its denominators, as int rows:
    the same ranks and dependences."""
    rows = to_fractions(arr)
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(
        tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows
    )


def _matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


def _reduce(pivots, v):
    """``v`` with its entries at the pivot indices of the pivot vectors
    ``(idx, p)`` cleared by fraction-free steps ``p[idx]·v - v[idx]·p``, each
    divided by its content: a nonzero multiple of the rational elimination."""
    for idx, p in pivots:
        if v[idx] != 0:
            a, b = p[idx], v[idx]
            v = [a * x - b * y for x, y in zip(v, p)]
            content = math.gcd(*v)
            if content > 1:
                v = [x // content for x in v]
    return v


def _dims(blocks):
    """Dimension of the span after each block has been added to it."""
    pivots = ()
    for block in blocks:
        columns = range(len(block[0]) if block else 0)
        pivots, dim = _ExactSpan.extend(pivots, block, columns)
        yield dim


def _stalled_dim(blocks):
    """Dimension of the span at the first of ``blocks`` that adds nothing."""
    dim = None
    for grown in _dims(blocks):
        if grown == dim:
            return dim
        dim = grown


def _min_poly_degree(d):
    """Number of powers I, D, D^2, ... before the first dependent one."""
    n = len(d)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return _stalled_dim(
        tuple((x,) for row in p for x in row) for p in _powers(d, identity, _matmul)
    )


class _ExactSpan:
    """A system and exact arithmetic for the rank questions in ``ctrb``,
    ``bounds`` and ``oracle``: the protocol of ``ctrb._FloatSpan``.

    ``d`` and ``h`` are converted once, here (q is that of this ``d``), and
    ``a`` on first use.  Only ranks and dependences are asked of a span, so
    each of them, and each ``matmul``, holds its matrix up to a nonzero
    scale.  The running span is a list of pivot-reduced integer vectors, so
    its dimension is exact and a leaf of the schedule search needs no re-check.
    """

    what = "exact schedule search"
    matmul = staticmethod(_matmul)
    tol = None

    def __init__(self, sys: SystemModel):
        self.sys, self.d, self.h = sys, _integers(sys.D), _integers(sys.H)

    @functools.cached_property
    def a(self):
        return _integers(_require_output_map(self.sys))

    @staticmethod
    def rank(blocks):
        return _ExactSpan.ranks(blocks)[1]

    @staticmethod
    def ranks(blocks):
        """Rank of all blocks but the last, and of all blocks, from one
        elimination: the first is its dimension before the last block."""
        dims = [0, 0, *_dims(blocks)]
        return dims[-2], dims[-1]

    def rank_condition(self, support=None):
        """Kalman rank N of (D, H), or of (D, H_S) for a support S, grown
        block by block until a block adds nothing."""
        h = self.h if support is None else [[row[j] for j in support] for row in self.h]
        dim = _stalled_dim(_powers(self.d, h, _matmul))
        return dim == self.sys.n_states, None, None

    def min_poly_degree(self):
        return _min_poly_degree(self.d)

    @staticmethod
    def support_screen():
        return None

    @staticmethod
    def empty(block):
        return ()

    @staticmethod
    def extend(pivots, block, support):
        pivots = list(pivots)
        for j in support:
            if len(pivots) == len(block):  # the span is the whole space
                break
            v = _reduce(pivots, [row[j] for row in block])
            pivot_idx = next((i for i, x in enumerate(v) if x != 0), None)
            if pivot_idx is not None:
                pivots.append((pivot_idx, v))
        return pivots, len(pivots)

    @staticmethod
    def leaf_rank(dim, blocks, chosen):
        return dim

    @staticmethod
    def circuits(blocks, inside, outside):
        """For each column ``(d, j)`` of ``outside``: None when it is
        independent of the columns of ``inside``, else the positions in
        ``inside`` of the columns it is a combination of.  ``extend``'s
        elimination on columns extended by their coordinates over ``inside``,
        which the elimination carries along."""
        n, r = len(blocks[0]), len(inside)
        pivots = []
        for i, (d, j) in enumerate(inside):
            coords = [int(i == t) for t in range(r)]
            v = _reduce(pivots, [row[j] for row in blocks[d]] + coords)
            pivots.append((next(t for t in range(n) if v[t] != 0), v))
        found = []
        for d, j in outside:
            v = _reduce(pivots, [row[j] for row in blocks[d]] + [0] * r)
            found.append(
                None if any(v[:n]) else tuple(t for t in range(r) if v[n + t] != 0)
            )
        return found

    @staticmethod
    def cut_rank(dim, blocks, chosen):
        """The exact rank of the columns ``chosen`` picks, which the caller
        has counted (see ``oracle._blocked``)."""
        return dim


def rank_exact(m) -> int:
    """Exact rank of ``m``, its entries taken as the rationals they hold."""
    return _ExactSpan.rank([_integers(m)])


def controllable_exact(sys: SystemModel) -> bool:
    return _ExactSpan(sys).rank_condition()[0]


def sparse_controllable_exact(sys: SystemModel, s: int):
    """Returns (verdict, rank_condition_holds, slack) with exact arithmetic."""
    report = _sparse_test(_ExactSpan(sys), s)
    return report.verdict, report.rank_condition_holds, report.slack


def common_support_exact(sys: SystemModel, s: int):
    """Exact common-support verdict; enumeration without the float screen."""
    verdict, support, _ = _common_support(_ExactSpan(sys), s)
    return verdict, support


def output_kalman_exact(sys: SystemModel) -> bool:
    return _output_kalman(_ExactSpan(sys))


def min_poly_degree_exact(d_float) -> int:
    return _min_poly_degree(_integers(d_float))


def s_star_exact(sys: SystemModel) -> int:
    return _s_star(_ExactSpan(sys))


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
    max_k = _integer(max_k, f"max_k must be a positive integer, got {max_k!r}")
    budget = OracleBudget(max_k=max_k, max_enumerations=max_enumerations)
    k, witness, _ = _min_k(_ExactSpan(sys), s, budget, output)
    return k, witness

