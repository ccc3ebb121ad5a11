"""Exact-rational arithmetic for every rank question of the package.

Entries are mapped to ``fractions.Fraction`` exactly (binary floats are
rationals, so a decimal such as 0.35 is decided at its binary value), and
each matrix is then scaled once by the lcm of its denominators to Python ints;
a float array of integers below 2^53 is read straight through int64 to the
same ints.  ``_ExactSpan(sys)`` is the rational counterpart of
``ctrb._FloatSpan``: it holds the system, with D and H converted once when
it is built, and the decisions and bounds are written once, in ``ctrb``,
``bounds`` and ``oracle``, against either span.  Its one elimination is
``extend``, a span of pivot-reduced integer vectors grown column by column
by fraction-free steps; ranks and the rank condition (in exact arithmetic
the eigenvalue rank condition is equivalent to Kalman rank N, so no
algebraic eigenvalues are needed) grow such a span, reducing each Krylov
column at most once.  The Kalman rank (``holds``) multiplies D only into
the columns that grew the span at the power before: a column that depends
on those before it has every later power dependent too.  The walk's rank
pre-check (``ranks``) extends a running span of all blocks but H by the
new block only, recognising the walk's list by the identity of the blocks
it has absorbed, and on a state list skips the channels closed in it by
the same argument.  Products by D and A are formed in int64 where the
matrix's largest row-abs-sum times the largest entry of the other factor
is below 2^62, which bounds every partial sum, and in Python ints
otherwise; either way they come back as the same Python ints.  The
minimal-polynomial degree q comes from a modular pass certified by one
integer identity: the Krylov vectors v, D v, ... of a fixed vector that are
independent modulo a fixed prime are independent over Q, and so are I, D,
...; the monic relation found mod p, lifted and checked exactly on D,
bounds q from above (N independent vectors need no relation, as q <= N).
When the pass cannot certify q, the fraction-free elimination of vec(I),
vec(D), ... decides it.
The ``*_exact`` functions run the shared code with this span.  Intended for
fixture pinning and the CLI ``--rational`` mode; the eliminated vectors and
their integers grow with N, so cost grows faster with dimension than on the
float route.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

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


def _ratios(arr):
    """The rows of a 2-D array as ``(p, q)`` pairs, each entry being p/q.
    Object dtype turns the scalars of a numpy array into Python numbers.
    Entries without ``as_integer_ratio``, such as numpy integer scalars in a
    list, are integers, and ``int`` converts them, as numpy integer
    arithmetic wraps."""
    rows = np.asarray(arr, dtype=object).tolist()
    try:
        return [[x.as_integer_ratio() for x in row] for row in rows]
    except AttributeError:
        return [
            [x.as_integer_ratio() if hasattr(x, "as_integer_ratio") else (int(x), 1)
             for x in row]
            for row in rows
        ]


def to_fractions(arr):
    """Exact conversion of a 2-D array of finite numbers to Fractions whose
    numerators and denominators are Python ints, whatever the input type."""
    rows = _ratios(arr)
    return tuple(tuple(Fraction(int(p), int(q)) for p, q in row) for row in rows)


# Magnitude below which a float64 array is read straight through int64.
_FLOAT_INTEGRAL = 2.0**53


def _integers(arr):
    """``to_fractions(arr)`` times the lcm of its denominators, as int rows:
    the same ranks and dependences.  A 2-D float64 array whose entries are
    all integral and below 2^53 in magnitude (so finite, and exact in int64)
    has the ratios ``(x, 1)`` and the lcm 1, so it is read straight through
    int64 to the same rows; any other input goes through its ratios."""
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.ndim == 2
        and (np.abs(arr) < _FLOAT_INTEGRAL).all()
        and (arr == np.trunc(arr)).all()
    ):
        return tuple(map(tuple, arr.astype(np.int64).tolist()))
    ratios = _ratios(arr)
    scale = math.lcm(*(q for row in ratios for _, q in row))
    return tuple(tuple(p * (scale // q) for p, q in row) for row in ratios)


# Magnitude of a step's multipliers from which ``_reduce`` divides out the
# content at that step, and not only after the last one.
_CONTENT_AT = 2**256


def _primitive(v):
    content = math.gcd(*v)
    return [x // content for x in v] if content > 1 else v


def _reduce(pivots, v):
    """``v`` with its entries at the pivot indices of the pivot vectors
    ``(idx, p)`` cleared by fraction-free steps ``p[idx]·v - v[idx]·p``, and
    divided by its content: a nonzero multiple of the rational elimination.
    A step commutes with a positive scale of ``v``, so dividing the content
    out after the last step gives the same vector as after every step; it is
    also divided out after a step whose multipliers reach 2^256, which keeps
    large entries from compounding."""
    pending = False  # a step since the content was last divided out
    for idx, p in pivots:
        b = v[idx]
        if b:
            a = p[idx]
            v = [a * x - b * y for x, y in zip(v, p)]
            pending = -_CONTENT_AT < a < _CONTENT_AT and -_CONTENT_AT < b < _CONTENT_AT
            if not pending:
                v = _primitive(v)
    return _primitive(v) if pending else v


def _grows(pivots, v):
    """Whether ``v`` grows the span of ``pivots``: when it does, its reduced
    form is appended to them with its first nonzero index as the pivot."""
    v = _reduce(pivots, v)
    idx = next((i for i, x in enumerate(v) if x != 0), None)
    if idx is not None:
        pivots.append((idx, v))
    return idx is not None


def _columns(block):
    return range(len(block[0]) if block else 0)


def _spanned(pivots, blocks):
    """``pivots`` extended by every column of ``blocks``, in order."""
    for block in blocks:
        pivots, _ = _ExactSpan.extend(pivots, block, _columns(block))
    return pivots


def _stalled_dim(blocks):
    """Dimension of the span at the first of ``blocks`` that adds nothing."""
    dim, pivots = None, ()
    for block in blocks:
        pivots, grown = _ExactSpan.extend(pivots, block, _columns(block))
        if grown == dim:
            return dim
        dim = grown


# Bound on every int64 magnitude the exact route forms, sums included.
_INT64_SAFE = 2**62


def _matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


def _int64(m):
    """``(m64, growth)`` of the int matrix ``m``: its largest row-abs-sum,
    and ``m`` in int64 when that is below 2^62 (else None)."""
    growth = max((sum(map(abs, row)) for row in m), default=0)
    return (np.array(m, dtype=np.int64) if growth < _INT64_SAFE else None), growth


def _product(m, wide, block):
    """``m @ block`` as rows of Python ints, for ``wide = _int64(m)``.  Each
    entry of the product, and each partial sum of it, is at most the
    row-abs-sum of ``m`` times max|block| in magnitude, so while that is
    below 2^62 int64 forms the product exactly; past it Python ints do.
    The row-abs-sum is taken as at least 1, so that ``block`` itself fits
    in int64 even when ``m`` is zero."""
    m64, growth = wide
    size = max(map(abs, itertools.chain.from_iterable(block)), default=0)
    if m64 is None or not block or max(growth, 1) * size >= _INT64_SAFE:
        return _matmul(m, block)
    return tuple(map(tuple, (m64 @ np.array(block, dtype=np.int64)).tolist()))


# A prime below 2^31, so that a product of two residues fits in int64.
_PRIME = 2**31 - 1


def _mulmod(a, b):
    """``a @ b`` mod p for a residue matrix ``a`` and a residue matrix or
    vector ``b``; splitting ``b`` at 2^16 keeps every sum of products below
    2^63 while N < 2^15."""
    high, low = np.divmod(b, 1 << 16)
    return ((a @ high % _PRIME << 16) + a @ low) % _PRIME


@functools.cache
def _start(n):
    """The fixed vector of residues mod p that starts the Krylov sequence of
    ``_certified_degree`` at size ``n``, drawn once from a fixed seed."""
    start = np.random.default_rng(n).integers(0, _PRIME, n)
    start.flags.writeable = False
    return start


def _certified_degree(d, wide=None):
    """q of the integer matrix ``d`` from the Krylov sequence of one vector
    modulo ``_PRIME``, or None when it cannot certify q; ``wide`` hands in
    ``_int64(d)`` where the caller holds it.

    The columns v, D v, ..., D^N v mod p (v = ``_start(N)``) are eliminated
    in order, by Gauss-Jordan steps, up to the first one that depends on
    those before it.  Integer vectors independent mod p have a nonzero minor
    mod p, a nonzero integer, so D^i v for i < k independent mod p makes
    I, ..., D^(k-1) independent over Q: q >= k, and N of them give q = N
    (Cayley-Hamilton).  The first dependent D^k v, k < N, has coordinates
    over the earlier ones; lifted to (-p/2, p/2) they give a monic relation
    of degree k, and when it holds exactly for D itself, q = k.  It fails
    when v misses part of D's minimal polynomial mod p, or a coefficient is
    past p/2.  D^k is formed exactly in int64 while the largest
    row-abs-sum of D times max|D^(k-1)| is below 2^62.
    """
    n = len(d)
    d_mod = np.array([[x % _PRIME for x in row] for row in d], dtype=np.int64)
    krylov = [_start(n)]
    for _ in range(n):
        krylov.append(_mulmod(d_mod, krylov[-1]))
    m, rows, free = np.stack(krylov, axis=1), [], np.ones(n, dtype=np.int64)
    for k in range(n + 1):
        column = m[:, k] * free  # zero at the pivot rows
        nonzero = column.nonzero()[0]
        if not nonzero.size:
            break
        r = nonzero[0]
        pivot = m[r] * pow(int(column[r]), -1, _PRIME) % _PRIME
        m -= m[:, k, None] * pivot  # clears column k, row r included
        m %= _PRIME
        m[r] = pivot
        free[r] = 0
        rows.append(r)
    if k == n:
        return n
    # D^k v = sum_i m[rows[i], k] D^i v mod p
    coefficients = -m[rows, k] % _PRIME
    lifted = np.where(coefficients > _PRIME // 2, coefficients - _PRIME, coefficients)
    d64, growth = wide or _int64(d)
    powers, sizes = [np.eye(n, dtype=np.int64)], [1]
    while len(powers) <= k and growth * sizes[-1] < _INT64_SAFE:
        powers.append(d64 @ powers[-1])
        sizes.append(int(np.abs(powers[-1]).max()))
    return k if _is_relation(powers, sizes, lifted) else None


def _is_relation(powers, sizes, coefficients):
    """Whether D^k + sum_i c_i D^i = 0 for k = len(c), given the exact
    powers D^0, D^1, ... and their largest magnitudes: False when D^k was
    not formed or max|D^k| + sum_i |c_i| max|D^i| >= 2^62 (int64 could not
    hold the sum)."""
    k = len(coefficients)
    if len(powers) <= k:
        return False
    terms = zip(coefficients.tolist(), sizes)
    if sizes[k] + sum(abs(c) * size for c, size in terms) >= _INT64_SAFE:
        return False
    return not (powers[k] + np.tensordot(coefficients, powers[:k], 1)).any()


def _min_poly_degree(d, wide=None):
    """Number of powers I, D, D^2, ... before the first dependent one: the
    modular pass's certified answer, else the integer elimination's."""
    q = _certified_degree(d, wide)
    if q is not None:
        return q
    n = len(d)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return _stalled_dim(
        tuple((x,) for row in p for x in row) for p in _powers(d, identity, _matmul)
    )


class _ExactSpan:
    """A system and exact arithmetic for the rank questions in ``ctrb``,
    ``bounds`` and ``oracle``: the protocol of ``ctrb._FloatSpan``.

    ``d`` and ``h`` are converted once, here (q is that of this ``d``), and
    ``a`` on first use; D and A are held with their int64 copies and
    largest row-abs-sums (``_int64``), which ``matmul`` and the modular
    pass of q read.  Only ranks and dependences are asked of a span, so
    each of them, and each ``matmul``, holds its matrix up to a nonzero
    scale.  The span that ``extend`` grows is a list of pivot-reduced
    integer vectors, so its dimension is exact and a leaf of the schedule
    search needs no re-check.  No Krylov column is reduced twice: ``holds``
    drops each channel whose column closed, and ``ranks`` keeps the walk's
    span between calls and, on a state list, drops closed channels too,
    while ``rank`` eliminates from scratch and keeps nothing.
    ``min_poly_degree`` is certified modulo a prime where it can be, and
    eliminated otherwise (see ``_min_poly_degree``).  ``holds`` is the rank
    condition, which ``rank_condition`` reports with no witness, and
    ``capacity`` needs no elimination at s = 1, where a nonzero block has
    rank at least 1.
    """

    what = "exact schedule search"
    tol = None

    def __init__(self, sys: SystemModel):
        self.sys, self.d, self.h = sys, _integers(sys.D), _integers(sys.H)
        # D (and A, once read) with its int64 copy and largest row-abs-sum
        self._wide = [(self.d, _int64(self.d))]
        # ``ranks``'s running span: the blocks it absorbed, their pivots,
        # the channels closed in it, and whether it holds a state list
        self._running = (), (), frozenset(), False

    @functools.cached_property
    def a(self):
        a = _integers(_require_output_map(self.sys))
        self._wide.append((a, _int64(a)))
        return a

    def matmul(self, m, block):
        """``m @ block`` for ``m`` = D or A, in int64 where ``_product``'s
        bound proves it exact, else in Python ints; any other ``m`` in
        Python ints.  Either way the rows are tuples of Python ints."""
        for held, wide in self._wide:
            if m is held:
                return _product(m, wide, block)
        return _matmul(m, block)

    @staticmethod
    def rank(blocks):
        """Rank of the blocks, eliminated from scratch."""
        return len(_spanned((), blocks))

    def ranks(self, blocks, state=False):
        """Rank of all blocks but the last, and of all blocks.

        The blocks but the last are eliminated from the last of them up
        (the lowest power of the walk's list ``[D^(K-1) H, ..., H]``, times
        A for output targets, first) into a running span; all blocks are
        that span extended by the last block's columns.  The walk hands in
        its list again grown at the front, so when the blocks absorbed last
        time are, by identity, the lowest of this call's, only the new ones
        are eliminated.  Blocks are immutable tuples, and the span keeps a
        reference to each one it absorbed, so no new block can take over an
        absorbed one's identity.  Any other list is eliminated from scratch
        and becomes the running span.

        ``state`` says that the list is a state list, so that the running
        span absorbs D H, D^2 H, ... in that order.  The argument of
        ``holds`` then applies: once D^k h_j depends on the columns absorbed
        before it, D^(k+1) h_j depends on D times them, which were all
        absorbed before it too.  So a channel whose column closed is skipped
        at every later power, and the pivots stay those of the full
        elimination.  An output list A D^k H keeps every column, as A D^k h_j
        can depend on the columns before it while A D^(k+1) h_j does not; so
        does a list without the flag.  A span built under the other flag is
        not extended."""
        below = blocks[-2::-1]
        absorbed, pivots, closed, was_state = self._running
        done = len(absorbed)
        if (
            state != was_state
            or done > len(below)
            or any(a is not b for a, b in zip(absorbed, below))
        ):
            done, pivots, closed = 0, (), frozenset()
        pivots, closed = list(pivots), set(closed)
        for block in below[done:]:
            for j in _columns(block):
                if len(pivots) == len(block):  # the span is the whole space
                    break
                if j not in closed and not _grows(pivots, [row[j] for row in block]):
                    if state:
                        closed.add(j)
        self._running = below, tuple(pivots), frozenset(closed), state
        return len(pivots), len(_spanned(pivots, blocks[-1:]))

    def holds(self, support=None):
        """Kalman rank N of (D, H), or of (D, H_S) for a support S.

        The span grows one power at a time, columns in channel order, and D
        multiplies only the columns that grew it at the power before.  If
        D^k h_j depends on the columns before it (every lower power, then
        the lower channels of power k), D^(k+1) h_j depends on D times
        them, which all come before it too; so a channel whose column closed
        adds nothing at any later power, and its products would reduce to
        zero.  The pivots, and so each dimension, are those of eliminating
        every block, and the loop ends at the first power that adds
        nothing, or once the span is the whole space.  Each power's D·v is
        one ``matmul``: in int64 while the row-abs-sum of D times the
        largest entry of those columns is below 2^62."""
        n = self.sys.n_states
        h = self.h if support is None else [[row[j] for j in support] for row in self.h]
        pivots, columns = [], list(zip(*h))
        while True:
            grew = [v for v in columns if len(pivots) < n and _grows(pivots, v)]
            if len(pivots) == n or not grew:
                return len(pivots) == n
            columns = list(zip(*self.matmul(self.d, tuple(zip(*grew)))))

    def rank_condition(self, support=None):
        """``(holds, None, None)``: exact arithmetic needs no witness."""
        return self.holds(support), None, None

    def capacity(self, block, s):
        """``min(s, rank(block))``: at s = 1, 1 for a block with a nonzero
        entry, without an elimination."""
        if s == 1 and any(map(any, block)):
            return 1
        return min(s, self.rank([block]))

    def min_poly_degree(self):
        return _min_poly_degree(*self._wide[0])

    def d_rank(self):
        return self.rank([self.d])

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
            _grows(pivots, [row[j] for row in block])
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
    return _ExactSpan(sys).holds()


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

