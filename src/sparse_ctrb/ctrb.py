"""Controllability tests for linear systems driven by sparse inputs.

The plant is ``x_k = D x_{k-1} + H h_k`` with state dimension N and L input
channels; at most ``s`` channels may be active per step.  An optional output
map ``y_k = A x_k`` enables the output-controllability variants.

The decisive characterization implemented here: the system is s-sparse
controllable iff the eigenvalue rank condition ``rank([lambda*I - D, H]) = N``
holds for every eigenvalue lambda of D and additionally ``N <= s + rank(D)``.
The rank condition holds everywhere iff the controllable subspace is the
whole space.  In floating point the staircase ``linalg._staircase`` computes
that subspace, and a full one is confirmed at the eigenvalue probes of D.

Each decision is written once, privately, against a span object that holds
a system in one arithmetic (``_FloatSpan`` here, ``exact._ExactSpan`` in
rationals); the public functions run it with ``_FloatSpan(sys, tol)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _as_matrix,
    _cut,
    _integer,
    _powers,
    _rank_of,
    _scheduled,
    _Spectrum,
    _square,
    _staircase,
    controllability_matrix,
    eigenvalue_probes,
    rank,
)

__all__ = [
    "SystemModel",
    "ControllabilityReport",
    "input_restriction",
    "pbh_test",
    "kalman_test",
    "sparse_pbh_test",
    "common_support_test",
    "output_kalman_test",
    "output_pbh_necessary",
    "output_sparse_necessary",
]


@dataclass(frozen=True)
class SystemModel:
    """Immutable container for a system (D, H) with optional output map A.

    Arrays are validated, converted to float64, and frozen (read-only views).
    ``A`` with at least as many rows as states is accepted with a warning:
    output controllability is only a relaxation when m < N.
    """

    D: np.ndarray
    H: np.ndarray
    A: Optional[np.ndarray] = None

    def __post_init__(self):
        d = _square(self.D, "D")
        h = _as_matrix(self.H, "H")
        if h.shape[0] != d.shape[0]:
            raise ValueError(
                f"H must have {d.shape[0]} rows to match D, got {h.shape[0]}"
            )
        if h.shape[1] < 1:
            raise ValueError("H must have at least one column")
        a = None
        if self.A is not None:
            a = _as_matrix(self.A, "A")
            if a.shape[1] != d.shape[0]:
                raise ValueError(
                    f"A must have {d.shape[0]} columns to match D, got {a.shape[1]}"
                )
            if a.shape[0] >= d.shape[0]:
                warnings.warn(
                    "output map has m >= N rows; output controllability does "
                    "not relax state controllability in this regime",
                    stacklevel=2,
                )
        for name, arr in (("D", d), ("H", h), ("A", a)):
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.D.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.H.shape[1]

    @property
    def n_outputs(self) -> Optional[int]:
        return None if self.A is None else self.A.shape[0]


@dataclass(frozen=True)
class ControllabilityReport:
    """Outcome of an eigenvalue rank-condition test.

    ``verdict`` is ``rank_condition_holds and inequality_holds``.  For the
    plain (non-sparse) test the inequality is vacuous and ``slack`` is None;
    for the sparse test ``slack = s + rank(D) - N`` (negative iff the
    inequality fails).  On a rank failure, ``witness_lambda`` is the first
    eigenvalue, in (real, imag) order, of the staircase's input-free block (or,
    when the staircase finds no such block, the first eigenvalue probe where
    the rank drops) and ``witness_z`` a left null vector with
    ``z^T [lambda*I - D, H] ~ 0``.
    """

    verdict: bool
    rank_condition_holds: bool
    inequality_holds: bool
    witness_lambda: Optional[complex]
    witness_z: Optional[np.ndarray]
    slack: Optional[int]
    tolerance: Tolerance


def input_restriction(sys: SystemModel, support) -> SystemModel:
    """System with H restricted to the given sorted tuple of column indices."""
    cols = tuple(support)
    if len(cols) == 0:
        raise ValueError("support must be non-empty")
    if any(not (0 <= j < sys.n_inputs) for j in cols):
        raise ValueError(f"support {cols} out of range for L={sys.n_inputs}")
    return SystemModel(D=sys.D, H=sys.H[:, list(cols)], A=sys.A)


def _lengths(m):
    """The length of each column of ``m``, as ``_unit`` measures it."""
    return np.sqrt((m * m).sum(0))


def _unit(m, lengths=None):
    """``m`` with each nonzero column scaled to unit length; ``lengths``
    hands in ``_lengths(m)`` where the caller has it."""
    if lengths is None:
        lengths = _lengths(m)
    return m / np.where(lengths > 0, lengths, 1.0)


class _FloatBasis:
    """An orthonormal basis ``columns`` grown by Gram-Schmidt; ``extend``
    replaces ``columns`` and never writes into it, so a ``copy`` shares it."""

    def __init__(self, columns):
        self.columns = columns

    @property
    def dim(self):
        return self.columns.shape[1]

    def copy(self):
        return _FloatBasis(self.columns)

    def extend(self, block, support):
        """``dim`` after Gram-Schmidt, run twice, on the columns ``support``
        of ``block``: a zero column is skipped, and one whose residual is
        within 1e-13 of its length is dependent."""
        basis = self.columns
        for col in block[:, list(support)].T:
            length = np.linalg.norm(col)
            if length == 0.0:
                continue
            v = col - basis @ (basis.T @ col)
            v = v - basis @ (basis.T @ v)
            residual = np.linalg.norm(v)
            if residual > 1e-13 * length:
                basis = np.column_stack([basis, v / residual])
        self.columns = basis
        return basis.shape[1]


class _FloatSpan:
    """A system in the floating-point arithmetic of every rank question.

    Decisions and bounds are written once against a span: it holds ``sys``
    and, in its arithmetic, ``d``, ``h`` and ``a`` (on demand; it raises
    when the system has no A), and answers ``rank`` (of a list of blocks),
    ``matmul``, ``rank_condition`` (of H, with a witness of a failure),
    ``holds`` (the same verdict without the witness, of H or of a support's
    columns, for callers that read only the verdict), ``min_poly_degree``
    (q of its D), ``d_rank`` (rank(D), here from the SVD that |D| takes) and
    ``support_screen`` (the necessary screen of the common-support
    test, None where the span has none); the witness loop in ``oracle``
    also grows an incremental basis (``basis``, here a ``_FloatBasis``) and
    asks ``leaf_rank``, the walk's pre-checks ``ranks`` (a function that the
    walk feeds its list) and ``capacity`` (of one block), and for
    matroid intersection and its cuts ``circuits`` and ``cut_rank``.  This span
    decides ranks at ``tol``, which its reports carry, and reads one
    spectrum of D and one set of D's products for the probe sweep's Grams;
    ``exact._ExactSpan`` answers the same in rationals.
    ``rank`` keeps the package's rule for the paper's own quantities.  The
    oracle ranks unit columns (``_unit``), as ``|D^p h|`` grows like
    ``|lambda|^p``, so ``matmul`` zeroes a product column that is rounding
    residue.  ``_FloatBasis`` grows by Gram-Schmidt, leaning to independence
    so that no cut drops a viable support, and a leaf counts only with
    ``leaf_rank``, the ``rank`` rule on its unit columns.  Every rank that
    bounds a leaf (``ranks``, the capacities, ``cut_rank``) is ``_count`` on
    unit columns: a leaf with a nonzero column has
    sigma_1 >= 1, so by interlacing that count on any superset of its
    columns is never below its rank.  At s = 1 the same
    count decides a capacity without an SVD (see ``capacity``).
    ``circuits`` (least squares on unit columns) only guides matroid
    intersection.
    """

    what = "schedule search"

    def __init__(self, sys: SystemModel, tol: Tolerance):
        self.sys, self.d, self.h, self.tol = sys, sys.D, sys.H, tol

    @property
    def a(self):
        return _require_output_map(self.sys)

    @functools.cached_property
    def _spectrum(self):
        return _Spectrum(self.d, self.tol)

    @functools.cached_property
    def _d_products(self):
        """D's share of every state pencil's Gram (E = I, F = D), made once."""
        return _pencil_products(None, self.d)

    def matmul(self, a, b):
        """``a @ b``, zero in each column below the cut of size ``len(b)``
        times that column of ``|a| |b|``, a bound on its rounding error."""
        product, bound = a @ b, abs(a) @ abs(b)
        cut = _cut(1, len(b), self.tol) ** 2 * (bound * bound).sum(0)
        residue = (product * product).sum(0) < cut
        return np.where(residue & np.isfinite(cut), 0.0, product)

    def rank(self, blocks):
        return rank(np.hstack(blocks), self.tol)

    def _count(self, units):
        """The rank of unit columns: scale 1, size rows."""
        sigma = np.linalg.svd(units, compute_uv=False)
        return _rank_of(sigma, 1, len(units), self.tol)

    def ranks(self, state):
        """The walk's rank pre-check: a function of a list of blocks giving
        ``(None, count)``, the count on unit columns (see above) of all
        blocks; ``cut_rank`` counts the rank of a float cut itself.  Only
        the exact span reads ``state``."""
        return lambda blocks: (None, self._count(_unit(np.hstack(blocks))))

    def capacity(self, block, s):
        """``min(s, count)`` of one block, its capacity.  At
        s = 1 with ``_count``'s cut at most 1/2, a block whose column lengths
        are all finite, one of them nonzero, has capacity 1 without an SVD:
        ``_unit`` scales that column to length 1 up to rounding (to at least
        1/sqrt(2) when its squares are subnormal), so sigma_1 exceeds the
        cut and the count is at least 1.  Any other block is ranked; so is
        one with an infinite length (an overflowed square, or an infinite
        entry, which the SVD rejects) or a nan, as the largest length is
        then not below inf.  The lengths are measured once, so an overflow
        warns once, as in ``ranks``: the CLI writes each warning into its
        report."""
        lengths = _lengths(block)
        unit_fits = _cut(1, len(block), self.tol) <= 0.5
        if s == 1 and unit_fits and 0 < lengths.max() < math.inf:
            return 1
        return min(s, self._count(_unit(block, lengths)))

    def _staircase_of(self, support):
        """``(H_S, Q, R, rest)``: the columns and the staircase of a support."""
        h = self.h if support is None else self.h[:, list(support)]
        return h, *_staircase(self.d, h, self.tol, self._spectrum.norm)

    def _sweep(self, h):
        """The probe sweep's pencils of (D, ``h``) and D's probes."""
        return _Pencils(None, self.d, h, self._d_products), self._spectrum.probes()

    def rank_condition(self):
        """``(holds, lambda, z)`` of (D, H).  R < N in the staircase fails
        it, with the first eigenvalue of the input-free block and its left
        eigenvector mapped back.  R = N still has to pass the eigenvalue
        probe sweep: a staircase step of a near-defective D can exceed the
        cut by orders of magnitude where the exact system is uncontrollable."""
        h, q, big_r, rest = self._staircase_of(None)
        if big_r < len(self.d):
            w, v = np.linalg.eig(rest.T)
            i = np.lexsort((w.imag, w.real))[0]
            return False, complex(w[i]), (q[:, big_r:] @ v[:, i]).astype(complex)
        return _probe_sweep(*self._sweep(h), self.tol)

    def holds(self, support=None):
        """``rank_condition()[0]`` of (D, H), or of (D, H_S) for a support S,
        without the witness: a short staircase needs no eigenvectors, and a
        probe that drops no null vector."""
        h, _, big_r, _ = self._staircase_of(support)
        return big_r == len(self.d) and _first_drop(*self._sweep(h), self.tol) is None

    def min_poly_degree(self):
        return self._spectrum.min_poly_degree()

    def d_rank(self):
        return self._spectrum.rank()

    def support_screen(self):
        """g_D, rank(H) and rank(D) for the common-support screen."""
        return {
            "g_d": self._spectrum.max_geometric_multiplicity(),
            "r_h": rank(self.h, self.tol),
            "r_d": self.d_rank(),
        }

    @staticmethod
    def basis(rows):
        return _FloatBasis(np.zeros((rows, 0)))

    def leaf_rank(self, dim, blocks, chosen):
        return rank(_unit(_scheduled(blocks, chosen, blocks[0].shape[0])), self.tol)

    def circuits(self, blocks, inside, outside):
        """For each column ``(d, j)`` of ``outside``: None when it is
        independent of the columns of ``inside``, else the positions in
        ``inside`` of the columns its least-squares coordinates use.  Every
        column is scaled to unit length first, so the residual and the
        coordinates are measured against the cut of scale 1 and size rows
        whatever the power the column comes from."""
        if not outside:
            return []

        def unit(columns):
            return _unit(np.column_stack([blocks[d][:, j] for d, j in columns]))

        y = unit(outside)
        cut = _cut(1, y.shape[0], self.tol)
        if inside:
            b = unit(inside)
            coef = np.linalg.lstsq(b, y, rcond=None)[0]
            residual = np.linalg.norm(y - b @ coef, axis=0)
        else:
            coef = np.zeros((0, len(outside)))
            residual = np.linalg.norm(y, axis=0)
        uses = np.abs(coef) > cut
        return [
            None if residual[i] > cut else tuple(np.flatnonzero(uses[:, i]))
            for i in range(len(outside))
        ]

    def cut_rank(self, dim, blocks, chosen):
        """The count of ``ranks`` on the columns ``chosen`` picks."""
        return self._count(_unit(_scheduled(blocks, chosen, len(blocks[0]))))


def _report(holds, lam, z, slack, tol):
    """The report of a rank condition and, for the sparse test, its slack."""
    inequality = slack is None or slack >= 0
    return ControllabilityReport(
        holds and inequality, holds, inequality, lam, z, slack, tol
    )


def pbh_test(sys: SystemModel, tol: Tolerance = DEFAULT_TOLERANCE) -> ControllabilityReport:
    """Eigenvalue rank test for plain controllability."""
    return _report(*_FloatSpan(sys, tol).rank_condition(), None, tol)


def kalman_test(sys: SystemModel, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Rank test on the stacked reachability matrix with N blocks."""
    n = sys.n_states
    return rank(controllability_matrix(sys.D, sys.H, n), tol) == n


def _sparse_test(span, s):
    """The report of the sparse test in the span's arithmetic: the rank
    condition and the slack ``s + rank(D) - N``."""
    s = _check_sparsity(span.sys, s)
    holds, lam, z = span.rank_condition()
    slack = s + span.d_rank() - span.sys.n_states
    return _report(holds, lam, z, slack, span.tol)


def _sparse_verdict(span, s):
    """``_sparse_test(span, s).verdict`` without the report: the paper's
    inequality ``N <= s + rank(D)`` first, from one rank of D, and the rank
    condition, without a witness (``span.holds``), only where it holds."""
    s = _check_sparsity(span.sys, s)
    return s + span.d_rank() >= span.sys.n_states and span.holds()


def sparse_pbh_test(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> ControllabilityReport:
    """Decisive test for s-sparse controllability.

    Combines the eigenvalue rank condition with ``N <= s + rank(D)``.
    """
    return _sparse_test(_FloatSpan(sys, tol), s)


def _first_controllable_support(span, sizes, max_subsets=None):
    """The first support, by size in ``sizes`` and then lexicographically,
    whose columns pass the span's rank condition, or None; returned with the
    number of supports tried.  Only the verdict is read, so each support is
    decided by ``span.holds``, which builds no witness of a failure.  More
    than ``max_subsets`` tries raise an inconclusive error."""
    tried = 0
    for size in sizes:
        for support in itertools.combinations(range(span.sys.n_inputs), size):
            tried += 1
            if max_subsets is not None and tried > max_subsets:
                raise BudgetExceededError(
                    "support search exceeded subset budget", enumerations=tried
                )
            if span.holds(support):
                return support, tried
    return None, tried


def _common_support(span, s):
    """``(verdict, support, screen)`` of the common-support test.

    ``screen`` is the span's necessary screen (None in exact arithmetic);
    when it fails no support is enumerated.  Supports are tried in
    lexicographic order by ``span.holds``.  In exact arithmetic, when the
    first one fails, the whole channel set is tried once: the reachable
    space of (D, H_S) lies in that of (D, H), so if (D, H) fails, no support
    can pass, and the search ends there.  The float span's cut grows with
    |H_S|, so there a support can pass where (D, H) fails, and every
    support is tried.
    """
    s = _check_sparsity(span.sys, s)
    screen = span.support_screen()
    if screen is not None and not (
        min(screen["r_h"], s) >= screen["g_d"] >= span.sys.n_states - screen["r_d"]
    ):
        return False, None, screen
    supports = itertools.combinations(range(span.sys.n_inputs), s)
    first = next(supports)
    if span.holds(first):
        return True, first, screen
    if s == span.sys.n_inputs or (span.tol is None and not span.holds()):
        return False, None, screen
    support = next((sup for sup in supports if span.holds(sup)), None)
    return support is not None, support, screen


def common_support_test(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
):
    """s-sparse controllability restricted to a single common support.

    Returns ``(verdict, support)`` where ``support`` is the lexicographically
    smallest size-s column set S with (D, H_S) controllable, or None.  A
    necessary screen (``min(rank(H), s) >= g_D >= N - rank(D)``, with g_D the
    largest geometric multiplicity of D) short-circuits to False before any
    enumeration.
    """
    verdict, support, _ = _common_support(_FloatSpan(sys, tol), s)
    return verdict, support


def _products(span, output=False):
    """H, D H, D^2 H, ... without end, by ``span.matmul`` (which in float
    zeroes rounding residue), and through A as well for output targets."""
    powers = _powers(span.d, span.h, span.matmul)
    return (span.matmul(span.a, p) for p in powers) if output else powers


def _output_kalman(span):
    """rank(A [D^(N-1) H, ..., H]) = m in the span's arithmetic."""
    blocks = list(itertools.islice(_products(span, True), span.sys.n_states))
    return span.rank(blocks[::-1]) == len(span.a)


def _output_rank_inequality(span, s):
    """The necessary inequality ``s >= m - rank(A D)``, after the sparsity guard."""
    a = span.a
    s = _check_sparsity(span.sys, s)
    return s >= len(a) - span.rank([span.matmul(a, span.d)])


def output_kalman_test(sys: SystemModel, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Decisive output-controllability test: rank(A * [D^(N-1) H ... H]) = m.

    The rank stabilizes by K = N blocks, so this horizon is exact.
    """
    return _output_kalman(_FloatSpan(sys, tol))


def output_pbh_necessary(sys: SystemModel, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Necessary eigenvalue-sweep condition for output controllability.

    Checks ``rank(A [lambda*I - D, H]) = m`` at all eigenvalue probes of D and
    at one off-spectrum probe (1 + largest probe modulus): when rank(A) < m the rank
    can drop even away from the spectrum.  False disproves output
    controllability; True proves nothing.
    """
    a = _require_output_map(sys)
    probes = eigenvalue_probes(sys.D, tol)
    off = complex(1.0 + max((abs(p) for p in probes), default=0.0))
    return _first_drop(_Pencils(a, a @ sys.D, a @ sys.H), probes + [off], tol) is None


def _pencil_products(e, f):
    """The parts of E and F in the Gram of ``[lambda E - F, G]`` (see
    :class:`_Pencils`): ``(EE^T, T + T^T, T^T - T, FF^T, |E|_F^2, |F|_F^2)``
    with T = EF^T, the norms as traces.  ``e=None`` stands for E = I, whose
    EE^T (None here) and T = F^T are exact and need no product."""
    with np.errstate(over="ignore", invalid="ignore"):
        if e is None:
            ee, t, e2 = None, f.T, float(len(f))
        else:
            ee, t = e @ e.T, e @ f.T
            e2 = float(np.trace(ee))
        ff = f @ f.T
        return ee, t + t.T, t.T - t, ff, e2, float(np.trace(ff))


class _Pencils:
    """The pencils ``M = [lambda E - F, G]`` of one sweep, for real E and F
    (n x N) and G (n x L), with ``e=None`` for E = I (the state test).  Their
    Grams are assembled at each probe lambda = a + ib from real products
    made once:

        M M^H = FF^T + GG^T + |lambda|^2 EE^T - a (T + T^T) + ib (T^T - T),

    with T = EF^T.  ``products`` hands in :func:`_pencil_products` of E and
    F where several G meet one E and F: a float span keeps D's, so each
    support it tries adds only H_S H_S^T."""

    def __init__(self, e, f, g, products=None):
        if products is None:
            products = _pencil_products(e, f)
        self.ee, self.sym, self.skew, ff, self.e2, self.f2 = products
        self.e = np.eye(len(f)) if e is None else e
        self.f, self.g, self.shape = f, g, (len(f), f.shape[1] + g.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            gg = g @ g.T
            self.base, self.g2 = ff + gg, float(np.trace(gg))

    def at(self, lam):
        """M at lambda, real for a real lambda."""
        return np.hstack([(lam.real if lam.imag == 0 else lam) * self.e - self.f, self.g])


def _first_drop(pencils, probes, tol):
    """``(lambda, M)``: the first probe where ``M = [lambda*E - F, G]`` (a
    :class:`_Pencils`) drops full row rank, and its pencil; None when none
    does.  E, F, G are real, so the pencil at conj(lambda) has the same
    singular values: it is skipped, and a real probe ranked in reals.  A
    probe that passes :func:`_full_row_rank_screen` needs no pencil and no
    SVD; every other pencil is ranked by :func:`linalg.rank`, which alone
    decides a drop."""
    ranked = set()
    for lam in probes:
        if lam.conjugate() in ranked:
            continue
        ranked.add(lam)
        if _full_row_rank_screen(pencils, lam, tol):
            continue
        pencil = pencils.at(lam)
        if rank(pencil, tol) < pencils.shape[0]:
            return lam, pencil
    return None


def _probe_sweep(pencils, probes, tol):
    """``(holds, lambda, z)``: the :func:`_first_drop` of the pencils, and a
    left null vector z of its complex pencil."""
    drop = _first_drop(pencils, probes, tol)
    if drop is None:
        return True, None, None
    lam, pencil = drop
    z = np.linalg.svd(pencil.astype(complex))[0][:, -1]
    return False, lam, np.conj(z)


# Unit roundoff of float64, and the window of screened Gram traces: below
# tiny / u, underflow is no longer a relative error; above max / 4, the
# assembly's few terms could overflow.
_U = np.finfo(np.float64).eps / 2
_SCREEN_MIN_TRACE = np.finfo(np.float64).tiny / _U
_SCREEN_MAX_TRACE = np.finfo(np.float64).max / 4


def _full_row_rank_screen(pencils, lam, tol):
    """True only if ``M = [lam E - F, G]`` (n x w, w = N + L, from the
    :class:`_Pencils` ``pencils``) has full row rank under the rule of
    :func:`linalg.rank`, ``sigma_n > cut * sigma_1`` with ``cut`` of scale 1
    and size max(n, w).  False says nothing; the caller then takes the SVD.

    The screen assembles the Gram ``M M^H`` from the sweep's products (see
    :class:`_Pencils`), subtracts ``tau I`` and tries Cholesky, with u the
    unit roundoff,

        f' = (|lam| |E|_F + |F|_F)^2 + |G|_F^2 >= |M|_F^2   and
        tau = (cut^2 + 8u (w + n + 1)) * f'.

    Why success certifies the rule, with ``gamma_k = k u / (1 - k u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.) and
    lam = a + ib, so that ``|a| + |b| <= sqrt(2) |lam|``:

    * Products (section 3.1): each entry of EE^T, T = EF^T and FF^T is an
      inner product of length N, and of GG^T one of length L, so whatever
      order the BLAS sums in, ``|d(XY^T)| <= gamma_N |X| |Y|^T`` entrywise
      and ``|d(XY^T)|_F <= gamma_N |X|_F |Y|_F``.  In the Gram they carry
      the weights 1, 1, |lam|^2 and 2(|a| + |b|) (T enters as T + T^T and
      T^T - T), so their errors sum to at most ``gamma_max(N, L)`` times
      ``|F|^2 + |G|^2 + |lam|^2 |E|^2 + 2 sqrt(2) |lam| |E| |F|
      <= sqrt(2) f'`` (Frobenius norms).  E = I makes EE^T and T exact.
    * Assembly: T + T^T, T^T - T, |lam|^2, the scalings by |lam|^2, a and
      b, the four-term sum and the subtraction of tau round each entry at
      most six times, so they err by ``gamma_6`` times the same sum of
      absolute terms, again at most ``sqrt(2) gamma_6 f'``.  The imaginary
      part is assembled in reals, apart from the real part.
    * Cholesky (Theorem 10.3, for any order of its inner products): if it
      completes on the computed ``A = M M^H - tau I``, then ``R^H R = A + dA``
      with ``|dA| <= gamma_(n+1) |R^H| |R|``, so ``|dA|_2 <= gamma_(n+1)
      |R|_F^2`` and ``|R|_F^2 = trace(A + dA) <= f' (1 + O(u w)) / (1 -
      gamma_(n+1))``.  In complex arithmetic a product errs by at most
      ``sqrt(2) gamma_2`` (section 3.6), so this holds with
      ``sqrt(2) gamma_(n+3)`` for ``gamma_(n+1)``.
    * f' comes from traces of the computed products (relative error at most
      ``gamma_(max(N, L) + n)``), two square roots and a few operations,
      and tau from f' in a few more: together a relative error below
      ``(max(N, L) + n + 8) u``.
    * ``R^H R`` is positive definite, so ``sigma_n(M)^2 = lambda_min(M M^H)
      > tau - (sqrt(2) (max(N, L) + n + 9) + max(N, L) + n + 8) u f'``
      to first order, and ``max(N, L) < w`` puts that sum under the
      ``8u (w + n + 1) f'`` in tau.  Hence ``sigma_n^2 > cut^2 f' >=
      (cut * sigma_1)^2``; when n > w the factorisation
      cannot complete at all.

    The rest of the ``8u`` term, about ``5.5u (w + n) f'`` at the sizes the
    sweep sees, keeps ``sigma_n`` above about ``sqrt(5u (w + n)) |M|_F``
    (4e-7 |M|_F at n = 128), orders of magnitude above the SVD's own error
    of a few ``u * c * sigma_1``, so the SVD could not count a certified
    pencil short.  ``f' >= |M|_F^2`` only raises tau,
    so that margin is no smaller than for the Gram of M itself.  Underflow
    and overflow are not relative errors.  A product's underflow errs by at
    most ``N u tiny`` an entry; it is negligible against ``u f'`` when f' is
    above ``tiny / u`` and, for the products that |lam| scales, when
    ``|E|_F^2`` is too (E = I always is).  So f' below ``tiny / u`` or
    above ``max / 4``, an overflowed |lam|^2 or a tiny E is not screened;
    a product that overflowed has an infinite trace, hence f'.
    """
    n, w = pencils.shape
    a, b, size = lam.real, lam.imag, abs(lam)
    root = size * math.sqrt(pencils.e2) + math.sqrt(pencils.f2)
    f, l2 = root * root + pencils.g2, size * size
    if not (
        _SCREEN_MIN_TRACE < f < _SCREEN_MAX_TRACE
        and l2 < math.inf
        and pencils.e2 > _SCREEN_MIN_TRACE
    ):
        return False
    tau = (_cut(1, max(n, w), tol) ** 2 + 8 * _U * (w + n + 1)) * f
    real = pencils.base - a * pencils.sym
    if pencils.ee is None:
        real[np.diag_indices(n)] += l2 - tau
    else:
        real += l2 * pencils.ee
        real[np.diag_indices(n)] -= tau
    if b:
        gram = np.empty((n, n), complex)
        gram.real, gram.imag = real, b * pencils.skew
    else:
        gram = real
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def output_sparse_necessary(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Necessary condition for s-sparse output controllability:
    ``s >= m - rank(A D)`` together with the eigenvalue-sweep condition."""
    inequality = _output_rank_inequality(_FloatSpan(sys, tol), s)
    return inequality and output_pbh_necessary(sys, tol)


def _check_sparsity(sys: SystemModel, s: int):
    l = sys.n_inputs
    return _integer(s, f"sparsity s must satisfy 1 <= s <= L={l}, got {s!r}", most=l)


def _require_output_map(sys: SystemModel) -> np.ndarray:
    if sys.A is None:
        raise ValueError("system has no output map A")
    return sys.A
