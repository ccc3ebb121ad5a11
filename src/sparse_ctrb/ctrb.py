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
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _as_matrix,
    _integer,
    _powers,
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


class _FloatSpan:
    """A system in the floating-point arithmetic of every rank question.

    Decisions and bounds are written once against a span: it holds ``sys``
    and, in its arithmetic, ``d``, ``h`` and ``a`` (on demand; it raises
    when the system has no A), and answers ``rank`` (of a list of blocks),
    ``matmul``, ``rank_condition`` (of H or of a support's columns),
    ``min_poly_degree`` (q of its D) and ``support_screen`` (the necessary
    screen of the common-support test, None where the span has none); the
    witness loop in ``oracle`` also uses the incremental span (``empty``,
    ``extend``, ``leaf_rank``), its pre-checks ``ranks``, and for matroid
    intersection and its cuts ``circuits`` and ``cut_rank``.  This span
    decides ranks at ``tol``, which its reports carry, and reads one
    spectrum of D; ``exact._ExactSpan`` answers the same in rationals.
    The running span ``extend`` grows an orthonormal basis by Gram-Schmidt,
    its dependence threshold leaning to independence, so no cut drops a
    viable support; a leaf counts only with the full SVD rank of its columns.
    Matroid intersection takes its circuits from least squares on unit
    columns, which only guides it: a float cut of a K rests on ``cut_rank``,
    an SVD rank that no leaf check can exceed.
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

    @staticmethod
    def matmul(a, b):
        return a @ b

    def rank(self, blocks):
        return rank(np.hstack(blocks), self.tol)

    def ranks(self, blocks):
        """``(None, rank of all blocks)``: the rank of all blocks but the
        last is left to ``cut_rank``, which counts a float cut itself."""
        return None, self.rank(blocks)

    def rank_condition(self, support=None):
        """``(holds, lambda, z)`` of (D, H), or of (D, H_S) for a support S.
        R < N in the staircase fails it, with the first eigenvalue of the
        input-free block and its left eigenvector mapped back.  R = N still
        has to pass the eigenvalue probe sweep: a staircase step of a
        near-defective D can exceed the cut by orders of magnitude where the
        exact system is uncontrollable."""
        d, n = self.d, len(self.d)
        h = self.h if support is None else self.h[:, list(support)]
        q, big_r, rest = _staircase(d, h, self.tol)
        if big_r < n:
            w, v = np.linalg.eig(rest.T)
            i = np.lexsort((w.imag, w.real))[0]
            return False, complex(w[i]), (q[:, big_r:] @ v[:, i]).astype(complex)
        return _probe_sweep(np.eye(n), d, h, self._spectrum.probes(), self.tol)

    def min_poly_degree(self):
        return self._spectrum.min_poly_degree()

    def support_screen(self):
        """g_D, rank(H) and rank(D) for the common-support screen."""
        return {
            "g_d": self._spectrum.max_geometric_multiplicity(),
            "r_h": rank(self.h, self.tol),
            "r_d": rank(self.d, self.tol),
        }

    @staticmethod
    def empty(block):
        return np.zeros((block.shape[0], 0))

    @staticmethod
    def extend(basis, block, support):
        """``basis`` and its size after Gram-Schmidt, run twice, on the
        columns ``support`` of ``block``: a zero column is skipped, and one
        whose residual is within 1e-13 of its length is dependent."""
        for col in block[:, list(support)].T:
            length = np.linalg.norm(col)
            if length == 0.0:
                continue
            v = col - basis @ (basis.T @ col)
            v = v - basis @ (basis.T @ v)
            residual = np.linalg.norm(v)
            if residual > 1e-13 * length:
                basis = np.column_stack([basis, v / residual])
        return basis, basis.shape[1]

    def leaf_rank(self, dim, blocks, chosen):
        return rank(_scheduled(blocks, chosen, blocks[0].shape[0]), self.tol)

    def circuits(self, blocks, inside, outside):
        """For each column ``(d, j)`` of ``outside``: None when it is
        independent of the columns of ``inside``, else the positions in
        ``inside`` of the columns its least-squares coordinates use.  Every
        column is scaled to unit length first, so the residual and the
        coordinates are measured against ``rank_rel * rows`` whatever the
        power the column comes from."""
        if not outside:
            return []

        def unit(columns):
            m = np.column_stack([blocks[d][:, j] for d, j in columns])
            lengths = np.linalg.norm(m, axis=0)
            return m / np.where(lengths > 0, lengths, 1.0)

        y = unit(outside)
        cut = self.tol.rank_rel * y.shape[0]
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

    def cut_rank(self, dim, blocks, s, chosen):
        """SVD rank of the columns ``chosen`` picks from ``blocks``, counted
        at a threshold no leaf check of a nonzero rank exceeds.  Such a leaf
        holds s columns of every block and a nonzero column, so its largest
        singular value is at least the s-th shortest column of each block
        and the shortest nonzero column of all, and its threshold at least
        ``rank_rel * rows`` times the largest of those lengths; by
        interlacing, no leaf's rank on these columns is then above the
        count."""
        n = blocks[0].shape[0]
        m = _scheduled(blocks, chosen, n)
        if m.shape[1] == 0:
            return 0
        lengths = [np.sort(np.linalg.norm(b, axis=0)) for b in blocks]
        nonzero = np.concatenate(lengths)
        floor = max(max(c[s - 1] for c in lengths), nonzero[nonzero > 0].min())
        sigma = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(sigma > self.tol.rank_rel * n * floor))


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
    slack = s + span.rank([span.d]) - span.sys.n_states
    return _report(holds, lam, z, slack, span.tol)


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
    number of supports tried.  More than ``max_subsets`` tries raise an
    inconclusive error."""
    tried = 0
    for size in sizes:
        for support in itertools.combinations(range(span.sys.n_inputs), size):
            tried += 1
            if max_subsets is not None and tried > max_subsets:
                raise BudgetExceededError(
                    "support search exceeded subset budget", enumerations=tried
                )
            if span.rank_condition(support)[0]:
                return support, tried
    return None, tried


def _common_support(span, s):
    """``(verdict, support, screen)`` of the common-support test.

    ``screen`` is the span's necessary screen (None in exact arithmetic);
    when it fails no support is enumerated.
    """
    s = _check_sparsity(span.sys, s)
    screen = span.support_screen()
    if screen is not None and not (
        min(screen["r_h"], s) >= screen["g_d"] >= span.sys.n_states - screen["r_d"]
    ):
        return False, None, screen
    support, _ = _first_controllable_support(span, (s,))
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


def _output_kalman(span):
    """rank(A [D^(N-1) H, ..., H]) = m in the span's arithmetic."""
    a = span.a
    powers = _powers(span.d, span.h, span.matmul)
    blocks = [span.matmul(a, p) for p in itertools.islice(powers, span.sys.n_states)]
    return span.rank(blocks[::-1]) == len(a)


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
    return _probe_sweep(a, a @ sys.D, a @ sys.H, probes + [off], tol)[0]


def _probe_sweep(e, f, g, probes, tol):
    """``(holds, lambda, z)``: does ``[lambda*E - F, G]`` keep full row rank at
    every probe, else the first probe where it drops and a left null vector z
    of its complex pencil.  E, F, G are real, so the pencil at conj(lambda) has
    the same singular values: it is skipped, and a real probe ranked in reals.
    A pencil that passes :func:`_full_row_rank_screen` needs no SVD; every
    other one is ranked by :func:`linalg.rank`, which alone decides a drop."""
    ranked = set()
    for lam in probes:
        if lam.conjugate() in ranked:
            continue
        ranked.add(lam)
        pencil = np.hstack([(lam.real if lam.imag == 0 else lam) * e - f, g])
        if _full_row_rank_screen(pencil, tol):
            continue
        if rank(pencil, tol) < len(e):
            z = np.linalg.svd(pencil.astype(complex))[0][:, -1]
            return False, lam, np.conj(z)
    return True, None, None


# Unit roundoff of float64, and the smallest Gram trace the screen trusts:
# below it, underflow in the Gram product is no longer a relative error.
_U = np.finfo(np.float64).eps / 2
_SCREEN_MIN_TRACE = np.finfo(np.float64).tiny / _U


def _full_row_rank_screen(m, tol):
    """True only if ``m`` (n x w, real or complex) has full row rank under the
    rule of :func:`linalg.rank`, ``sigma_n > rank_rel * c * sigma_1`` with
    ``c = max(n, w)``.  False says nothing; the caller then takes the SVD.

    The screen forms ``G = M M^H``, subtracts ``tau I`` and tries Cholesky,
    with ``f = trace(G)`` (``|M|_F^2`` up to rounding), u the unit roundoff
    and ``tau = ((rank_rel * c)^2 + 8u (w + n + 1)) * f``.  Why success
    certifies the rule, with ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed.):

    * Gram product (section 3.1): each entry is an inner product of length
      w, so whatever order the BLAS sums in, ``|dG| <= gamma_w |M| |M|^H``
      entrywise and ``|dG|_2 <= |dG|_F <= gamma_w |M|_F^2``.
    * Cholesky (Theorem 10.3, for any order of its inner products): if it
      completes on the computed ``A = G - tau I``, then ``R^H R = A + dA``
      with ``|dA| <= gamma_(n+1) |R^H| |R|``.  The diagonal of ``|R^H| |R|``
      is that of ``R^H R``, so ``|dA|_2 <= gamma_(n+1) |R|_F^2`` and
      ``|R|_F^2 = trace(A + dA) <= f / (1 - gamma_(n+1))``.
    * In complex arithmetic a product errs by at most ``sqrt(2) gamma_2``
      (section 3.6), so both bounds hold with ``sqrt(2) gamma_(k+2)`` for
      ``gamma_k``.  Subtracting tau, and rounding f and tau, cost a few u
      relative to f.
    * ``R^H R`` is positive definite, so ``sigma_n(M)^2 = lambda_min(M M^H)
      > tau - |dG|_2 - |dA|_2 - ...``, and the errors sum to at most about
      ``sqrt(2) (w + n + 5) u f``, under the ``8u (w + n + 1) f`` in tau.
      Hence ``sigma_n^2 > (rank_rel * c)^2 |M|_F^2 >= (rank_rel * c *
      sigma_1)^2``; when n > w the factorisation cannot complete at all.

    The rest of the ``8u`` term keeps ``sigma_n`` above
    ``sqrt(6u (w + n)) |M|_F`` (4e-7 |M|_F at n = 128), orders of magnitude
    above the SVD's own error of a few ``u * c * sigma_1``, so the SVD could
    not count a certified pencil short.  Underflow is not a relative error:
    a Gram trace below ``tiny / u``, or an overflowed one, is not screened
    (and its overflow raises no warning that would reach a report).
    """
    n, w = m.shape
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ m.conj().T
    f = float(np.trace(gram).real)
    if not _SCREEN_MIN_TRACE < f < np.inf:
        return False
    c = max(n, w)
    tau = ((tol.rank_rel * c) ** 2 + 8 * _U * (w + n + 1)) * f
    gram[np.diag_indices(n)] -= tau
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
