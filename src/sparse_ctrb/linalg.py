"""Dense linear-algebra kernels shared by the controllability machinery.

Every float decision that follows ``--tol`` compares against one cut,
``rank_rel * scale * size`` (:func:`_cut`); a rank is the count of singular
values above it (:func:`_rank_of`).  Each site names its scale and size:

  site                     decides                          scale          size
  -----------------------  -------------------------------  -------------  ---------
  rank                     rank of a matrix as given        sigma_1        max(m, n)
  _Spectrum.rank           rank(D): d_rank, the slack       |D|            N
  _Spectrum.max_geometric  g_D                              each pencil's  N
    _multiplicity                                           sigma_1
  _nullities               nullity of M^(k+1), formed as    |M|            N
                           M^(k+1) / |M|^k (q)
  _staircase               each step's rank, hence R        max(|D|, |H|)  N
  core_nilpotent           r, from the unit-scaled M^n;     max(sigma_1,   n
                           rank(M)                          1); |M|
  _FloatSpan._count        the count on unit columns        1              rows
                           (ranks, capacity, cut_rank)
  _FloatSpan.capacity      s = 1 without an SVD while the   1              rows
                           cut is at most 1/2
  _FloatSpan.circuits      the residual and coefficients    1              rows
  _FloatSpan.matmul        residue: a column below the      1              inner
                           cut times its column of |a||b|                  dimension
  _full_row_rank_screen    tau, which certifies rank's      1              max(n, w)
                           rule (f' multiplies it)
  steer._solve             lstsq's rcond (times sigma_1)    1              max(m, n)

:func:`rank` serves ``_FloatSpan.rank``, ``leaf_rank``, ``_first_drop`` and
``decomp``.  The fixed scales of ``_nullities`` and ``_staircase`` keep the
rounding noise of a decayed power or a late, small block below the cut.
Two rules do not follow ``--tol``: ``ctrb._FloatBasis``'s residual of 1e-13
of a column's length, and the spectrum's rung radii (:class:`_Spectrum`).
All routines here are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "CoreNilpotent",
    "rank",
    "eigenvalues",
    "eigenvalue_probes",
    "min_poly_degree",
    "max_geometric_multiplicity",
    "controllability_matrix",
    "extend_to_basis",
    "core_nilpotent",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance configuration.

    Parameters
    ----------
    rank_rel : float
        Scales every float cut: ``rank_rel * scale * size``, with the scale
        and size of each site in the module's table.
    eig_cluster : float
        Absolute radius for grouping numerically equal eigenvalues before
        multiplicity counting.
    residual_abs : float
        Absolute residual threshold for verification checks (witness
        residuals, block-structure residuals, steering feasibility).
    """

    rank_rel: float = 1e-10
    eig_cluster: float = 1e-8
    residual_abs: float = 1e-8

    def __post_init__(self):
        for field in ("rank_rel", "eig_cluster", "residual_abs"):
            value = getattr(self, field)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value < float("inf")):
                raise ValueError(f"{field} must be finite and positive, got {value!r}")


DEFAULT_TOLERANCE = Tolerance()


def _as_matrix(a, name="matrix", allow_complex=False):
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        if not allow_complex:
            raise ValueError(f"{name} must be real")
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _integer(value, message, least=1, most=float("inf")):
    """``int(value)`` of a Python or numpy integer from ``least`` to ``most``;
    any other value, a bool included, raises ``ValueError(message)``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and least <= value <= most):
        raise ValueError(message)
    return int(value)


def _square(a, name="matrix", allow_complex=False):
    arr = _as_matrix(a, name, allow_complex)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _singular_values(a):
    """The singular values of ``a``, descending; a single 0 when ``a`` is
    empty, so that its norm and its rank are 0."""
    return np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(1)


def _cut(scale, size, tol):
    """The float cut of a site with ``scale`` and ``size`` (module table)."""
    return tol.rank_rel * scale * size


def _rank_of(sigma, scale, size, tol):
    """The count of the singular values ``sigma`` above ``_cut(scale, size)``."""
    return int(np.count_nonzero(sigma > _cut(scale, size, tol)))


def rank(m, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank of ``m``: its singular values above the cut of scale
    sigma_1 and size max(rows, cols)."""
    a = _as_matrix(m, allow_complex=True)
    sigma = _singular_values(a)
    return _rank_of(sigma, sigma[0], max(a.shape), tol)


def eigenvalues(d) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by real part then imaginary part."""
    a = _square(d, "D", allow_complex=True)
    w = np.linalg.eigvals(a)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def _clusters(values, radius):
    """Greedy clustering of complex values at an absolute radius; returns
    the ``(mean, size)`` of each cluster, in order of creation.  Each value
    joins the first cluster whose mean lies within ``radius``, or starts one.

    ``values`` come sorted by real part, and a cluster's mean moves only
    when a value joins it.  So a cluster whose mean's real part lies more
    than ``radius`` below the current value can never be joined again
    (|v - mean| >= |Re v - Re mean|); it leaves the active list, which keeps
    creation order.  The clusters are those of the scan over all of them,
    bit for bit, in O(N * active)."""
    clusters, active = [], []  # [sum, count, mean]
    for v in values:
        active = [c for c in active if v.real - c[2].real <= radius]
        for c in active:
            if abs(v - c[2]) <= radius:
                c[0] += v
                c[1] += 1
                c[2] = c[0] / c[1]
                break
        else:
            c = [v, 1, v / 1]
            clusters.append(c)
            active.append(c)
    return [(c[0] / c[1], c[1]) for c in clusters]


class _Spectrum:
    """D's singular values, its sorted eigenvalues, and their ``(mean,
    size)`` clusters on the probe ladder: radii ``eig_cluster``, then 1e-6,
    1e-4 and 1e-3 times ``max(1, |D|)``.  Each is computed once, on first
    use.  The probes read every rung, q the second and g_D the first; the
    staircase's cut reads |D|, and the sparse test rank(D), both from the
    one SVD."""

    def __init__(self, d, tol: Tolerance):
        self.d, self.tol, self._rungs = d, tol, {}

    @functools.cached_property
    def _sigma(self):
        return _singular_values(self.d)

    @functools.cached_property
    def norm(self):
        return float(self._sigma[0])

    def rank(self):
        return _rank_of(self._sigma, self.norm, len(self.d), self.tol)

    @functools.cached_property
    def values(self):
        return eigenvalues(self.d)

    def _rung(self, i):
        if i not in self._rungs:
            step = (self.tol.eig_cluster, 1e-6, 1e-4, 1e-3)[i]
            radius = step * max(1.0, self.norm) if i else step
            self._rungs[i] = _clusters(self.values, radius)
        return self._rungs[i]

    def probes(self):
        means = {mean for i in range(4) for mean, _ in self._rung(i)}
        return sorted(means, key=lambda z: (z.real, z.imag))

    def _nonempty(self):
        if len(self.d) == 0:
            raise ValueError("D must be non-empty")
        return len(self.d)

    def min_poly_degree(self):
        n, q = self._nonempty(), 0
        for mean, size in self._rung(1):
            nulls = [0] if size == 1 else _nullities(self.d - mean * np.eye(n), size, self.tol)
            q += size if nulls[-1] > size else len(nulls) - 1 + size - nulls[-1]
        return min(q, n)

    def max_geometric_multiplicity(self):
        """The largest nullity of ``D - mean*I`` (the first nullity of
        ``_nullities``) over the first rung's means, from stacked SVDs, at
        most ``_STACK_BYTES`` of pencils to a stack: each pencil's singular
        values are those of its own SVD, bit for bit."""
        n = self._nonempty()
        means = np.array([mean for mean, _ in self._rung(0)])
        pencil_bytes = n * n * np.result_type(self.d, means).itemsize
        per_stack, eye, g = max(1, _STACK_BYTES // pencil_bytes), np.eye(n), 0
        for start in range(0, len(means), per_stack):
            stack = self.d - means[start : start + per_stack, None, None] * eye
            sigma = np.linalg.svd(stack, compute_uv=False)
            g = max(g, n - min(_rank_of(row, row[0], n, self.tol) for row in sigma))
        return g


# Bytes of the pencils D - mean*I that one stacked SVD of g_D takes.
_STACK_BYTES = 2**21


def eigenvalue_probes(d, tol: Tolerance = DEFAULT_TOLERANCE) -> list[complex]:
    """Candidate eigenvalue locations for the probe sweep (``ctrb._probe_sweep``)
    of the output condition and of a full staircase in the state rank condition.

    Cluster means are taken at ``eig_cluster`` and at coarser radii scaled by
    the spectral norm.  A defective eigenvalue of multiplicity k is computed
    with error ~eps^(1/k)*|D|, which exceeds eig_cluster, and the rank drop of
    [lambda*I - D, H] is only visible within ~1e-9 of the true eigenvalue; the
    coarse layers recover it because the mean of the split group cancels the
    perturbation.  Probes at means of merged distinct eigenvalues are harmless
    (full rank there).
    """
    return _Spectrum(_square(d, "D", allow_complex=True), tol).probes()


def _nullities(m, limit, tol):
    """Nullities of M^0, M^1, ..., M^limit of a square M while they grow."""
    n, nulls, power = m.shape[0], [0], m
    sigma = np.linalg.svd(m, compute_uv=False)
    norm, unit = sigma[0], m / (sigma[0] or 1.0)
    for k in range(limit):
        if k:  # power = M^(k+1) / |M|^k, which cannot overflow
            power = power @ unit
            sigma = np.linalg.svd(power, compute_uv=False)
        null = n - _rank_of(sigma, norm, n, tol)
        if null <= nulls[-1]:
            break
        nulls.append(null)
    return nulls


def min_poly_degree(d, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Degree q of the minimal polynomial of ``d``, capped at N.  Over clusters
    of eigenvalues at ``1e-6 * max(1, |D|)``, q sums each index (the times the
    nullity of (D - mean I)^k grows) plus the eigenvalues the last nullity
    leaves out, or the cluster's size once a nullity exceeds it (it then took
    in other eigenvalues), so that rounding errs toward a larger q."""
    return _Spectrum(_square(d, "D"), tol).min_poly_degree()


def max_geometric_multiplicity(d, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Largest geometric multiplicity over the (clustered) eigenvalues of ``d``."""
    return _Spectrum(_square(d, "D"), tol).max_geometric_multiplicity()


def _powers(d, block, matmul=np.matmul):
    """block, d block, d^2 block, ... without end, in the arithmetic of
    ``matmul`` (a span's, in ``ctrb._products`` and the exact route)."""
    while True:
        yield block
        block = matmul(d, block)


def _scheduled(blocks, supports, n):
    """Columns ``supports[i]`` of ``blocks[i]``, side by side; n x 0 when
    no support selects a column."""
    pieces = [block[:, list(sup)] for block, sup in zip(blocks, supports) if sup]
    return np.hstack(pieces) if pieces else np.zeros((n, 0))


def controllability_matrix(d, h, k: int) -> np.ndarray:
    """Stacked reachability matrix ``[D^(K-1) H, ..., D H, H]`` with K blocks."""
    a = _square(d, "D")
    b = _as_matrix(h, "H")
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"H must have {a.shape[0]} rows to match D, got {b.shape[0]}"
        )
    k = _integer(k, f"K must be a positive integer, got {k!r}")
    return np.hstack(list(itertools.islice(_powers(a, b), k))[::-1])


def extend_to_basis(b, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Orthogonal matrix whose first ``rank(b, tol)`` columns span the column
    space of ``b``: its left singular vectors, as in a :func:`_staircase` step."""
    return np.linalg.svd(_as_matrix(b, "B"))[0]


def _staircase(d, h, tol: Tolerance, d_norm):
    """Controllability staircase of (D, H) (Paige 1981; Van Dooren 1981).

    Returns ``(Q, R, rest)``: Q orthogonal, its first R columns spanning the
    controllable subspace, and ``rest = Q[:, R:]^T D Q[:, R:]`` the input-free
    block.  Each step SVD-compresses the newest block (H, then D times the
    newest controllable columns) in the remaining coordinates and rotates them,
    until a step adds nothing.  ``d_norm`` is |D|, from the calling span's
    spectrum.
    """
    q = np.eye(len(d))
    big_r, block, scale = 0, h, None
    while big_r < len(d):
        u, sigma, _ = np.linalg.svd(q[:, big_r:].T @ block)
        if scale is None:  # the first step's block is H itself, as Q = I
            scale = max(d_norm, float(sigma[0]) if sigma.size else 0.0)
        step = _rank_of(sigma, scale, len(d), tol)
        if step == 0:
            break
        q[:, big_r:] = q[:, big_r:] @ u
        block = d @ q[:, big_r : big_r + step]
        big_r += step
    return q, big_r, q[:, big_r:].T @ d @ q[:, big_r:]


@dataclass(frozen=True)
class CoreNilpotent:
    """Result of the core-nilpotent (Fitting) decomposition.

    ``v`` is invertible with ``v^-1 M v = blockdiag(C, N)`` where C (r x r) is
    invertible and N is nilpotent.  ``r`` is the core dimension rank(M^R);
    ``matrix_rank`` is rank(M).  The two agree exactly when the zero eigenvalue
    of M is semisimple; ``mismatch`` flags the defective case.
    """

    v: np.ndarray
    r: int
    matrix_rank: int
    mismatch: bool


def core_nilpotent(m, tol: Tolerance = DEFAULT_TOLERANCE) -> CoreNilpotent:
    """Fitting decomposition of a square matrix into invertible-core plus
    nilpotent parts, via the range/null spaces of ``M^R``.

    Core eigenvalues below roughly ``|M| * (n * rank_rel)^(1/n)`` are folded
    into the nilpotent part; they are indistinguishable from zero at the
    working tolerance.  When the two bases do not span at that tolerance
    the split is undecided and ``InconclusiveError`` is raised.
    """
    a = _square(m, "M")
    n = a.shape[0]
    if n == 0:
        return CoreNilpotent(v=np.eye(0), r=0, matrix_rank=0, mismatch=False)
    sigma = _singular_values(a)
    nrm = float(sigma[0])
    if nrm == 0.0:
        return CoreNilpotent(v=np.eye(n), r=0, matrix_rank=0, mismatch=False)
    power = np.linalg.matrix_power(a / nrm, n)
    u, power_sigma, vt = np.linalg.svd(power)
    # The power is formed at unit spectral scale, so rounding noise sits near
    # n*eps of 1.0 even when every true singular value vanishes; measuring
    # against sigma_max alone would promote that noise to core dimensions.
    r = _rank_of(power_sigma, max(float(power_sigma[0]), 1.0), n, tol)
    v = np.hstack([u[:, :r], vt[r:, :].T])
    if rank(v, tol) != n:
        raise InconclusiveError(
            "core-nilpotent split failed: range and null bases do not span"
        )
    matrix_rank = _rank_of(sigma, nrm, n, tol)
    return CoreNilpotent(v=v, r=r, matrix_rank=matrix_rank, mismatch=matrix_rank != r)

