"""Dense linear-algebra kernels shared by the controllability machinery.

Rank decisions follow three rules: :func:`rank` counts a singular value above
``rank_rel * sigma_max * max(rows, cols)``, the controllability staircase
(:func:`_staircase`) one above ``rank_rel * max(|D|, |H|) * N``, and the
nullities of q and g_D (:func:`_nullities`) one of M^k above
``rank_rel * N * |M|^k``.  All routines here are pure and safe to call concurrently.
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
        Relative singular-value cutoff for rank decisions.  A singular value
        is counted when it exceeds ``rank_rel * sigma_max * max(rows, cols)``.
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
            if not (isinstance(value, (int, float)) and 0 < value < float("inf")):
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
    any other value raises ``ValueError(message)``."""
    if not (isinstance(value, (int, np.integer)) and least <= value <= most):
        raise ValueError(message)
    return int(value)


def _square(a, name="matrix", allow_complex=False):
    arr = _as_matrix(a, name, allow_complex)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _spectral_norm(a):
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def rank(m, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank of ``m`` under the package-wide singular-value rule."""
    a = _as_matrix(m, allow_complex=True)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(sigma > tol.rank_rel * sigma[0] * max(a.shape)))


def eigenvalues(d) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by real part then imaginary part."""
    a = _square(d, "D", allow_complex=True)
    w = np.linalg.eigvals(a)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def _clusters(values, radius):
    """Greedy clustering of complex values at an absolute radius; returns
    the ``(mean, size)`` of each cluster."""
    clusters = []  # [sum, count]
    for v in values:
        for c in clusters:
            if abs(v - c[0] / c[1]) <= radius:
                c[0] += v
                c[1] += 1
                break
        else:
            clusters.append([v, 1])
    return [(c[0] / c[1], c[1]) for c in clusters]


class _Spectrum:
    """D's sorted eigenvalues, computed once, and their ``(mean, size)``
    clusters on the probe ladder: radii ``eig_cluster``, then 1e-6, 1e-4 and
    1e-3 times ``max(1, |D|)``, each rung (and |D|) computed on first use.
    The probes read every rung, q the second and g_D the first."""

    def __init__(self, d, tol: Tolerance):
        self.d, self.tol, self.values, self._rungs = d, tol, eigenvalues(d), {}

    @functools.cached_property
    def _scale(self):
        return max(1.0, _spectral_norm(self.d))

    def _rung(self, i):
        if i not in self._rungs:
            step = (self.tol.eig_cluster, 1e-6, 1e-4, 1e-3)[i]
            self._rungs[i] = _clusters(self.values, step * self._scale if i else step)
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
        n = self._nonempty()
        means = [mean for mean, _ in self._rung(0)]
        return max(_nullities(self.d - m * np.eye(n), 1, self.tol)[-1] for m in means)


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
    """Nullities of M^0, M^1, ..., M^limit of a square M while they grow.  A
    singular value of M^k counts above ``rank_rel * n * |M|^k``: a cut relative
    to |M^k| would count the rounding noise of a power that has decayed."""
    n, nulls, power = m.shape[0], [0], m
    sigma = np.linalg.svd(m, compute_uv=False)
    cut, unit = tol.rank_rel * sigma[0] * n, m / (sigma[0] or 1.0)
    for k in range(limit):
        if k:  # power = M^(k+1) / |M|^k, which cannot overflow
            power = power @ unit
            sigma = np.linalg.svd(power, compute_uv=False)
        null = n - int(np.count_nonzero(sigma > cut))
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
    ``matmul`` (a span's, for the exact route)."""
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


def _staircase(d, h, tol: Tolerance = DEFAULT_TOLERANCE):
    """Controllability staircase of (D, H) (Paige 1981; Van Dooren 1981).

    Returns ``(Q, R, rest)``: Q orthogonal, its first R columns spanning the
    controllable subspace, and ``rest = Q[:, R:]^T D Q[:, R:]`` the input-free
    block.  Each step SVD-compresses the newest block (H, then D times the
    newest controllable columns) in the remaining coordinates and rotates them,
    until a step adds nothing.  The cut is ``rank_rel * max(|D|, |H|) * N`` at
    every step: one relative to each block would count rounding noise in the
    late, small blocks.
    """
    a = _square(d, "D")
    n = a.shape[0]
    q = np.eye(n)
    cut = tol.rank_rel * max(_spectral_norm(a), _spectral_norm(h)) * n
    big_r, block = 0, h
    while big_r < n:
        u, sigma, _ = np.linalg.svd(q[:, big_r:].T @ block)
        step = int(np.count_nonzero(sigma > cut))
        if step == 0:
            break
        q[:, big_r:] = q[:, big_r:] @ u
        block = a @ q[:, big_r : big_r + step]
        big_r += step
    return q, big_r, q[:, big_r:].T @ a @ q[:, big_r:]


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
    nrm = _spectral_norm(a)
    if nrm == 0.0:
        return CoreNilpotent(v=np.eye(n), r=0, matrix_rank=0, mismatch=False)
    power = np.linalg.matrix_power(a / nrm, n)
    u, sigma, vt = np.linalg.svd(power)
    # The power is formed at unit spectral scale, so rounding noise sits near
    # n*eps of 1.0 even when every true singular value vanishes; measuring
    # against sigma_max alone would promote that noise to core dimensions.
    threshold = tol.rank_rel * n * max(float(sigma[0]) if sigma.size else 0.0, 1.0)
    r = int(np.count_nonzero(sigma > threshold))
    v = np.hstack([u[:, :r], vt[r:, :].T])
    if rank(v, tol) != n:
        raise InconclusiveError(
            "core-nilpotent split failed: range and null bases do not span"
        )
    matrix_rank = rank(a, tol)
    return CoreNilpotent(v=v, r=r, matrix_rank=matrix_rank, mismatch=matrix_rank != r)

