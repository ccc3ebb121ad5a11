"""Dense linear-algebra kernels shared by the controllability machinery.

Rank decisions follow two rules: :func:`rank` counts a singular value above
``rank_rel * sigma_max * max(rows, cols)``, and the controllability staircase
(:func:`_staircase`) one above ``rank_rel * max(|D|, |H|) * N``.  All routines
here are pure functions of their arguments and are safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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
    smax = sigma[0]
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol.rank_rel * smax * max(a.shape)))


def eigenvalues(d) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by real part then imaginary part."""
    a = _square(d, "D", allow_complex=True)
    w = np.linalg.eigvals(a)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def _cluster_means(values, radius):
    """Greedy clustering of complex values at an absolute radius; returns the
    cluster means sorted by (real, imag)."""
    clusters = []  # [sum, count]
    for v in values:
        for c in clusters:
            if abs(v - c[0] / c[1]) <= radius:
                c[0] += v
                c[1] += 1
                break
        else:
            clusters.append([v, 1])
    means = [c[0] / c[1] for c in clusters]
    means.sort(key=lambda z: (z.real, z.imag))
    return means


def eigenvalue_probes(d, tol: Tolerance = DEFAULT_TOLERANCE) -> list[complex]:
    """Candidate eigenvalue locations for the eigenvalue sweeps: the output
    condition (``ctrb.output_pbh_necessary``) and the confirmation of a full
    staircase in the state rank condition.

    Cluster means are taken at ``eig_cluster`` and at coarser radii scaled by
    the spectral norm.  A defective eigenvalue of multiplicity k is computed
    with error ~eps^(1/k)*|D|, which exceeds eig_cluster, and the rank drop of
    [lambda*I - D, H] is only visible within ~1e-9 of the true eigenvalue; the
    coarse layers recover it because the mean of the split group cancels the
    perturbation.  Probes at means of merged distinct eigenvalues are harmless
    (full rank there).
    """
    w = eigenvalues(d)
    if w.size == 0:
        return []
    scale = max(1.0, _spectral_norm(_square(d, "D", allow_complex=True)))
    radii = [tol.eig_cluster, 1e-6 * scale, 1e-4 * scale, 1e-3 * scale]
    probes: list[complex] = []
    for radius in radii:
        for mean in _cluster_means(list(w), radius):
            if not any(p == mean for p in probes):
                probes.append(mean)
    probes.sort(key=lambda z: (z.real, z.imag))
    return probes


def min_poly_degree(d, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Degree of the minimal polynomial of ``d``.

    Detected as the smallest q >= 1 with vec(D^q) in span{vec(D^0..D^{q-1})}.
    The matrix is normalized by its spectral norm first; the degree is
    invariant under nonzero scaling and the powers stay well-conditioned.
    """
    a = _square(d, "D")
    n = a.shape[0]
    if n == 0:
        raise ValueError("D must be non-empty")
    nrm = _spectral_norm(a)
    if nrm == 0.0:
        return 1
    vecs, known = [], None
    for q, power in zip(range(n + 1), _powers(a / nrm, np.eye(n))):
        vecs.append(power.ravel())
        grown = rank(np.column_stack(vecs), tol)
        if grown == known:
            return q
        known = grown
    return n


def max_geometric_multiplicity(d, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Largest geometric multiplicity over the (clustered) eigenvalues of ``d``."""
    a = _square(d, "D")
    n = a.shape[0]
    if n == 0:
        raise ValueError("D must be non-empty")
    reps = _cluster_means(list(eigenvalues(a)), tol.eig_cluster)
    eye = np.eye(n)
    return max(n - rank(lam * eye - a, tol) for lam in reps)


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
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"K must be a positive integer, got {k!r}")
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
    working tolerance.
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
        raise ArithmeticError(
            "core-nilpotent split failed: range and null bases do not span"
        )
    matrix_rank = rank(a, tol)
    return CoreNilpotent(v=v, r=r, matrix_rank=matrix_rank, mismatch=matrix_rank != r)


def _independent_columns(q, block, dep_eps=1e-13):
    """Extend the orthonormal column set ``q`` with the columns of ``block``.

    Returns (q_new, accepted_indices).  The dependence threshold is biased
    toward independence: over-counting here is safe because accepting callers
    re-verify with a full SVD rank, while under-counting could prune a viable
    branch of the schedule search.
    """
    accepted = []
    current = q
    for j in range(block.shape[1]):
        col = block[:, j]
        norm0 = np.linalg.norm(col)
        if norm0 == 0.0:
            continue
        v = col - current @ (current.T @ col) if current.shape[1] else col.copy()
        v = v - current @ (current.T @ v) if current.shape[1] else v
        nv = np.linalg.norm(v)
        if nv > dep_eps * norm0:
            current = np.column_stack([current, v / nv])
            accepted.append(j)
    return current, accepted


def _empty_basis(n):
    return np.zeros((n, 0))
