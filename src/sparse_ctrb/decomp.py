"""Standard form that separates sparse-controllable, sparse-uncontrollable,
and uncontrollable coordinates.

Construction, for a system (D, H) with controllable dimension R:

1. U: orthogonal, from the controllability staircase (``linalg._staircase``),
   with first R columns spanning the controllable subspace.
2. (D, H) -> (U^T D U, U^T H): block-triangular with controllable leading
   R x R block D_1 and zero trailing rows of U^T H.
3. Core-nilpotent (Fitting) split of D_1 with basis V and core dimension
   r = rank(D_1^R).  (A diagonalization step would need the zero eigenvalue
   of D_1 to be semisimple; the Fitting split always exists and the
   ``core_rank_mismatch`` flag marks the defective case.)
4. W = blockdiag(V, I).
5. (D_bar, H_bar) = ((UW)^-1 D (UW), (UW)^-1 H).  The first
   R_s = r + min(s, R - r) coordinates form an s-sparse-controllable
   subsystem, the next R - R_s are controllable but not sparse-reachable in
   one pass, and the last N - R evolve input-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ctrb import ControllabilityReport, SystemModel, _check_sparsity, sparse_pbh_test
from .linalg import DEFAULT_TOLERANCE, Tolerance, _staircase, core_nilpotent, rank

__all__ = [
    "DecompositionResult",
    "StandardFormCheck",
    "standard_form",
    "verify_standard_form",
    "transform_system",
    "CLASS_SPARSE",
    "CLASS_SPARSE_UNCONTROLLABLE",
    "CLASS_UNCONTROLLABLE",
]

CLASS_SPARSE = "sparse_controllable"
CLASS_SPARSE_UNCONTROLLABLE = "sparse_uncontrollable"
CLASS_UNCONTROLLABLE = "uncontrollable"


@dataclass(frozen=True)
class DecompositionResult:
    """Standard form of one system at sparsity s.

    ``T = U @ W`` is the complete change of basis; ``classification`` labels
    each new coordinate, in order: R_s sparse-controllable, R - R_s
    sparse-uncontrollable, N - R uncontrollable.
    """

    U: np.ndarray
    W: np.ndarray
    T: np.ndarray
    D_bar: np.ndarray
    H_bar: np.ndarray
    R: int
    r: int
    R_s: int
    s: int
    classification: tuple
    core_rank_mismatch: bool


@dataclass(frozen=True)
class StandardFormCheck:
    """Residual report for one decomposition.

    ``similarity_residual``: |T D_bar T^-1 - D| / max(1, |D|).
    ``structure_residual``: largest magnitude over the blocks of D_bar that
    the construction forces to zero.
    ``nilpotent_residual``: |M^(R-r)| / max(1, |M|^(R-r)) for the middle block
    M; zero when the core split is clean (M itself must vanish then, which
    ``structure_residual`` covers).
    ``input_free_residual``: largest magnitude in the uncontrollable rows of
    H_bar.
    ``ok``: every residual within ``residual_abs``; the leading R_s block is
    s-sparse controllable after a clean core split, M singular (nilpotent) if not.
    """

    similarity_residual: float
    structure_residual: float
    nilpotent_residual: float
    input_free_residual: float
    subsystem_report: Optional[ControllabilityReport]
    ok: bool


def standard_form(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> DecompositionResult:
    """Compute the standard form of ``sys`` at sparsity ``s``."""
    s = _check_sparsity(sys, s)
    n = sys.n_states
    u, big_r, _ = _staircase(sys.D, sys.H, tol)
    d_check = u.T @ sys.D @ u
    d_1 = d_check[:big_r, :big_r]
    fitting = core_nilpotent(d_1, tol)
    w = np.eye(n)
    w[:big_r, :big_r] = fitting.v
    t = u @ w
    d_bar = np.linalg.solve(t, sys.D @ t)
    h_bar = np.linalg.solve(t, sys.H)
    r = fitting.r
    r_s = r + min(s, big_r - r)
    classification = (
        (CLASS_SPARSE,) * r_s
        + (CLASS_SPARSE_UNCONTROLLABLE,) * (big_r - r_s)
        + (CLASS_UNCONTROLLABLE,) * (n - big_r)
    )
    for arr in (u, w, t, d_bar, h_bar):
        arr.setflags(write=False)
    return DecompositionResult(
        U=u,
        W=w,
        T=t,
        D_bar=d_bar,
        H_bar=h_bar,
        R=big_r,
        r=r,
        R_s=r_s,
        s=s,
        classification=classification,
        core_rank_mismatch=fitting.mismatch,
    )


def verify_standard_form(
    sys: SystemModel, dec: DecompositionResult, tol: Tolerance = DEFAULT_TOLERANCE
) -> StandardFormCheck:
    """Independent residual checks of a decomposition against its system."""
    n = sys.n_states
    big_r, r, r_s = dec.R, dec.r, dec.R_s
    scale_d = max(1.0, float(np.linalg.norm(sys.D, 2))) if n else 1.0
    reconstructed = dec.T @ dec.D_bar @ np.linalg.inv(dec.T)
    similarity = float(np.linalg.norm(reconstructed - sys.D, 2)) / scale_d if n else 0.0

    def block_mag(rows, cols):
        block = dec.D_bar[rows, cols]
        return float(np.max(np.abs(block))) if block.size else 0.0

    zero_blocks = [
        block_mag(slice(r, big_r), slice(0, r)),       # (2,1)
        block_mag(slice(0, r), slice(r, big_r)),       # (1,2)
        block_mag(slice(big_r, n), slice(0, big_r)),   # (3,1) and (3,2)
    ]
    middle = dec.D_bar[r:big_r, r:big_r]
    if dec.core_rank_mismatch:
        nil_power = np.linalg.matrix_power(middle, max(big_r - r, 1))
        scale = max(1.0, float(np.linalg.norm(middle, 2)) ** max(big_r - r, 1))
        nilpotent_residual = float(np.max(np.abs(nil_power))) / scale if middle.size else 0.0
    else:
        zero_blocks.append(
            float(np.max(np.abs(middle))) if middle.size else 0.0
        )
        nilpotent_residual = 0.0
    structure = max(zero_blocks) / scale_d
    tail_rows = dec.H_bar[big_r:, :]
    input_free = (
        float(np.max(np.abs(tail_rows))) / max(1.0, float(np.linalg.norm(sys.H, 2)))
        if tail_rows.size
        else 0.0
    )
    subsystem_report = None
    subsystem_ok = True
    if r_s > 0:
        subsystem = SystemModel(
            D=dec.D_bar[:r_s, :r_s], H=dec.H_bar[:r_s, :]
        )
        subsystem_report = sparse_pbh_test(subsystem, dec.s, tol)
        if not dec.core_rank_mismatch:
            subsystem_ok = subsystem_report.verdict
    ok = (
        similarity <= tol.residual_abs
        and structure <= tol.residual_abs
        and nilpotent_residual <= tol.residual_abs
        and input_free <= tol.residual_abs
        and subsystem_ok
        and not (dec.core_rank_mismatch and rank(middle, tol) == big_r - r)
    )
    return StandardFormCheck(
        similarity_residual=similarity,
        structure_residual=structure,
        nilpotent_residual=nilpotent_residual,
        input_free_residual=input_free,
        subsystem_report=subsystem_report,
        ok=ok,
    )


def transform_system(sys: SystemModel, t, tol: Tolerance = DEFAULT_TOLERANCE) -> SystemModel:
    """Change of state basis x = T x'; returns (T^-1 D T, T^-1 H, A T)."""
    t = np.asarray(t, dtype=np.float64)
    n = sys.n_states
    if t.shape != (n, n):
        raise ValueError(f"T must be {n} x {n}, got {t.shape}")
    if rank(t, tol) < n:
        raise ValueError("T is singular at the working tolerance")
    d_new = np.linalg.solve(t, sys.D @ t)
    h_new = np.linalg.solve(t, sys.H)
    a_new = None if sys.A is None else sys.A @ t
    return SystemModel(D=d_new, H=h_new, A=a_new)
