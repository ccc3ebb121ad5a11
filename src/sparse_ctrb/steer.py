"""Input synthesis: pick a support schedule, then solve for the inputs.

The endpoint map is linear once the schedule is fixed:
``x_K - D^K x_0 = [D^(K-1) H_{S_1}, ..., H_{S_K}] h``, so steering reduces to
a minimum-norm least-squares solve restricted to the scheduled columns.
Infeasibility shows up as a nonzero endpoint residual, not an exception.
The greedy schedule grows the orthonormal basis of the schedule search
(``linalg._independent_columns``) over the power sequence of ``linalg``, and
the scheduled columns are the oracle's ``schedule_submatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctrb import SystemModel, _check_sparsity, _require_output_map
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _empty_basis,
    _independent_columns,
    _powers,
)
from .oracle import SupportSchedule, schedule_submatrix

__all__ = [
    "SteeringPlan",
    "greedy_support_schedule",
    "solve_inputs",
    "solve_output_inputs",
    "rollout",
]


@dataclass(frozen=True)
class SteeringPlan:
    """Schedule, per-step inputs (K x L, zero off-support), the resulting
    state trajectory (K+1 x N), and the endpoint residual.  For state plans
    the residual is |x_final - x_K|; for output plans |y_final - A x_K|."""

    schedule: SupportSchedule
    inputs: np.ndarray
    trajectory: np.ndarray
    residual: float


def greedy_support_schedule(
    sys: SystemModel, s: int, k: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> SupportSchedule:
    """Heuristic schedule built backward from the final step.

    For i = K down to 1, columns of D^(K-i) H are scanned in index order and
    kept while they increase the accumulated rank, up to s per step.  The last
    block is filled first: directions outside range(D) are reachable only
    there.  Greedy is NOT rank-optimal in general -- an early pick can block a
    scarcer direction (e.g. D = diag(1, 0), H = I, s = 1, K = 2 stalls at rank
    1 while the schedule ((0,), (1,)) reaches 2); use the oracle's witness
    schedule when optimality matters.  Earlier steps left without useful
    columns get empty supports.  The accumulated span is the schedule
    search's orthonormal basis, grown one column at a time, so a column
    counts as new under the same dependence threshold.
    """
    _check_sparsity(sys, s)
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"K must be a non-negative integer, got {k!r}")
    k = int(k)
    n, l = sys.n_states, sys.n_inputs
    supports = [()] * k
    basis = _empty_basis(n)
    for i, block in zip(range(k, 0, -1), _powers(sys.D, sys.H)):
        if basis.shape[1] == n:
            break
        picked = []
        for j in range(l):
            if len(picked) == int(s) or basis.shape[1] == n:
                break
            basis, accepted = _independent_columns(basis, block[:, j : j + 1])
            if accepted:
                picked.append(j)
        supports[i - 1] = tuple(picked)
    return SupportSchedule(supports=tuple(supports), s=int(s))


def _scheduled_columns(sys: SystemModel, schedule: SupportSchedule):
    """Scheduled endpoint-map columns plus their (step, channel) slots."""
    slots = [(step, j) for step, sup in enumerate(schedule.supports) for j in sup]
    return schedule_submatrix(sys, schedule), slots


def _assemble_plan(sys, schedule, x_init, coeffs, slots, target, output_map=None):
    k = schedule.k
    inputs = np.zeros((k, sys.n_inputs))
    for value, (step, j) in zip(coeffs, slots):
        inputs[step, j] = value
    trajectory = rollout(sys, inputs, x_init)
    endpoint = trajectory[-1] if output_map is None else output_map @ trajectory[-1]
    residual = float(np.linalg.norm(target - endpoint))
    inputs.setflags(write=False)
    trajectory.setflags(write=False)
    return SteeringPlan(
        schedule=schedule, inputs=inputs, trajectory=trajectory, residual=residual
    )


def _min_norm_solve(matrix, rhs, tol):
    if matrix.shape[1] == 0:
        return np.zeros(0)
    coeffs, *_ = np.linalg.lstsq(matrix, rhs, rcond=tol.rank_rel * max(matrix.shape))
    return coeffs


def solve_inputs(
    sys: SystemModel,
    schedule: SupportSchedule,
    x_init,
    x_final,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> SteeringPlan:
    """Minimum-norm inputs steering x_init toward x_final on the schedule."""
    x_init = _vector(x_init, sys.n_states, "x_init")
    x_final = _vector(x_final, sys.n_states, "x_final")
    matrix, slots = _scheduled_columns(sys, schedule)
    drift = np.linalg.matrix_power(sys.D, schedule.k) @ x_init
    coeffs = _min_norm_solve(matrix, x_final - drift, tol)
    return _assemble_plan(sys, schedule, x_init, coeffs, slots, x_final)


def solve_output_inputs(
    sys: SystemModel,
    schedule: SupportSchedule,
    x_init,
    y_final,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> SteeringPlan:
    """Minimum-norm inputs steering the output A x_K toward y_final."""
    a = _require_output_map(sys)
    x_init = _vector(x_init, sys.n_states, "x_init")
    y_final = _vector(y_final, a.shape[0], "y_final")
    matrix, slots = _scheduled_columns(sys, schedule)
    drift = a @ (np.linalg.matrix_power(sys.D, schedule.k) @ x_init)
    coeffs = _min_norm_solve(a @ matrix, y_final - drift, tol)
    return _assemble_plan(sys, schedule, x_init, coeffs, slots, y_final, output_map=a)


def rollout(sys: SystemModel, inputs, x_init) -> np.ndarray:
    """Simulate x_k = D x_{k-1} + H h_k; returns the K+1 visited states."""
    x = _vector(x_init, sys.n_states, "x_init")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.size == 0:
        inputs = inputs.reshape(0, sys.n_inputs)
    if inputs.shape[1] != sys.n_inputs:
        raise ValueError(
            f"inputs must have {sys.n_inputs} columns, got {inputs.shape[1]}"
        )
    states = [x]
    for h in inputs:
        states.append(sys.D @ states[-1] + sys.H @ h)
    return np.vstack([state.reshape(1, -1) for state in states])


def _vector(x, n, name):
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr
