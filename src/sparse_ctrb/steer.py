"""Input synthesis: pick a support schedule, then solve for the inputs.

The endpoint map is linear once the schedule is fixed:
``x_K - D^K x_0 = [D^(K-1) H_{S_1}, ..., H_{S_K}] h``, so steering reduces to
a minimum-norm least-squares solve restricted to the scheduled columns.
Infeasibility shows up as a nonzero endpoint residual, not an exception.
The schedule is the oracle's matroid-intersection kernel's, of maximal rank,
and the scheduled columns are the oracle's ``schedule_submatrix``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ctrb import SystemModel, _check_sparsity, _FloatSpan, _require_output_map
from .linalg import DEFAULT_TOLERANCE, Tolerance, _powers
from .oracle import (
    OracleBudget,
    SupportSchedule,
    _common_independent,
    _Counter,
    _supports_of,
    schedule_submatrix,
)

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
    """A K-step schedule of maximal rank r*(K): the set of the oracle's
    matroid-intersection kernel, a greedy fill from the last step back
    completed by augmenting paths.  Steps without columns get empty supports.
    """
    _check_sparsity(sys, s)
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"K must be a non-negative integer, got {k!r}")
    k, s = int(k), int(s)
    if k == 0:
        return SupportSchedule(supports=(), s=s)
    span = _FloatSpan(tol)
    blocks = list(itertools.islice(_powers(sys.D, sys.H), k))[::-1]
    counter = _Counter(OracleBudget(), span.what)
    inside, _ = _common_independent(blocks, s, sys.n_inputs, span, counter, k)
    return SupportSchedule(supports=tuple(_supports_of(inside, k)), s=s)


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
