"""Input synthesis: pick a support schedule, then solve for the inputs.

The endpoint map is linear once the schedule is fixed:
``x_K - D^K x_0 = [D^(K-1) H_{S_1}, ..., H_{S_K}] h``, so steering reduces to
a minimum-norm least-squares solve restricted to the scheduled columns.
Infeasibility shows up as a nonzero endpoint residual, not an exception.
The schedule is the oracle's matroid-intersection kernel's, of maximal rank
on the oracle's columns (``ctrb._products``, which zero rounding residue),
and the solve runs on the raw columns of the oracle's ``schedule_submatrix``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ctrb import (
    SystemModel,
    _check_sparsity,
    _FloatSpan,
    _products,
    _require_output_map,
)
from .linalg import DEFAULT_TOLERANCE, Tolerance, _integer
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
    matroid-intersection kernel on the oracle's columns, a greedy fill from
    the last step back completed by augmenting paths.  Steps without columns
    get empty supports."""
    s = _check_sparsity(sys, s)
    k = _integer(k, f"K must be a non-negative integer, got {k!r}", least=0)
    if k == 0:
        return SupportSchedule(supports=(), s=s)
    span = _FloatSpan(sys, tol)
    blocks = list(itertools.islice(_products(span), k))[::-1]
    counter = _Counter(OracleBudget(), span.what)
    inside, _ = _common_independent(blocks, s, span, counter)
    return SupportSchedule(supports=tuple(_supports_of(inside, k)), s=s)


def _solve(sys, schedule, x_init, target, output_map, tol):
    """Minimum-norm inputs on ``schedule`` steering ``output_map @ x_K``
    (x_K itself when ``output_map`` is None) from ``x_init`` toward
    ``target``, with the trajectory and residual they give."""
    matrix = schedule_submatrix(sys, schedule)
    drift = np.linalg.matrix_power(sys.D, schedule.k) @ x_init
    if output_map is not None:
        matrix, drift = output_map @ matrix, output_map @ drift
    inputs = np.zeros((schedule.k, sys.n_inputs))
    if matrix.shape[1]:
        rcond = tol.rank_rel * max(matrix.shape)
        coeffs, *_ = np.linalg.lstsq(matrix, target - drift, rcond=rcond)
        slots = [(step, j) for step, sup in enumerate(schedule.supports) for j in sup]
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
    return _solve(sys, schedule, x_init, x_final, None, tol)


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
    return _solve(sys, schedule, x_init, y_final, a, tol)


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
