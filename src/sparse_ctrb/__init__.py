"""Controllability of discrete-time linear systems under sparse inputs.

The plant is ``x_k = D x_{k-1} + H h_k`` where each input vector ``h_k`` has
at most ``s`` nonzero entries; an optional output map ``y_k = A x_k`` turns
the questions into output controllability.  The package provides

* decisive rank tests (floating-point with explicit tolerances, or exact
  rational arithmetic),
* lower/upper bounds on the minimal number of steps ``K*`` needed to steer,
* an oracle for ``K*`` with witnesses: matroid intersection decides each K,
  gives the best scheduled rank and certifies the witness step by step,
* a similarity transform exposing the sparse-controllable subsystem, and
* minimum-norm sparse input synthesis on a schedule of maximal rank for
  reaching a target state or output.

The ``sparse-ctrb`` console script exposes the same functionality on JSON
system files.
"""

from .bounds import (
    BOUND_VARIANTS,
    KStarBounds,
    common_support_kstar_bounds,
    kstar_bounds_relaxed,
    kstar_bounds_sparse,
    kstar_bounds_unconstrained,
    output_kstar_bounds,
    s_star,
)
from .ctrb import (
    ControllabilityReport,
    SystemModel,
    common_support_test,
    input_restriction,
    kalman_test,
    output_kalman_test,
    output_pbh_necessary,
    output_sparse_necessary,
    pbh_test,
    sparse_pbh_test,
)
from .decomp import (
    CLASS_SPARSE,
    CLASS_SPARSE_UNCONTROLLABLE,
    CLASS_UNCONTROLLABLE,
    DecompositionResult,
    StandardFormCheck,
    standard_form,
    transform_system,
    verify_standard_form,
)
from .errors import (
    BudgetExceededError,
    InconclusiveError,
    InputError,
    SparseCtrbError,
    UncontrollableSystemError,
)
from .exact import (
    common_support_exact,
    controllable_exact,
    min_k_exact,
    output_kalman_exact,
    rank_exact,
    s_star_exact,
    sparse_controllable_exact,
)
from .io import load_system, save_system
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    controllability_matrix,
    eigenvalue_probes,
    min_poly_degree,
    rank,
)
from .oracle import (
    OracleBudget,
    SupportSchedule,
    decision_horizon,
    exact_min_k,
    kalman_type_rank_test,
    output_kalman_type_rank_test,
    partition_schedule,
    rstar_sequence,
    schedule_submatrix,
)
from .steer import (
    SteeringPlan,
    greedy_support_schedule,
    rollout,
    solve_inputs,
    solve_output_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_VARIANTS",
    "BudgetExceededError",
    "CLASS_SPARSE",
    "CLASS_SPARSE_UNCONTROLLABLE",
    "CLASS_UNCONTROLLABLE",
    "ControllabilityReport",
    "DEFAULT_TOLERANCE",
    "DecompositionResult",
    "InconclusiveError",
    "InputError",
    "KStarBounds",
    "OracleBudget",
    "SparseCtrbError",
    "StandardFormCheck",
    "SteeringPlan",
    "SupportSchedule",
    "SystemModel",
    "Tolerance",
    "UncontrollableSystemError",
    "common_support_exact",
    "common_support_kstar_bounds",
    "common_support_test",
    "controllability_matrix",
    "controllable_exact",
    "decision_horizon",
    "eigenvalue_probes",
    "exact_min_k",
    "greedy_support_schedule",
    "input_restriction",
    "kalman_test",
    "kalman_type_rank_test",
    "kstar_bounds_relaxed",
    "kstar_bounds_sparse",
    "kstar_bounds_unconstrained",
    "load_system",
    "min_k_exact",
    "min_poly_degree",
    "output_kalman_exact",
    "output_kalman_test",
    "output_kalman_type_rank_test",
    "output_kstar_bounds",
    "output_pbh_necessary",
    "output_sparse_necessary",
    "partition_schedule",
    "pbh_test",
    "rank",
    "rank_exact",
    "rollout",
    "rstar_sequence",
    "s_star",
    "s_star_exact",
    "save_system",
    "schedule_submatrix",
    "solve_inputs",
    "solve_output_inputs",
    "sparse_controllable_exact",
    "sparse_pbh_test",
    "standard_form",
    "transform_system",
    "verify_standard_form",
]
