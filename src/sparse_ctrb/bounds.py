"""Bounds on the minimal number of steps K* needed to steer between any two
states (or outputs) under a per-step sparsity budget.

All variants, their guards included, are written once in ``_kstar_bounds``
against a span that holds the system (``ctrb._FloatSpan`` or
``exact._ExactSpan``) over integer
quantities (state or output dimension, rank of H, rank of A H, rank of D,
minimal-polynomial degree q, minimal controllable support size S*), so the
floating-point and exact-rational routes cannot diverge in the formulas or
in when a bound is undefined.  The public functions run it in floating
point; the CLI passes the span it built for the run, exact under
``--rational``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ctrb import (
    SystemModel,
    _check_sparsity,
    _common_support,
    _first_controllable_support,
    _FloatSpan,
    _sparse_test,
)
from .errors import BudgetExceededError, UncontrollableSystemError
from .linalg import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "KStarBounds",
    "BOUND_VARIANTS",
    "s_star",
    "kstar_bounds_unconstrained",
    "kstar_bounds_sparse",
    "kstar_bounds_relaxed",
    "output_kstar_bounds",
    "common_support_kstar_bounds",
]

BOUND_VARIANTS = ("unconstrained", "sparse", "relaxed", "output", "common_support")


@dataclass(frozen=True)
class KStarBounds:
    """Two-sided bound lower <= K* <= upper for one variant.

    ``lower_exact`` keeps the raw rational before ceiling (e.g. 3/2), ``q`` the
    minimal-polynomial degree of D (in floating point built to err upward,
    which keeps the upper bound valid), ``r_hs_star`` the effective per-step rank
    min(rank(H), s) (rank(A H) in the output variant), and ``s_star`` the
    minimal controllable support size when the variant uses it.
    """

    variant: str
    lower: int
    upper: int
    lower_exact: Fraction
    q: int
    r_hs_star: int
    s_star: Optional[int] = None


def _ceil_frac(num: int, den: int) -> int:
    return -(-num // den)


def _s_star(span, max_size=None, max_subsets=None):
    """S* in the span's arithmetic; see :func:`s_star`."""
    if not span.rank_condition()[0]:
        raise UncontrollableSystemError("S* undefined: system is not controllable")
    l = span.sys.n_inputs
    cap = l if max_size is None else min(int(max_size), l)
    support, tried = _first_controllable_support(span, range(1, cap + 1), max_subsets)
    if support is None:
        raise BudgetExceededError(
            f"no controllable support within size cap {cap}", enumerations=tried
        )
    return len(support)


def _kstar_bounds(span, variant, s) -> KStarBounds:
    """The bounds of one variant in the span's arithmetic, guards included.

    The guard of each variant is the decision it requires: controllability,
    s-sparse controllability, a controllable common support, or (output) a
    valid output map and sparsity; its failure raises.  A passed sparse
    guard has settled the rank condition and rank(D) (in its slack), so
    neither is decided again.
    """
    sys = span.sys
    target = sys.n_states
    if variant != "unconstrained":
        s = _check_sparsity(sys, s)
    if variant == "unconstrained":
        if not span.rank_condition()[0]:
            raise UncontrollableSystemError("K* undefined: system is not controllable")
    elif variant in ("sparse", "relaxed"):
        report = _sparse_test(span, s)
        if not report.verdict:
            raise UncontrollableSystemError(
                "K* undefined: system is not s-sparse controllable"
            )
        r_d = report.slack + sys.n_states - s
    elif variant == "common_support":
        if not _common_support(span, s)[0]:
            raise UncontrollableSystemError(
                "K* undefined: no single size-s support is controllable"
            )
    elif variant == "output":
        a = span.a
        target = len(a)
        r_ah = span.rank([span.matmul(a, span.h)])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    r_h = span.rank([span.h])
    if variant == "unconstrained":
        r_eff = r_h
    else:
        r_eff = min(r_ah if variant == "output" else r_h, s)
    q = span.min_poly_degree()
    if r_eff < 1:
        raise UncontrollableSystemError(
            f"{variant} bounds undefined: effective per-step rank is zero"
        )
    s_star_value = None
    if variant == "sparse":
        support, _ = _first_controllable_support(span, range(1, sys.n_inputs + 1))
        s_star_value = len(support)
        upper = min(q * _ceil_frac(s_star_value, s), target - r_eff + 1)
    elif variant == "relaxed":
        upper = min(q * _ceil_frac(r_h, s), r_d + 1, target)
    elif variant == "output":
        upper = min(q * _ceil_frac(r_h, s), target - r_eff + 1)
    else:
        upper = min(q, target - r_eff + 1)
    return KStarBounds(
        variant=variant,
        lower=_ceil_frac(target, r_eff),
        upper=upper,
        lower_exact=Fraction(target, r_eff),
        q=q,
        r_hs_star=r_eff,
        s_star=s_star_value,
    )


def s_star(
    sys: SystemModel,
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_size: Optional[int] = None,
    max_subsets: Optional[int] = None,
) -> int:
    """Smallest support size T such that some (D, H_S) with |S| = T is
    controllable.  Undefined (raises) for uncontrollable systems; optional
    caps turn combinatorial blowup into an inconclusive error."""
    return _s_star(_FloatSpan(sys, tol), max_size, max_subsets)


def kstar_bounds_unconstrained(
    sys: SystemModel, tol: Tolerance = DEFAULT_TOLERANCE
) -> KStarBounds:
    """ceil(N / rank(H)) <= K* <= min(q, N - rank(H) + 1) for controllable systems."""
    return _kstar_bounds(_FloatSpan(sys, tol), "unconstrained", None)


def kstar_bounds_sparse(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> KStarBounds:
    """ceil(N / min(rank(H), s)) <= K* <= min(q * ceil(S*/s), N - min(rank(H), s) + 1).

    Requires s-sparse controllability.  For s = 1 the two sides coincide at N.
    """
    return _kstar_bounds(_FloatSpan(sys, tol), "sparse", s)


def kstar_bounds_relaxed(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> KStarBounds:
    """Enumeration-free variant: upper = min(q * ceil(rank(H)/s), rank(D) + 1, N).

    Never tighter than the sparse variant but avoids the S* subset search.
    """
    return _kstar_bounds(_FloatSpan(sys, tol), "relaxed", s)


def output_kstar_bounds(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> KStarBounds:
    """ceil(m / min(rank(A H), s)) <= K* <= min(q * ceil(rank(H)/s), m - min(rank(A H), s) + 1).

    The caller asserts s-sparse output controllability; this routine only
    screens the necessary rank quantity (rank(A H) >= 1).
    """
    return _kstar_bounds(_FloatSpan(sys, tol), "output", s)


def common_support_kstar_bounds(
    sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> KStarBounds:
    """ceil(N / min(rank(H), s)) <= K* <= min(q, N - min(rank(H), s) + 1) when a
    single common support works."""
    return _kstar_bounds(_FloatSpan(sys, tol), "common_support", s)
