"""Brute-force schedule enumeration: the ground truth the fast tests answer to.

A support schedule fixes which ``s`` input channels are active at each of K
steps; the scheduled reachability matrix is ``[D^(K-1) H_{S_1}, ...,
H_{S_K}]``, mapped through A for output questions.  The system is s-sparse
controllable iff some schedule of some length reaches rank N.

There is one search.  ``_best_schedule`` is the depth-first kernel: for one
K it returns the best rank reached and the lexicographically first schedule
reaching it.  ``_min_k`` runs the kernel for K = 1, 2, ... under one
budget.  State and output targets, float and exact arithmetic all
go through these two; the arithmetic is a *span* object, ``ctrb._FloatSpan``
or ``exact._ExactSpan``.  Worst-case cost is exponential in K; budgets make
overruns an explicit inconclusive outcome instead of a wrong answer.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import _kstar_bounds
from .ctrb import SystemModel, _check_sparsity, _FloatSpan, _require_output_map
from .errors import BudgetExceededError, UncontrollableSystemError
from .linalg import DEFAULT_TOLERANCE, Tolerance, _powers, _scheduled

__all__ = [
    "OracleBudget",
    "SupportSchedule",
    "partition_schedule",
    "schedule_submatrix",
    "kalman_type_rank_test",
    "exact_min_k",
    "decision_horizon",
    "rstar_sequence",
    "output_kalman_type_rank_test",
]


@dataclass(frozen=True)
class OracleBudget:
    """Search budget. ``max_k=None`` lets callers derive the decision horizon."""

    max_k: Optional[int] = None
    max_enumerations: int = 1_000_000
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.max_k is not None and not (
            isinstance(self.max_k, int) and self.max_k >= 1
        ):
            raise ValueError(f"max_k must be a positive integer or None, got {self.max_k!r}")
        if not (isinstance(self.max_enumerations, int) and self.max_enumerations >= 1):
            raise ValueError("max_enumerations must be a positive integer")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive or None")


@dataclass(frozen=True)
class SupportSchedule:
    """Ordered supports (S_1, ..., S_K); each S_i is a sorted tuple of column
    indices with |S_i| <= s.  Empty supports force a zero input at that step."""

    supports: tuple
    s: int

    def __post_init__(self):
        if not (isinstance(self.s, int) and self.s >= 1):
            raise ValueError(f"s must be a positive integer, got {self.s!r}")
        cleaned = []
        for sup in self.supports:
            sup = tuple(int(j) for j in sup)
            if len(sup) > self.s:
                raise ValueError(f"support {sup} exceeds sparsity {self.s}")
            if any(j < 0 for j in sup):
                raise ValueError(f"support {sup} has negative indices")
            if any(a >= b for a, b in zip(sup, sup[1:])):
                raise ValueError(f"support {sup} must be strictly increasing")
            cleaned.append(sup)
        object.__setattr__(self, "supports", tuple(cleaned))

    @property
    def k(self) -> int:
        return len(self.supports)


def partition_schedule(l: int, s: int) -> SupportSchedule:
    """Schedule of ceil(L/s) size-s supports covering all L channels in order;
    a short final set is padded from the tail of the index range."""
    if not (isinstance(l, int) and l >= 1):
        raise ValueError(f"L must be a positive integer, got {l!r}")
    if not (isinstance(s, int) and 1 <= s <= l):
        raise ValueError(f"s must satisfy 1 <= s <= L={l}, got {s!r}")
    supports = []
    for i in range(math.ceil(l / s)):
        start = i * s
        sup = tuple(range(start, min(start + s, l)))
        if len(sup) < s:
            sup = tuple(range(l - s, l))
        supports.append(sup)
    return SupportSchedule(supports=tuple(supports), s=s)


def schedule_submatrix(sys: SystemModel, schedule: SupportSchedule) -> np.ndarray:
    """Scheduled reachability matrix ``[D^(K-1) H_{S_1}, ..., H_{S_K}]``."""
    l = sys.n_inputs
    for sup in schedule.supports:
        if any(j >= l for j in sup):
            raise ValueError(f"support {sup} out of range for L={l}")
    blocks = list(itertools.islice(_powers(sys.D, sys.H), schedule.k))[::-1]
    return _scheduled(blocks, schedule.supports, sys.n_states)


class _Counter:
    def __init__(self, budget: OracleBudget, what: str):
        self.budget = budget
        self.what = what
        self.used = 0
        self.deadline = (
            None if budget.deadline_s is None else time.monotonic() + budget.deadline_s
        )

    def tick(self, k):
        self.used += 1
        if self.used > self.budget.max_enumerations:
            raise BudgetExceededError(
                f"{self.what} exceeded enumeration budget",
                enumerations=self.used,
                k_reached=k,
            )
        if self.deadline is not None and (self.used & 0xFF) == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError(
                    f"{self.what} exceeded deadline",
                    enumerations=self.used,
                    k_reached=k,
                )


def _descending_blocks(sys, s, span, output, k_max):
    """For K = 1..k_max, the blocks ``[M D^(K-1) H, ..., M H]`` (M = A for
    output questions, else I) and their capacities ``min(s, rank)``, each
    power built and ranked once."""
    a = span.matrix(_require_output_map(sys)) if output else None
    powers = _powers(span.matrix(sys.D), span.matrix(sys.H), span.matmul)
    blocks, caps = [], []
    for power in itertools.islice(powers, k_max):
        block = power if a is None else span.matmul(a, power)
        blocks.insert(0, block)
        caps.insert(0, min(s, span.rank([block])))
        yield blocks, caps


def _best_schedule(blocks, caps, supports, target, floor, span, counter):
    """Depth-first search over schedules of the descending-power ``blocks``.

    Supports are tried in lexicographic order, schedule positions left to
    right.  Returns the best rank above ``floor`` (or ``floor`` itself) and
    the first schedule that reached it (None if none rose above ``floor``).
    Branches whose rank plus the capacity of the blocks still to come cannot
    beat the best so far are cut, and the search stops at the ceiling
    ``min(target, rank of all blocks, sum of capacities)``.
    """
    k = len(blocks)
    suffix_cap = [0] * (k + 1)  # capacity of the blocks at depths >= d
    for d in range(k - 1, -1, -1):
        suffix_cap[d] = suffix_cap[d + 1] + caps[d]
    ceiling = min(target, suffix_cap[0])
    if ceiling > floor:
        ceiling = min(ceiling, span.rank(blocks))
    best, witness = floor, None
    chosen = []

    def dfs(depth, basis):
        nonlocal best, witness
        for sup in supports:
            counter.tick(k)
            nxt, dim = span.extend(basis, blocks[depth], sup)
            if dim + suffix_cap[depth + 1] <= best:
                continue
            chosen.append(sup)
            if depth + 1 < k:
                dfs(depth + 1, nxt)
            elif dim > best:
                reached = span.leaf_rank(dim, blocks, chosen)
                if reached > best:
                    best, witness = reached, tuple(chosen)
            chosen.pop()
            if best == ceiling:
                return

    if best < ceiling:
        dfs(0, span.empty(blocks[0]))
    return best, witness


def _min_k(sys, s, budget, span, output=False, first_k=1):
    """Smallest K in ``first_k..max_k`` at which a schedule reaches full state
    (or output) rank, as ``(K, supports, max_k)``; ``(None, None, max_k)``
    when none does.  One budget covers every K, and ``max_k`` defaults to the
    span's decisive horizon."""
    if output:
        _require_output_map(sys)
    _check_sparsity(sys, s)
    max_k = budget.max_k if budget.max_k is not None else span.horizon(sys, s, output)
    counter = _Counter(budget, span.what)
    target = sys.n_outputs if output else sys.n_states
    supports = list(itertools.combinations(range(sys.n_inputs), s))
    problems = _descending_blocks(sys, s, span, output, max_k)
    for k, (blocks, caps) in enumerate(problems, start=1):
        if k < first_k:
            continue
        _, witness = _best_schedule(
            blocks, caps, supports, target, target - 1, span, counter
        )
        if witness is not None:
            return k, witness, max_k
    return None, None, max_k


def _rank_test(sys, s, k, budget, tol, output):
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"K must be a positive integer, got {k!r}")
    budget = replace(budget or OracleBudget(), max_k=int(k))
    _, witness, _ = _min_k(sys, s, budget, _FloatSpan(tol), output, first_k=int(k))
    if witness is None:
        return False, None
    return True, SupportSchedule(supports=witness, s=s)


def kalman_type_rank_test(
    sys: SystemModel,
    s: int,
    k: int,
    budget: Optional[OracleBudget] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
):
    """(verdict, witness) for: does some K-step schedule reach state rank N?

    The witness is the lexicographically smallest rank-N schedule (supports
    enumerated in lexicographic order, schedule positions left to right).
    """
    return _rank_test(sys, s, k, budget, tol, output=False)


def _partition_horizon(sys, s):
    return sys.n_states * math.ceil(sys.n_inputs / s)


def decision_horizon(sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Schedule length that decides s-sparse controllability outright.

    When the sparse rank test passes, the steering-time upper bound applies;
    otherwise N * ceil(L/s) steps suffice: if no schedule of that length
    reaches rank N, none of any length does (repeating the partition schedule
    N times realizes the unconstrained rank).
    """
    try:
        return _kstar_bounds(sys, "sparse", s, _FloatSpan(tol)).upper
    except UncontrollableSystemError:
        return _partition_horizon(sys, s)


def exact_min_k(
    sys: SystemModel,
    s: int,
    budget: Optional[OracleBudget] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
):
    """Smallest K admitting a rank-N schedule, with its witness.

    Searches K = 1..max_k (the decision horizon by default) and returns
    ``(None, None)`` when no schedule exists within that range, which is
    definitive when max_k is at least the decision horizon.
    """
    k, witness, _ = _min_k(sys, s, budget or OracleBudget(), _FloatSpan(tol))
    if witness is None:
        return None, None
    return k, SupportSchedule(supports=witness, s=s)


def rstar_sequence(
    sys: SystemModel,
    s: int,
    k_max: int,
    budget: Optional[OracleBudget] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
):
    """Best achievable scheduled rank for each K = 1..k_max.

    The sequence increases strictly until the minimal steering time and is
    constant afterwards.
    """
    _check_sparsity(sys, s)
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    span = _FloatSpan(tol)
    counter = _Counter(budget or OracleBudget(), span.what)
    supports = list(itertools.combinations(range(sys.n_inputs), s))
    problems = _descending_blocks(sys, s, span, False, int(k_max))
    return [
        _best_schedule(blocks, caps, supports, sys.n_states, 0, span, counter)[0]
        for blocks, caps in problems
    ]


def output_kalman_type_rank_test(
    sys: SystemModel,
    s: int,
    k: int,
    budget: Optional[OracleBudget] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
):
    """(verdict, witness) for: does some K-step schedule reach output rank m?"""
    return _rank_test(sys, s, k, budget, tol, output=True)
