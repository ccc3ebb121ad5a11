"""Schedule search: the minimal steering time K* and its witness.

A support schedule fixes which ``s`` input channels are active at each of K
steps; the scheduled reachability matrix is ``[D^(K-1) H_{S_1}, ...,
H_{S_K}]``, mapped through A for output questions.  The system is s-sparse
controllable iff some schedule of some length reaches rank N.

For one K the best rank r*(K) of a schedule is the size of a largest common
independent set of two matroids on the columns ``D^p h_j``: the linear
matroid, and the partition matroid with capacity s per power.
``_common_independent`` finds one in polynomial time: a greedy fill from the
last power back, then shortest augmenting paths (Edmonds 1970; Cunningham,
SIAM J. Comput. 1986).  ``_walk`` is the one loop over K = 1, 2, ...,
warm-starting each K's kernel from the previous K's set; ``rstar_sequence``
reads r*(K) off it, and ``_min_k`` walks up to the horizon N * ceil(L/s)
(stated at ``_min_k``), skipping a K that its pre-checks rule out, in
order: the capacities, the rank of all blocks, and the paper's rank
inequality as a cut (``_ruled_out``), or the kernel's weak-duality bound.
The walk closes early: past K = N the last two pre-checks no longer change
(Cayley-Hamilton), so the first K > N that one of them rules out settles
every later K, and the search ends there with a null.
The same kernel certifies the witness, the lexicographically first
schedule reaching the target rank, one position at a time
(``_first_schedule``).  State and output targets, float and exact
arithmetic all go through these; the arithmetic is a *span* object that
holds the system, ``ctrb._FloatSpan`` or ``exact._ExactSpan``.  Budgets
bound the whole run and make overruns an explicit inconclusive outcome
instead of a wrong answer.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import _kstar_bounds
from .ctrb import (
    SystemModel,
    _check_sparsity,
    _FloatSpan,
    _products,
    _require_output_map,
    _sparse_verdict,
)
from .errors import BudgetExceededError, InconclusiveError, UncontrollableSystemError
from .linalg import DEFAULT_TOLERANCE, Tolerance, _integer, _powers, _scheduled

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
    """Search budget. ``max_k=None`` searches to the decisive horizon
    N * ceil(L/s) (see ``_min_k``)."""

    max_k: Optional[int] = None
    max_enumerations: int = 1_000_000
    deadline_s: Optional[float] = None

    def __post_init__(self):
        message = f"max_k must be a positive integer or None, got {self.max_k!r}"
        if self.max_k is not None:
            _integer(self.max_k, message)
        _integer(self.max_enumerations, "max_enumerations must be a positive integer")
        deadline = self.deadline_s
        boolean = isinstance(deadline, (bool, np.bool_))
        if deadline is not None and (boolean or not 0 < deadline < math.inf):
            raise ValueError("deadline_s must be positive and finite or None")


@dataclass(frozen=True)
class SupportSchedule:
    """Ordered supports (S_1, ..., S_K); each S_i is a sorted tuple of column
    indices with |S_i| <= s.  Empty supports force a zero input at that step."""

    supports: tuple
    s: int

    def __post_init__(self):
        _integer(self.s, f"s must be a positive integer, got {self.s!r}")
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
    l = _integer(l, f"L must be a positive integer, got {l!r}")
    s = _integer(s, f"s must satisfy 1 <= s <= L={l}, got {s!r}", most=l)
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
        self.check(k, self.used > self.budget.max_enumerations)

    def check(self, k, over=False):
        """Raise when ``over`` the enumeration budget or past the deadline,
        counting no tick."""
        if over or (self.deadline is not None and time.monotonic() > self.deadline):
            raise BudgetExceededError(
                f"{self.what} exceeded {'enumeration budget' if over else 'deadline'}",
                enumerations=self.used,
                k_reached=k,
            )


def _descending_blocks(span, s, output, k_max):
    """For K = 1..k_max, the blocks ``[M D^(K-1) H, ..., M H]`` of
    ``ctrb._products`` (M = A for output questions, else I) and their
    capacities ``min(s, rank)``, each taken once by ``span.capacity``: at
    s = 1 a nonzero block has capacity 1, which both spans read without an
    SVD or an elimination where they can (see their ``capacity``), and
    every other block is ranked by ``span.ranks``."""
    blocks, caps = [], []
    for block in itertools.islice(_products(span, output), k_max):
        blocks.insert(0, block)
        caps.insert(0, span.capacity(block, s))
        yield blocks, caps


# The pre-checks of ``_ruled_out`` that, past K = N, rule out every later K.
_SETTLED = ("rank", "inequality")


def _ruled_out(blocks, caps, s, target, span, ranks):
    """The pre-check that rules out a K before the kernel runs, or None.

    In order: ``"capacity"`` when the capacities, ``"rank"`` when the rank
    of all blocks falls short of ``target``, and ``"inequality"`` when the
    paper's rank inequality does.  Every column of the first K - 1 blocks
    lies in range(D) (in A range(D) for output targets), so a schedule
    reaches at most rank(U) + s with U those columns: the bound of
    ``_blocked`` on this fixed U.  ``ranks``, the walk's pre-check of
    ``span.ranks`` (made once per walk and fed its growing list), reads
    rank(U) and the rank of all blocks off one elimination.

    The closure rule (``_SETTLED``): by Cayley-Hamilton the blocks span the
    whole Krylov space of (D, H) once K >= N (times A for output targets),
    and U, which is D (or A D) times the first K - 1 powers' span, is fixed
    once K >= N + 1.  The capacities only grow.  So in exact arithmetic a
    K > N ruled out by ``"rank"`` or ``"inequality"`` has every later K
    ruled out by the same pre-check."""
    if sum(caps) < target:
        return "capacity"
    below, rank = ranks(blocks)
    if rank < target:
        return "rank"
    u = [range(span.sys.n_inputs)] * (len(blocks) - 1) + [()]
    if _blocked(blocks, s, target, span, below, u):
        return "inequality"
    return None


def _common_independent(blocks, s, span, counter, inside=(), allowed=None):
    """A largest set of columns ``(d, j)`` of ``blocks`` (L columns each),
    at most ``s`` from each block, independent in the span, grown
    from the common independent set ``inside``; block d may use only the
    channels ``allowed[d]`` (default all), its other columns being loops.

    First a greedy fill: blocks from the last (H) to the first, channels in
    index order, keeping a column while its block has room and it grows the
    span.  A fill that spans the space is returned at once, with an empty
    ``cut``.  Otherwise shortest augmenting paths grow the set, one search
    from the columns free in the span per augmentation; ``cut`` is the set
    of columns the final search does not reach, the U of the min-max
    theorem.  By weak duality every column set U bounds the rank of every
    schedule by rank(U) + sum over blocks of min(s, |block - U|); in exact
    arithmetic this U makes the bound equal ``len(inside)`` (Schrijver,
    Combinatorial Optimization, 2003, Thm 41.2).  The arcs come from one
    span solve per outside column per augmentation, and each augmentation
    ticks ``counter``.
    """
    members, n, k = set(inside), len(blocks[0]), len(blocks)
    allowed = allowed or [range(span.sys.n_inputs)] * k
    used = collections.Counter(d for d, _ in members)
    basis = span.basis(n)
    for d, j in inside:
        basis.extend(blocks[d], (j,))
    for d in range(k - 1, -1, -1):
        for j in allowed[d]:
            if basis.dim < n and used[d] < s and (d, j) not in members:
                dim = basis.dim
                if basis.extend(blocks[d], (j,)) > dim:
                    members.add((d, j))
                    used[d] += 1
    inside = sorted(members)
    if basis.dim == n:
        return inside, set()
    ground = [(d, j) for d in range(k) for j in allowed[d]]
    while True:
        counter.tick(k)
        members = set(inside)
        outside = [y for y in ground if y not in members]
        circuits = span.circuits(blocks, inside, outside)
        cols = [[x for x in inside if x[0] == d] for d in range(k)]  # per block
        arcs = collections.defaultdict(list)  # exchanges that keep a matroid
        for y, circuit in zip(outside, circuits):
            for i in circuit or ():
                arcs[inside[i]].append(y)  # inside - x + y stays independent
            arcs[y] = cols[y[0]]  # inside - x + y stays within capacity
        sinks = {y for y in outside if len(cols[y[0]]) < s}
        came_from = {y: None for y, c in zip(outside, circuits) if c is None}
        queue = collections.deque(came_from)
        while queue:
            v = queue.popleft()
            if v in sinks:
                while v is not None:
                    members ^= {v}
                    v = came_from[v]
                inside = sorted(members)
                break
            for w in arcs[v]:
                if w not in came_from:
                    came_from[w] = v
                    queue.append(w)
        else:
            return inside, set(ground) - came_from.keys()


def _supports_of(columns, k):
    """Per-block sorted channel tuples of a set of ``(d, j)`` columns."""
    return [tuple(sorted(j for d, j in columns if d == depth)) for depth in range(k)]


def _blocked(blocks, s, target, span, dim, cut):
    """True when the column set U that ``cut`` picks from ``blocks`` (the
    channels of U in each block) proves that no schedule of s channels per
    block reaches ``target``: the weak-duality bound rank(U) + sum min(s,
    |block - U|) stays below ``target``.  The bound holds for every U, so
    the answer is sound whichever cut a float exchange graph gives.  ``dim``
    is rank(U) where the caller has counted it: the size of the kernel's
    set inside its own cut, which exact arithmetic makes rank(U), or the
    exact rank of a fixed U.  The exact span takes it; the float span counts
    rank(U) itself, a count no leaf check on U's columns exceeds."""
    spare = sum(min(s, span.sys.n_inputs - len(sup)) for sup in cut)
    return span.cut_rank(dim, blocks, cut) + spare < target


def _first_schedule(blocks, caps, s, target, span, counter, inside, referee):
    """The lexicographically first schedule of ``blocks`` reaching rank
    ``target``, at a K where the kernel's set ``inside`` reaches it, or None.

    Positions are fixed left to right, supports tried in lexicographic order
    (each try ticks ``counter``) and cut when the running span plus the
    capacity still to come falls short.  A last-position leaf whose running
    span reaches ``target`` but not its ``leaf_rank`` goes to ``referee``.
    Pass 1 keeps the first support past the cut, settling most K without a
    kernel call.  If it ends short, pass 2 keeps a support only if the
    kernel, warm-started from the current set, still reaches ``target`` with
    it fixed (no call if it holds the set's columns there).  In exact
    arithmetic a certified prefix has a completion, so this is an exhaustive
    search's first schedule; one that runs out goes to ``referee``.
    """
    k, l = len(blocks), span.sys.n_inputs
    supports = list(itertools.combinations(range(l), s))
    for certify in (False, True):
        chosen, basis, current = [], span.basis(len(blocks[0])), inside
        for d in range(k):
            for sup in supports:
                counter.tick(k)
                grown = basis.copy()
                dim = grown.extend(blocks[d], sup)
                if dim + sum(caps[d + 1:]) < target:
                    continue
                if d == k - 1:
                    rank = span.leaf_rank(dim, blocks, [*chosen, sup])
                    if rank >= target:
                        return (*chosen, sup)
                    referee(k, f"at K={k}: a leaf's running span has rank "
                            f"{target}, its SVD rank {rank}; ill-posed")
                    continue
                if certify and not {j for e, j in current if e == d} <= set(sup):
                    kept = [(e, j) for e, j in current if e != d or j in sup]
                    allowed = [*chosen, sup] + [range(l)] * (k - d - 1)
                    found, _ = _common_independent(
                        blocks, s, span, counter, kept, allowed
                    )
                    if len(found) < target:
                        continue
                    current = found
                chosen, basis = [*chosen, sup], grown
                break
            else:
                break
    referee(k, f"at K={k}: a prefix certified by matroid intersection runs "
            "out of supports; ill-posed")
    return None


def _walk(span, s, output, k_max, counter, skip=None):
    """``(k, blocks, caps, inside, cut)`` of ``_common_independent`` at each
    K = 1..k_max that ``skip(k, blocks, caps)`` does not name, checking the
    deadline at every K; the last set, one block down, seeds the next.  The
    walk ends at the first K > N that ``skip`` names a ``_SETTLED``
    pre-check (``"rank"`` or ``"inequality"``): by the closure rule of
    ``_ruled_out`` it would name one at every later K as well."""
    n, inside = span.sys.n_states, []
    problems = _descending_blocks(span, s, output, k_max)
    for k, (blocks, caps) in enumerate(problems, start=1):
        counter.check(k)
        inside = [(d + 1, j) for d, j in inside]
        ruling = skip and skip(k, blocks, caps)
        if k > n and ruling in _SETTLED:
            return
        if ruling:
            continue
        inside, cut = _common_independent(blocks, s, span, counter, inside)
        yield k, blocks, caps, inside, cut


def _partition_horizon(sys, s):
    return sys.n_states * math.ceil(sys.n_inputs / s)


def _min_k(span, s, budget, output=False, first_k=1):
    """Smallest K in ``first_k..max_k`` at which a schedule reaches full state
    (or output) rank, as ``(K, supports, max_k)``; ``(None, None, max_k)``
    when none does.  One budget covers every K of the ``_walk``, which also
    checks the deadline once at every K.  The pre-checks of ``_ruled_out``
    skip a K first, in order: the capacities, the rank of all blocks, and the
    paper's rank inequality; a K they rule out costs no tick.  A K that
    passes them goes to the warm-started kernel; a cut certified by
    ``_blocked`` skips it, and a set reaching the target gets its witness
    from ``_first_schedule``.

    The horizon rule: ``max_k`` defaults to N * ceil(L/s), which decides the
    question.  A passed sparse test gives K* <= q * ceil(S*/s) <= N * ceil(L/s)
    by the steering bound, as q <= N and S* <= L; a failed one rules out
    every K in exact arithmetic, not always in float (D = diag(1e11, 1),
    H = I fails it at s = 1, yet K* = 2).  (Output questions stop there
    too, above their bound q * ceil(rank H/s).)  Under that default and a
    state target, when the span's sparse test passes, a search that finds
    nothing is inconclusive, and so, at once, is an ill-posed K: a leaf
    whose span reaches N but not its ``leaf_rank`` (a witness past it is not
    robust), a certified prefix without a witness, or a short set with an
    uncertified cut.  This referee reads only the test's verdict, so it runs
    ``ctrb._sparse_verdict``, at most once: the paper's inequality first,
    from one rank of D, and the rank condition without a witness only where
    the inequality holds.

    The walk may close before ``max_k``: at the first K > N that the rank
    of all blocks or the paper's inequality rules out, every later K up to
    ``max_k`` is ruled out the same way (the closure rule of
    ``_ruled_out``), so the search goes on as after ``max_k`` itself: the
    closing referee call runs, and the result is ``(None, None, max_k)``.
    The argument is exact.  Past K = N, new columns add nothing in exact
    arithmetic, so a later rise in the float span's unit-column count is
    rounding.  In float, the search therefore no longer looks for a witness
    at a K whose columns exact arithmetic puts in the closed space; under
    the default horizon and a state target, a float null that contradicts
    a passed sparse test still goes to the referee."""
    sys = span.sys
    if output:
        _require_output_map(sys)
    s = _check_sparsity(sys, s)
    max_k = budget.max_k or _partition_horizon(sys, s)
    counter = _Counter(budget, span.what)
    target = sys.n_outputs if output else sys.n_states
    ranks = span.ranks(not output)

    @functools.cache
    def sparse_test_passes():
        return _sparse_verdict(span, s)

    def referee(k, reason):
        if budget.max_k is None and not output and sparse_test_passes():
            raise InconclusiveError(
                f"{span.what} {reason}", enumerations=counter.used, k_reached=k
            )

    def skip(k, blocks, caps):
        return k < first_k or _ruled_out(blocks, caps, s, target, span, ranks)

    for k, blocks, caps, inside, cut in _walk(span, s, output, max_k, counter, skip):
        if len(inside) < target:
            dim = sum(1 for x in inside if x in cut)
            if not _blocked(blocks, s, target, span, dim, _supports_of(cut, k)):
                referee(k, f"at K={k}: matroid intersection reaches rank "
                        f"{len(inside)} of {target} without a certified cut; ill-posed")
            continue
        witness = _first_schedule(
            blocks, caps, s, target, span, counter, inside, referee
        )
        if witness is not None:
            return k, witness, max_k
    referee(max_k, f"found no schedule up to K={max_k}, at least the sparse "
            "steering-time upper bound, although the sparse test passed")
    return None, None, max_k


def _rank_test(sys, s, k, budget, tol, output):
    k = _integer(k, f"K must be a positive integer, got {k!r}")
    budget = replace(budget or OracleBudget(), max_k=k)
    _, witness, _ = _min_k(_FloatSpan(sys, tol), s, budget, output, first_k=k)
    return (True, SupportSchedule(witness, int(s))) if witness else (False, None)


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


def decision_horizon(sys: SystemModel, s: int, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Schedule length that decides s-sparse controllability outright: the
    steering-time upper bound when the sparse test passes, else N * ceil(L/s),
    the oracle's own horizon (see the horizon rule of ``_min_k``)."""
    try:
        return _kstar_bounds(_FloatSpan(sys, tol), "sparse", s).upper
    except UncontrollableSystemError:
        return _partition_horizon(sys, s)


def exact_min_k(
    sys: SystemModel,
    s: int,
    budget: Optional[OracleBudget] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
):
    """Smallest K admitting a rank-N schedule, with its witness.

    Searches K = 1..max_k (N * ceil(L/s) by default) and returns
    ``(None, None)`` when none exists there.  Under the default horizon,
    ``InconclusiveError`` is raised when a passed sparse test contradicts a
    null, or at the first K whose float rank is ill-posed; a failed test is
    not checked against a K* (see the horizon rule of ``oracle._min_k``).
    """
    k, witness, _ = _min_k(_FloatSpan(sys, tol), s, budget or OracleBudget())
    return (k, SupportSchedule(witness, int(s))) if witness else (None, None)


def rstar_sequence(
    sys: SystemModel,
    s: int,
    k_max: int,
    budget: Optional[OracleBudget] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
):
    """Best achievable scheduled rank r*(K) for each K = 1..k_max.

    r*(K) never falls, as a schedule for K is one for K + 1; that it rises
    strictly until the minimal steering time and stays constant afterwards
    (the stall rule) is unproven.  Each entry is the ``leaf_rank`` (the SVD
    rank of the unit columns) of a largest common independent set, from the
    oracle's warm-started walk over K (``_walk``); the budget counts
    augmentations, and ``deadline_s`` is checked at every K.
    """
    s = _check_sparsity(sys, s)
    k_max = _integer(k_max, f"k_max must be a positive integer, got {k_max!r}")
    span = _FloatSpan(sys, tol)
    counter = _Counter(budget or OracleBudget(), span.what)
    return [
        span.leaf_rank(len(inside), blocks, _supports_of(inside, k))
        for k, blocks, _, inside, _ in _walk(span, s, False, k_max, counter)
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
