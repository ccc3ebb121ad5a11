"""Reference linear algebra for the benchmark, written without ``sparse_ctrb``.

The input generator uses these routines to fix expected answers and the
checker uses them to confirm reports, so neither trusts the program under
test.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Relative singular-value cutoff for the benchmark's own float rank checks.
# It is looser than the program's default (1e-10) so that a schedule the
# program accepts is not rejected for rounding alone, yet a genuinely
# deficient matrix still reads deficient.
SVD_RANK_REL = 1e-9


def svd_rank(m, rel=SVD_RANK_REL) -> int:
    """Numerical rank: singular values above ``rel * sigma_max * max(shape)``."""
    a = np.asarray(m)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel * sigma[0] * max(a.shape)))


def exact_rank(rows) -> int:
    """Exact rank of a rational matrix by fraction-free (Bareiss) elimination.

    Entries may be ints, Fractions or floats (converted exactly); rows are
    scaled to integers first so the elimination runs on Python ints.
    """
    mat = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = math.lcm(den, x.denominator)
        mat.append([int(x * den) for x in fr])
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p = mat[r][c]
        for i in range(r + 1, nrows):
            f = mat[i][c]
            mat[i] = [(p * a - f * b) // prev for a, b in zip(mat[i], mat[r])]
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def scheduled_matrix(d, h, supports, a=None):
    """``[D^(K-1) H_{S_1}, ..., H_{S_K}]`` (mapped through ``a`` if given)."""
    d = np.asarray(d, dtype=float)
    h = np.asarray(h, dtype=float)
    k = len(supports)
    pieces = []
    for i, sup in enumerate(supports):
        if not sup:
            continue
        block = np.linalg.matrix_power(d, k - 1 - i) @ h[:, list(sup)]
        pieces.append(block if a is None else np.asarray(a, dtype=float) @ block)
    if not pieces:
        return np.zeros((d.shape[0] if a is None else len(a), 0))
    return np.hstack(pieces)


def exact_scheduled_matrix(d, h, supports):
    """Exact-integer scheduled matrix for integer-valued ``d`` and ``h``."""
    d = [[int(x) for x in row] for row in d]
    h = [[int(x) for x in row] for row in h]
    n, k = len(d), len(supports)
    cols = []
    for i, sup in enumerate(supports):
        for j in sup:
            v = [row[j] for row in h]
            for _ in range(k - 1 - i):
                v = [sum(d[r][c] * v[c] for c in range(n)) for r in range(n)]
            cols.append(v)
    return [[col[r] for col in cols] for r in range(n)]


def kalman_rank(d, h) -> int:
    """Rank of ``[H, D H, ..., D^(N-1) H]`` by SVD."""
    d = np.asarray(d, dtype=float)
    blocks = [np.asarray(h, dtype=float)]
    for _ in range(d.shape[0] - 1):
        blocks.append(d @ blocks[-1])
    return svd_rank(np.hstack(blocks))


def some_schedule_reaches(d, h, s, k, target, a=None) -> bool:
    """Whether any K-step schedule with |S_i| <= s reaches ``target`` rank.

    Brute force over every support of size exactly min(s, L) at every step;
    smaller supports never reach a higher rank, since adding columns cannot
    lower it.
    """
    l = np.asarray(h).shape[1]
    supports = list(itertools.combinations(range(l), min(s, l)))
    return any(
        svd_rank(scheduled_matrix(d, h, schedule, a)) >= target
        for schedule in itertools.product(supports, repeat=k)
    )


def brute_force_min_k(d, h, s, target, max_k, a=None):
    """Smallest K <= max_k at which some schedule reaches ``target`` rank."""
    for k in range(1, max_k + 1):
        if some_schedule_reaches(d, h, s, k, target, a):
            return k
    return None
