"""Seeded inputs for the benchmark workloads, each with its expected answer.

``build(workload, seed, workdir)`` writes the system and target files of one
workload into ``workdir`` together with ``manifest.json``, and returns the
workload's operations.  Every expected answer (the "truth") follows from how
the input was constructed, or from the benchmark's own brute force in
``reference.py``; nothing here imports ``sparse_ctrb``.

Inputs that show a known fault of the program (F1, F2 in ``README.md``) are
built from a fixed seed, not from ``--seed``, so the number of failing
operations is the same in every run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

import reference

WORKLOADS = ("float-scale", "search-blocked", "exact-rational")

# Seed of the inputs that show known faults; independent of --seed.
FIXED_SEED = 1912

FLOAT_SIZES = (16, 32, 64, 128)
FLOAT_S = 2
FLOAT_L = 4
# Size caps per family and subcommand, where one call would take most of a
# pass: bounds and oracle on the N=128 ring take 14 s and 31 s.
RING_SEARCH_MAX_N = 64
SPECTRAL_BOUNDS_MAX_N = 64
SPECTRAL_ORACLE_MAX_N = 32
RANK_BLOCKED_ORACLE_MAX_N = 64

EXACT_SIZES = (6, 8, 10, 12, 14)


@dataclass
class Op:
    """One CLI call and what its report must show."""

    id: str
    argv: list
    truth: dict
    fault: str | None = None  # known fault that makes this call fail
    files: dict = field(default_factory=dict)  # role -> path


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def system(self, name, d, h, a=None):
        data = {"name": name, "D": _rows(d), "H": _rows(h)}
        if a is not None:
            data["A"] = _rows(a)
        return self._dump(f"{name}.json", data)

    def vector(self, name, v):
        return self._dump(f"{name}.json", [float(x) for x in v])

    def _dump(self, filename, data):
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _rows(m):
    return [[float(x) for x in row] for row in np.asarray(m)]


# ---------------------------------------------------------------- float-scale


def ring(weights, n_inputs=FLOAT_L):
    """Weighted directed ring ``x_{i+1} <- w_i x_i`` fed at evenly spaced nodes."""
    n = len(weights)
    d = np.zeros((n, n))
    for i, w in enumerate(weights):
        d[(i + 1) % n, i] = w
    h = np.zeros((n, n_inputs))
    for j in range(n_inputs):
        h[j * n // n_inputs, j] = 1.0
    return d, h


def ring_left_eigenvector(weights):
    """Left eigenvector of ``ring(weights)`` for its real eigenvalue rho > 0."""
    n = len(weights)
    rho = float(np.exp(np.mean(np.log(weights))))
    z = np.empty(n)
    z[0] = 1.0
    for i in range(n - 1):
        z[i + 1] = rho * z[i] / weights[i]
    return rho, z


def spectral(rng, n, n_inputs=FLOAT_L):
    """Dense ``Q diag(lambda) Q^-1`` with distinct eigenvalues in [0.5, 1.5)."""
    q = rng.standard_normal((n, n))
    lam = 0.5 + np.arange(n) / n
    q_inv = np.linalg.inv(q)
    d = q @ np.diag(lam) @ q_inv
    h = rng.standard_normal((n, n_inputs))
    # Left eigenvectors are the rows of Q^-1.  Every one of them meets the
    # first input column, so one channel alone is controllable: S* = 1.
    modal = q_inv @ h[:, 0]
    if np.min(np.abs(modal)) < 1e-8 * np.max(np.abs(modal)):
        raise ArithmeticError("spectral construction left a mode unreachable")
    return d, h


def _float_scale(seed, out):
    rng = np.random.default_rng(seed)
    fixed = np.random.default_rng(FIXED_SEED)
    s = FLOAT_S
    ops = []

    def add(name, n, path, commands, truths, fault=None, target=None):
        for command in commands:
            argv = [command, path, "-s", str(s)]
            files = {"system": path}
            if command == "steer":
                argv += ["--k", str(n // 2), "--x-final", target]
                files["target"] = target
            f = fault.get(command) if isinstance(fault, dict) else fault
            ops.append(Op(f"{name}/{command}", argv, truths[command], f, files))

    for n in FLOAT_SIZES:
        # Weighted ring, weights within 5% of 1: q = N, R_s = N, K* = N/2.
        weights = rng.uniform(0.95, 1.05, n)
        d, h = ring(weights)
        name = f"ring-{n}"
        target = out.vector(f"{name}-target", rng.standard_normal(n))
        commands = ["check", "bounds", "decompose", "oracle", "steer"]
        if n > RING_SEARCH_MAX_N:
            commands = ["check", "decompose", "steer"]
        add(name, n, out.system(name, d, h), commands, {
            "check": {"verdict": True, "rank_condition_holds": True, "slack": s},
            "bounds": {"lower": n // 2, "upper": n - 1, "q": n, "s_star": 1},
            "decompose": {"R": n, "r": n, "R_s": n},
            "oracle": {"k_star": n // 2},
            "steer": {"feasible": True},
        }, target=target)

        # Dense spectral system from the fixed seed: controllable, q = N,
        # R_s = N, bounds N/2 <= K* <= N-1.  Shows F1 (q) and F2 (R_s).
        d, h = spectral(fixed, n)
        name = f"spectral-{n}"
        target = out.vector(f"{name}-target", fixed.standard_normal(n))
        commands = ["check", "decompose", "steer"]
        if n <= SPECTRAL_BOUNDS_MAX_N:
            commands.insert(1, "bounds")
        if n <= SPECTRAL_ORACLE_MAX_N:
            commands.insert(-1, "oracle")
        add(name, n, out.system(name, d, h), commands, {
            "check": {"verdict": True, "rank_condition_holds": True, "slack": s},
            "bounds": {"lower": n // 2, "upper": n - 1, "q": n, "s_star": 1},
            "decompose": {"R": n, "r": n, "R_s": n},
            "oracle": {"k_star_range": [n // 2, n - 1]},
            "steer": {},
        }, fault={"bounds": "F1", "oracle": "F1", "decompose": "F2"}, target=target)

        # Rank-blocked ring: every input column is orthogonal to the left
        # eigenvector z of the real eigenvalue rho, which is then the only
        # uncontrollable mode (R = N - 1).
        weights = rng.uniform(0.95, 1.05, n)
        d, h = ring(weights)
        rho, z = ring_left_eigenvector(weights)
        for j in range(FLOAT_L):
            a = j * n // FLOAT_L
            h[a + 1, j] = -z[a] / z[a + 1]
        name = f"rank-blocked-{n}"
        t = rng.standard_normal(n)
        target = out.vector(f"{name}-target", t)
        commands = ["check", "bounds", "decompose", "oracle", "steer"]
        if n > RANK_BLOCKED_ORACLE_MAX_N:
            commands.remove("oracle")
        add(name, n, out.system(name, d, h), commands, {
            "check": {
                "verdict": False,
                "rank_condition_holds": False,
                "slack": s,
                "witness_lambda": [rho, 0.0],
            },
            "bounds": {"exit": 2},
            "decompose": {"R": n - 1, "r": n - 1, "R_s": n - 1},
            "oracle": {"k_star": None},
            # x_K stays in z-orthogonal space, so |z.t|/|z| is unreachable.
            "steer": {
                "feasible": False,
                "residual_at_least": abs(float(z @ t)) / float(np.linalg.norm(z)),
            },
        }, target=target)

        # Inequality-blocked: blockdiag(ring of N-3, 0_3), controllable, with
        # rank D = N - 3 < N - s.  Core dimension r = N - 3, R_s = N - 1.
        k = 3
        weights = rng.uniform(0.95, 1.05, n - k)
        core, core_h = ring(weights)
        d = np.zeros((n, n))
        d[: n - k, : n - k] = core
        h = np.zeros((n, FLOAT_L))
        h[: n - k, :] = core_h
        for j in range(k):
            h[n - k + j, j] = 1.0
        name = f"ineq-blocked-{n}"
        add(name, n, out.system(name, d, h), ["check", "decompose"], {
            "check": {"verdict": False, "rank_condition_holds": True, "slack": s - k},
            "decompose": {"R": n, "r": n - k, "R_s": n - k + s},
        })

    # Ring with weights spread +-30%, scaled to |lambda| = 1.02, from the fixed
    # seed: its standard form shows F2 (r = 0 for an invertible D).
    n = FLOAT_SIZES[-1]
    weights = fixed.uniform(0.7, 1.3, n)
    weights *= 1.02 / np.exp(np.mean(np.log(weights)))
    d, h = ring(weights)
    name = f"ring-spread-{n}"
    add(name, n, out.system(name, d, h), ["decompose"], {
        "decompose": {"R": n, "r": n, "R_s": n},
    }, fault="F2")
    return ops


# ------------------------------------------------------------- search-blocked


def _nonzero_ints(rng, size, high=3):
    return rng.integers(1, high + 1, size) * rng.choice((-1, 1), size)


def ineq_network(rng, n, l, k):
    """blockdiag(weighted cycle of N-k, 0_k): controllable, rank D = N - k.

    Channel j < k feeds zero-block node j; channel 0 also feeds cycle node 0,
    which reaches the whole cycle, and channel j > 0 feeds cycle node
    j*(N-k)//L.  Only the values come from ``rng``; the pattern is fixed, so
    the schedule search does the same work for every seed.
    """
    c = n - k
    d = np.zeros((n, n))
    for i, w in enumerate(_nonzero_ints(rng, c)):
        d[(i + 1) % c, i] = w
    h = np.zeros((n, l))
    for j in range(l):
        h[j * c // l, j] = _nonzero_ints(rng, 1)[0]
    for j in range(k):
        h[c + j, j] = _nonzero_ints(rng, 1)[0]
    return d, h


def chain_network(rng, n, l):
    """Chain ``node i -> node i+1`` with self-loops and feedback edges.

    D is Hessenberg (nothing below the subdiagonal) with a nonzero
    subdiagonal, so ``D^k e_0`` ends at row k and channel 0, feeding node 0,
    alone makes the system controllable; the same minor gives rank D >= N-1,
    so one channel per step suffices and the bounds pin K* = N at s = 1.
    """
    d = np.diag(_nonzero_ints(rng, n).astype(float))
    for i in range(n - 1):
        d[i + 1, i] = _nonzero_ints(rng, 1)[0]
    for i in range(2, n):
        d[int(rng.integers(0, i - 1)), i] = _nonzero_ints(rng, 1)[0]
    h = np.zeros((n, l))
    h[0, 0] = _nonzero_ints(rng, 1)[0]
    for j in range(1, l):
        h[rng.integers(0, n), j] = _nonzero_ints(rng, 1)[0]
    return d, h


def zero_sum_network(rng, n, l, lam):
    """Network whose columns all sum to ``lam`` and whose input columns sum to
    zero: the all-ones vector is a left eigenvector orthogonal to H."""
    d, _ = chain_network(rng, n, l)
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, lam - d.sum(axis=0))
    h = np.zeros((n, l))
    for j in range(l):
        a, b = rng.choice(n, 2, replace=False)
        v = _nonzero_ints(rng, 1)[0]
        h[a, j], h[b, j] = v, -v
    return d, h


# (N, L, s, k): inequality-blocked sizes whose exhaustive state search ends
# well inside the default enumeration budget.
SEARCH_INEQ = ((3, 3, 1, 2), (6, 2, 1, 2), (7, 2, 1, 2), (5, 3, 2, 3))
SEARCH_CHAIN = ((4, 3), (6, 4), (8, 6))  # (N, L), s = 1
SEARCH_RANK_BLOCKED = ((5, 4, 2), (8, 6, 1), (7, 3, 2))  # (N, L, s)


def _search_blocked(seed, out):
    rng = np.random.default_rng(seed)
    ops = []

    def add(name, path, s, truth_oracle, truth_cs, output=None):
        ops.append(Op(f"{name}/oracle", ["oracle", path, "-s", str(s)],
                      truth_oracle, files={"system": path}))
        ops.append(Op(f"{name}/check-common-support",
                      ["check", path, "-s", str(s), "--output-mode", "common-support"],
                      truth_cs, files={"system": path}))
        if output is not None:
            ops.append(Op(f"{name}/oracle-output",
                          ["oracle", path, "-s", str(s), "--mode", "output"],
                          output, files={"system": path}))

    for n, l, s, k in SEARCH_INEQ:
        d, h = ineq_network(rng, n, l, k)
        name = f"ineq-blocked-{n}x{l}-s{s}"
        a = output_truth = None
        if n <= 5:
            # Output map onto the cycle nodes: reachable; K* by brute force.
            a = np.eye(n)[: n - k]
            output_truth = {
                "k_star": reference.brute_force_min_k(d, h, s, n - k, n * math.ceil(l / s), a)
            }
        path = out.system(name, d, h, a)
        add(name, path, s, {"k_star": None}, {"verdict": False}, output_truth)

    # Output map onto the zero block: only the last input reaches it, with at
    # most s < k channels, so no schedule reaches output rank k.
    n, l, k = 4, 3, 2
    d, h = ineq_network(rng, n, l, k)
    name = f"output-blocked-{n}x{l}-s1"
    path = out.system(name, d, h, np.eye(n)[n - k:])
    ops.append(Op(f"{name}/oracle-output", ["oracle", path, "-s", "1", "--mode", "output"],
                  {"k_star": None}, files={"system": path}))

    for n, l in SEARCH_CHAIN:
        d, h = chain_network(rng, n, l)
        name = f"chain-{n}x{l}-s1"
        a = output_truth = None
        if n <= 5:
            a = np.eye(n)[:2]
            output_truth = {"k_star": reference.brute_force_min_k(d, h, 1, 2, n * l, a)}
        path = out.system(name, d, h, a)
        add(name, path, 1, {"k_star": n}, {"verdict": True}, output_truth)

    for n, l, s in SEARCH_RANK_BLOCKED:
        lam = int(rng.choice((-2, -1, 1, 2)))
        d, h = zero_sum_network(rng, n, l, lam)
        name = f"rank-blocked-{n}x{l}-s{s}"
        add(name, out.system(name, d, h), s, {"k_star": None}, {"verdict": False})
    return ops


# ------------------------------------------------------------- exact-rational


def unimodular(rng, n):
    """Integer matrix with determinant 1 and an integer inverse: L U with unit
    triangular factors holding sparse entries in {-1, 1}."""
    low = np.eye(n, dtype=np.int64)
    up = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.3:
                low[i, j] = rng.choice((-1, 1))
            if rng.random() < 0.3:
                up[j, i] = rng.choice((-1, 1))
    p = low @ up
    p_inv = _int_inverse(up) @ _int_inverse(low)
    if not np.array_equal(p @ p_inv, np.eye(n, dtype=np.int64)):
        raise ArithmeticError("unimodular inverse check failed")
    return p, p_inv


def _int_inverse(t):
    """Exact inverse of a unit-triangular integer matrix."""
    n = len(t)
    m = [[Fraction(int(x)) for x in row] for row in t]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):  # Gauss-Jordan; pivots are 1
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    return np.array([[int(x) for x in row] for row in inv], dtype=np.int64)


def jordan_system(rng, blocks, columns):
    """``D = P J P^-1``, ``H = P H_J`` with unimodular P.

    ``blocks`` lists (eigenvalue, size) Jordan blocks; ``columns[j]`` lists
    the blocks whose last row channel j feeds.  Controllability of (J, H_J)
    at eigenvalue lambda depends only on the rows of H_J at the last rows of
    lambda's blocks, which is how the truths below are read off.
    """
    n = sum(size for _, size in blocks)
    j_mat = np.zeros((n, n), dtype=np.int64)
    last_rows = []
    row = 0
    for lam, size in blocks:
        for i in range(size):
            j_mat[row + i, row + i] = lam
            if i + 1 < size:
                j_mat[row + i, row + i + 1] = 1
        row += size
        last_rows.append(row - 1)
    h_j = np.zeros((n, len(columns)), dtype=np.int64)
    for c, fed in enumerate(columns):
        for b in fed:
            h_j[last_rows[b], c] = _nonzero_ints(rng, 1)[0]
    p, p_inv = unimodular(rng, n)
    return p @ j_mat @ p_inv, p @ h_j


def _exact_controllable_system(rng, n):
    """Controllable integer system with q = N - 1, rank D = N - 1, S* = 2.

    Blocks: (mu, 2) and (mu, 1) share an eigenvalue, so two channels are
    needed (S* = 2) and q = N - 1; one zero block of size 1 makes rank D =
    N - 1; the rest are 2 x 2 blocks with distinct nonzero eigenvalues.
    Channel 0 feeds every block but (mu, 1), channel 1 feeds (mu, 1),
    channel 2 feeds a random subset.
    """
    pool = [v for v in range(-4, 5) if v != 0]
    rng.shuffle(pool)
    mu = pool.pop()
    blocks = [(mu, 2), (mu, 1), (0, 1)]
    blocks += [(pool.pop(), 2) for _ in range((n - 4) // 2)]
    blocks += [(pool.pop(), 1) for _ in range((n - 4) % 2)]
    everyone = [b for b in range(len(blocks)) if b != 1]
    random_fed = [b for b in range(len(blocks)) if rng.random() < 0.5]
    return jordan_system(rng, blocks, [everyone, [1], random_fed])


def signature_similarity(rng, d, h):
    """``(S D S, S H C)`` with random diagonal signs S and column signs C.

    Entry magnitudes and zero patterns, and so the cost of exact elimination,
    do not change; every rank, q, S* and K* is preserved.
    """
    sign = rng.choice((-1, 1), len(d))
    cols = rng.choice((-1, 1), h.shape[1])
    return sign[:, None] * d * sign[None, :], sign[:, None] * h * cols[None, :]


def _exact_rational(seed, out):
    # The Jordan structures and the similarities P come from the fixed seed:
    # the cost of Fraction elimination grows with entry size, which they set.
    # --seed draws the sign similarity, which keeps that cost.
    base = np.random.default_rng(FIXED_SEED)
    rng = np.random.default_rng(seed)
    ops = []
    s = 2
    for n in EXACT_SIZES:
        d, h = signature_similarity(rng, *_exact_controllable_system(base, n))
        name = f"jordan-{n}"
        path = out.system(name, d, h)
        files = {"system": path}
        q, r_d, s_star = n - 1, n - 1, 2
        r_h = reference.exact_rank(h.tolist())
        r_eff = min(r_h, s)
        lower = -(-n // r_eff)
        ops += [
            Op(f"{name}/check", ["check", path, "-s", str(s), "--rational"],
               {"verdict": True, "rank_condition_holds": True, "slack": s + r_d - n},
               files=files),
            Op(f"{name}/bounds-sparse",
               ["bounds", path, "-s", str(s), "--variant", "sparse", "--rational"],
               {"lower": lower, "q": q, "s_star": s_star,
                "upper": min(q * -(-s_star // s), n - r_eff + 1)}, files=files),
            Op(f"{name}/bounds-relaxed",
               ["bounds", path, "-s", str(s), "--variant", "relaxed", "--rational"],
               {"lower": lower, "q": q, "upper": min(q * -(-r_h // s), r_d + 1, n)},
               files=files),
            # With s = 1 the bounds pin K* = N.
            Op(f"{name}/oracle", ["oracle", path, "-s", "1", "--rational"],
               {"k_star": n}, files=files),
        ]

    # Small blocked systems.  Rank-blocked: channel 0 skips the eigenvalue-2
    # block.  Inequality-blocked: two zero blocks give rank D = 2 < N - 1.
    blocked = [
        ("rank-blocked-4", [(1, 1), (2, 1), (-1, 2)], [[0, 2], [2]], 1,
         {"verdict": False, "rank_condition_holds": False, "slack": 1}),
        ("ineq-blocked-4", [(1, 2), (0, 1), (0, 1)], [[0, 1], [2]], 1,
         {"verdict": False, "rank_condition_holds": True, "slack": -1}),
    ]
    for name, blocks, columns, s_b, check_truth in blocked:
        d, h = signature_similarity(rng, *jordan_system(base, blocks, columns))
        path = out.system(name, d, h)
        files = {"system": path}
        ops += [
            Op(f"{name}/check", ["check", path, "-s", str(s_b), "--rational"],
               check_truth, files=files),
            Op(f"{name}/bounds-sparse",
               ["bounds", path, "-s", str(s_b), "--rational"], {"exit": 2}, files=files),
            Op(f"{name}/oracle", ["oracle", path, "-s", str(s_b), "--rational"],
               {"k_star": None}, files=files),
        ]
    return ops


_BUILDERS = {
    "float-scale": _float_scale,
    "search-blocked": _search_blocked,
    "exact-rational": _exact_rational,
}


def build(workload, seed, workdir):
    """Write the inputs of ``workload`` for ``seed`` and return its ops."""
    ops = _BUILDERS[workload](seed, _Writer(workdir))
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload, "seed": seed, "ops": [asdict(op) for op in ops]},
            fh,
            indent=1,
        )
    return ops
