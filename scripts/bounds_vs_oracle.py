#!/usr/bin/env python3
"""Measure how tightly the K* bounds bracket the true minimum horizon.

Samples sparse-controllable integer systems, computes the exact minimum
number of steps via the oracle, and tabulates where it falls inside the
[lower, upper] interval of each bound variant.

Usage:
    python scripts/bounds_vs_oracle.py --count 300 --seed 1
"""

import argparse
import collections
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sparse_ctrb import (
    SystemModel,
    exact_min_k,
    kstar_bounds_relaxed,
    kstar_bounds_sparse,
    sparse_pbh_test,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300, help="controllable pairs")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed")
    parser.add_argument("--max-n", type=int, default=3, help="largest state dimension")
    parser.add_argument("--max-l", type=int, default=3, help="largest input count")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    gaps = {"sparse": collections.Counter(), "relaxed": collections.Counter()}
    tight = {"sparse": 0, "relaxed": 0}
    at_lower = 0
    collected = 0
    while collected < args.count:
        n = int(rng.integers(2, args.max_n + 1))
        l = int(rng.integers(1, args.max_l + 1))
        d = rng.integers(-1, 2, size=(n, n)).astype(float)
        h = rng.integers(-1, 2, size=(n, l)).astype(float)
        sys_ = SystemModel(D=d, H=h)
        s = int(rng.integers(1, l + 1))
        if not sparse_pbh_test(sys_, s).verdict:
            continue
        k, _ = exact_min_k(sys_, s)
        collected += 1
        for label, fn in (("sparse", kstar_bounds_sparse), ("relaxed", kstar_bounds_relaxed)):
            b = fn(sys_, s)
            assert b.lower <= k <= b.upper, (label, d.tolist(), h.tolist(), s, k)
            gaps[label][b.upper - b.lower] += 1
            if b.lower == b.upper:
                tight[label] += 1
        if k == kstar_bounds_sparse(sys_, s).lower:
            at_lower += 1

    print(f"{collected} sparse-controllable (system, s) pairs")
    for label in ("sparse", "relaxed"):
        hist = ", ".join(
            f"gap {g}: {c}" for g, c in sorted(gaps[label].items())
        )
        print(f"{label:>8}: exact on {tight[label]} pairs; width histogram: {hist}")
    print(f"oracle minimum equals the sparse lower bound on {at_lower} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
