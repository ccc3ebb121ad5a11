"""Spans around the program's layers, installed from outside the program.

``Tracer.install()`` replaces each function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent).  A module that did
``from .linalg import rank`` holds its own binding of ``rank``, so the
wrapper is bound in every ``sparse_ctrb`` module that holds the original.
``numpy.linalg.svd`` is wrapped for counts only (calls and m*n*min(m, n)
flops of the calls made while a span is open); it opens no span, so the
SVD time stays in the self time of the layer that asked for it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name).  All kstar_bounds_* variants share one span.
LAYERS = (
    ("io", "load_system", "io.load_system"),
    ("io", "render_report", "io.render_report"),
    ("ctrb", "sparse_pbh_test", "ctrb.sparse_pbh_test"),
    ("ctrb", "pbh_test", "ctrb.pbh_test"),
    ("ctrb", "common_support_test", "ctrb.common_support_test"),
    ("ctrb", "output_pbh_necessary", "ctrb.output_pbh_necessary"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "eigenvalue_probes", "linalg.eigenvalue_probes"),
    ("linalg", "min_poly_degree", "linalg.min_poly_degree"),
    ("linalg", "core_nilpotent", "linalg.core_nilpotent"),
    ("linalg", "extend_to_basis", "linalg.extend_to_basis"),
    ("linalg", "max_geometric_multiplicity", "linalg.max_geometric_multiplicity"),
    ("bounds", "s_star", "bounds.s_star"),
    ("bounds", "kstar_bounds_unconstrained", "bounds.kstar_bounds"),
    ("bounds", "kstar_bounds_sparse", "bounds.kstar_bounds"),
    ("bounds", "kstar_bounds_relaxed", "bounds.kstar_bounds"),
    ("bounds", "output_kstar_bounds", "bounds.kstar_bounds"),
    ("bounds", "common_support_kstar_bounds", "bounds.kstar_bounds"),
    ("oracle", "decision_horizon", "oracle.decision_horizon"),
    ("oracle", "exact_min_k", "oracle.exact_min_k"),
    ("oracle", "output_kalman_type_rank_test", "oracle.output_kalman_type_rank_test"),
    ("exact", "rank_exact", "exact.rank_exact"),
    ("exact", "min_poly_degree_exact", "exact.min_poly_degree_exact"),
    ("exact", "min_k_exact", "exact.min_k_exact"),
    ("exact", "s_star_exact", "exact.s_star_exact"),
    ("decomp", "standard_form", "decomp.standard_form"),
    ("decomp", "verify_standard_form", "decomp.verify_standard_form"),
    ("steer", "greedy_support_schedule", "steer.greedy_support_schedule"),
    ("steer", "solve_inputs", "steer.solve_inputs"),
    ("steer", "rollout", "steer.rollout"),
)
COMMANDS = ("check", "bounds", "oracle", "decompose", "steer")

# Per-layer metrics: (name, unit).  Counts come from the calls of a span or
# from the SVD counter; times are self times, except cli.<command>.s, the
# whole cli.main call of each subcommand.
CALL_METRICS = (
    "ctrb.sparse_pbh_test", "ctrb.pbh_test", "linalg.rank",
    "linalg.eigenvalue_probes", "bounds.s_star",
    "oracle.output_kalman_type_rank_test", "exact.rank_exact",
)
SELF_METRICS = (
    "cli.main", "io.load_system", "io.render_report",
    "ctrb.sparse_pbh_test", "ctrb.pbh_test", "ctrb.common_support_test",
    "ctrb.output_pbh_necessary", "linalg.rank", "linalg.eigenvalue_probes",
    "linalg.min_poly_degree", "linalg.core_nilpotent", "linalg.extend_to_basis",
    "linalg.max_geometric_multiplicity", "bounds.s_star", "bounds.kstar_bounds",
    "oracle.decision_horizon", "oracle.exact_min_k",
    "oracle.output_kalman_type_rank_test", "exact.rank_exact",
    "exact.min_poly_degree_exact", "exact.min_k_exact", "exact.s_star_exact",
    "decomp.standard_form", "decomp.verify_standard_form",
    "steer.greedy_support_schedule", "steer.solve_inputs", "steer.rollout",
)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = [(f"cli.{c}.s", "s") for c in COMMANDS]
    out += [(f"{n}.calls", "count") for n in CALL_METRICS]
    out += [("linalg.svd.calls", "count"), ("linalg.svd.flops", "count")]
    out += [(f"{n}.self_s", "s") for n in SELF_METRICS]
    out += [("trace.overhead", "%")]
    return out


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self._restore = []
        self.svd_calls = 0
        self.svd_flops = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_svd(self, svd):
        def counted(a, *args, **kwargs):
            if self._stack:
                shape = np.shape(a)
                m, n = shape[-2], shape[-1]
                batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
                self.svd_calls += 1
                self.svd_flops += batch * m * n * min(m, n)
            return svd(a, *args, **kwargs)

        return counted

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sparse_ctrb" and not mod_name.startswith("sparse_ctrb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        """Wrap every layer function and numpy.linalg.svd."""
        for mod, fn, name in LAYERS:
            module = importlib.import_module(f"sparse_ctrb.{mod}")
            original = getattr(module, fn)
            self._rebind(original, self.wrap(name, original))
        svd = np.linalg.svd
        np.linalg.svd = self._count_svd(svd)
        self._restore.append((np.linalg, "svd", svd))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take(self):
        """Aggregate and clear the recorded spans: {name: [calls, self_s]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - inner
        self.spans.clear()
        return totals
