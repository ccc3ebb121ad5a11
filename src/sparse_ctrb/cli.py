"""Command-line interface.

Subcommands: ``check``, ``bounds``, ``decompose``, ``oracle``, ``steer``.
Each reads a JSON system file, writes a JSON report to stdout and a one-line
human summary to stderr.  Exit codes: 0 the analysis completed (verdicts,
including negative ones, live in the report), 2 input error, 3 no verdict
(inconclusive): the search budget ran out, or the sparse test referees the
search (``oracle._min_k``).

Reports are byte-identical across runs for identical inputs and flags; pass
``--timing`` to opt into a wall-clock ``elapsed_ms`` field (which breaks that
guarantee).  ``--rational`` switches rank decisions to exact arithmetic for
``check``, ``bounds``, and ``oracle``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings as _warnings

import numpy as np

from . import bounds as bounds_mod
from . import exact
from .ctrb import (
    _common_support,
    _FloatSpan,
    _output_kalman,
    _output_rank_inequality,
    _sparse_test,
    output_pbh_necessary,
)
from .decomp import standard_form, verify_standard_form
from .errors import InconclusiveError, InputError, UncontrollableSystemError
from .io import build_report, load_system, render_report
from .linalg import DEFAULT_TOLERANCE, Tolerance
from .oracle import OracleBudget, _min_k
from .steer import greedy_support_schedule, solve_inputs, solve_output_inputs

_ARGUMENT_KEYS = (
    "mode",
    "s",
    "variant",
    "k",
    "max_k",
    "max_enumerations",
    "deadline",
    "x_init",
    "x_final",
    "output_target",
    "rational",
    "tol",
)


def _arguments_for(args) -> dict:
    out = {}
    for key in _ARGUMENT_KEYS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            out[key] = value
    return out


def _tolerance_from(args) -> Tolerance:
    value = args.tol
    if value is None:
        env = os.environ.get("SPARSE_CTRB_TOL")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise InputError(f"SPARSE_CTRB_TOL must be a float, got {env!r}")
    if value is None:
        return DEFAULT_TOLERANCE
    try:
        return Tolerance(rank_rel=value)
    except ValueError as exc:
        raise InputError(str(exc))


def _load_vector(path, length, name):
    """Read a JSON file holding a flat array of numbers of the given length."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {name} file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{name} file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise InputError(f"{name} file must contain a flat JSON array of numbers")
    if len(data) != length:
        raise InputError(f"{name} must have {length} entries, got {len(data)}")
    return np.array(data, dtype=np.float64)


def _reject_rational(args, command):
    if args.rational:
        raise InputError(f"{command} does not support --rational")


def _run_check(system, args, tol, span):
    s = args.s
    warn = []
    if args.mode == "state":
        holds, lam, z, slack = _sparse_test(system, s, span)
        result = {
            "verdict": holds and slack >= 0,
            "rank_condition_holds": holds,
            "inequality_holds": slack >= 0,
            "slack": slack,
        }
        witnesses = None if lam is None else {"lambda": lam, "z": z}
        word = "is" if result["verdict"] else "is NOT"
        summary = f"{word} {s}-sparse controllable"
    elif args.mode == "common-support":
        verdict, support, screen = _common_support(system, s, span)
        result = {"verdict": verdict, "screen": screen}
        witnesses = {"support": support} if support is not None else None
        word = "admits" if verdict else "admits NO"
        summary = f"{word} controllable common support of size {s}"
    else:  # output
        inequality = _output_rank_inequality(system, s, span)
        kalman = _output_kalman(system, span)
        sweep = output_pbh_necessary(system, tol)
        if args.rational:
            warn.append(
                "rational mode: output eigenvalue sweep evaluated in floating point"
            )
        result = {
            "output_kalman": kalman,
            "eigen_sweep_necessary": sweep,
            "rank_inequality_necessary": inequality,
            "sparse_necessary": bool(sweep and inequality),
        }
        witnesses = None
        word = "holds" if kalman else "fails"
        summary = f"output reachability rank test {word}; necessary sparse conditions "
        summary += "hold" if result["sparse_necessary"] else "fail"
    return result, witnesses, warn, summary


def _run_bounds(system, args, tol, span):
    variant = args.variant
    s = args.s
    if variant != "unconstrained" and s is None:
        raise InputError(f"--variant {variant} requires -s")
    b = bounds_mod._kstar_bounds(system, variant, s, span)
    result = {
        "variant": b.variant,
        "lower": b.lower,
        "upper": b.upper,
        "lower_exact": b.lower_exact,
        "q": b.q,
        "r_hs_star": b.r_hs_star,
        "s_star": b.s_star,
    }
    summary = f"{b.lower} <= K* <= {b.upper} ({variant})"
    return result, None, [], summary


def _run_oracle(system, args, tol, span):
    limits = {"max_enumerations": args.max_enumerations, "deadline_s": args.deadline}
    budget = OracleBudget(
        max_k=args.max_k, **{key: v for key, v in limits.items() if v is not None}
    )
    k_star, witness, max_k = _min_k(
        system, args.s, budget, span, output=args.mode == "output"
    )
    result = {"k_star": k_star, "max_k_searched": max_k, "inconclusive": False}
    witnesses = {"schedule": witness} if witness is not None else None
    if k_star is None:
        summary = f"no rank-achieving schedule up to K={max_k}"
    else:
        summary = f"minimal steering time K*={k_star}"
    return result, witnesses, [], summary


def _run_decompose(system, args, tol, span):
    _reject_rational(args, "decompose")
    dec = standard_form(system, args.s, tol)
    check = verify_standard_form(system, dec, tol)
    warn = []
    if dec.core_rank_mismatch:
        warn.append(
            "core dimension differs from rank of the controllable block "
            "(zero eigenvalue not semisimple); sparse classification is "
            "conservative"
        )
    result = {
        "R": dec.R,
        "r": dec.r,
        "R_s": dec.R_s,
        "classification": dec.classification,
        "core_rank_mismatch": dec.core_rank_mismatch,
        "U": dec.U,
        "W": dec.W,
        "T": dec.T,
        "D_bar": dec.D_bar,
        "H_bar": dec.H_bar,
        "verification": {
            "similarity_residual": check.similarity_residual,
            "structure_residual": check.structure_residual,
            "nilpotent_residual": check.nilpotent_residual,
            "input_free_residual": check.input_free_residual,
            "subsystem_verdict": None
            if check.subsystem_report is None
            else check.subsystem_report.verdict,
            "ok": check.ok,
        },
    }
    summary = (
        f"R={dec.R}, r={dec.r}, R_s={dec.R_s}; verification "
        + ("ok" if check.ok else "FAILED")
    )
    return result, None, warn, summary


def _run_steer(system, args, tol, span):
    _reject_rational(args, "steer")
    s = args.s
    k = args.k
    if k < 0:
        raise InputError(f"--k must be a non-negative integer, got {k}")
    x_init = (
        np.zeros(system.n_states)
        if args.x_init is None
        else _load_vector(args.x_init, system.n_states, "--x-init")
    )
    schedule = greedy_support_schedule(system, s, k, tol)
    if args.output_target:
        if system.A is None:
            raise InputError("--output-target requires an output map A")
        target = _load_vector(args.x_final, system.n_outputs, "--x-final")
        plan = solve_output_inputs(system, schedule, x_init, target, tol)
        space = "output"
    else:
        target = _load_vector(args.x_final, system.n_states, "--x-final")
        plan = solve_inputs(system, schedule, x_init, target, tol)
        space = "state"
    feasible = plan.residual <= tol.residual_abs * max(1.0, float(np.linalg.norm(target)))
    result = {
        "k": k,
        "space": space,
        "schedule": plan.schedule.supports,
        "inputs": plan.inputs,
        "trajectory": plan.trajectory,
        "residual": plan.residual,
        "feasible": feasible,
    }
    summary = f"{space} steering residual {plan.residual:.3e} at K={k}"
    return result, None, [], summary


_RUNNERS = {
    "check": _run_check,
    "bounds": _run_bounds,
    "oracle": _run_oracle,
    "decompose": _run_decompose,
    "steer": _run_steer,
}


@functools.cache
def _build_parser():
    """The argparse tree, built once: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="sparse-ctrb",
        description="Controllability analysis for linear systems with sparse inputs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("system", help="path to a JSON system file")
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="relative rank tolerance (default 1e-10; env SPARSE_CTRB_TOL)",
    )
    common.add_argument(
        "--rational",
        action="store_true",
        help="exact rational arithmetic for rank decisions",
    )
    common.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock elapsed_ms in the report (non-deterministic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sparsity(p, required=True):
        p.add_argument(
            "-s",
            "--sparsity",
            dest="s",
            type=int,
            required=required,
            default=None,
            help="per-step sparsity budget",
        )

    p = sub.add_parser("check", parents=[common], help="controllability tests")
    sparsity(p)
    p.add_argument(
        "--output-mode",
        dest="mode",
        choices=["state", "output", "common-support"],
        default="state",
        help="which controllability question to test",
    )

    p = sub.add_parser("bounds", parents=[common], help="steering-time bounds")
    sparsity(p, required=False)
    p.add_argument(
        "--variant",
        choices=["unconstrained", "sparse", "relaxed", "output", "common-support"],
        default="sparse",
    )

    p = sub.add_parser(
        "oracle", parents=[common], help="minimal steering time and its witness"
    )
    sparsity(p)
    p.add_argument("--mode", choices=["state", "output"], default="state")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument(
        "--budget",
        "--max-enumerations",
        type=int,
        default=None,
        dest="max_enumerations",
        help="budget of support extensions and matroid-intersection "
        "augmentations, over all K, before the search reports inconclusive",
    )
    p.add_argument("--deadline", type=float, default=None, help="seconds")

    p = sub.add_parser(
        "decompose", parents=[common], help="sparse-controllability standard form"
    )
    sparsity(p)

    p = sub.add_parser("steer", parents=[common], help="plan a sparse input sequence")
    sparsity(p)
    p.add_argument("--k", type=int, required=True, help="number of steps (K >= 0)")
    p.add_argument(
        "--x-init",
        default=None,
        dest="x_init",
        help="JSON file with the initial state (default: origin)",
    )
    p.add_argument(
        "--x-final",
        required=True,
        dest="x_final",
        help="JSON file with the target state (or target output)",
    )
    p.add_argument(
        "--output-target",
        action="store_true",
        dest="output_target",
        help="interpret --x-final as an output-space target y_K = A x_K",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    variant = getattr(args, "variant", None)
    if variant == "common-support":
        args.variant = "common_support"
    started = time.monotonic()
    code = 0
    try:
        tol = _tolerance_from(args)
        span = exact._ExactSpan() if args.rational else _FloatSpan(tol)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            system, name = load_system(args.system)
            result, witnesses, extra_warnings, summary = _RUNNERS[command](
                system, args, tol, span
            )
        warning_strings = [str(w.message) for w in caught] + list(extra_warnings)
    except InconclusiveError as exc:
        code, witnesses, warning_strings = 3, None, []
        result = {
            "inconclusive": True,
            "reason": str(exc),
            "enumerations": exc.enumerations,
            "k_reached": exc.k_reached,
        }
        summary = f"inconclusive ({exc})"
    except (InputError, UncontrollableSystemError, ValueError) as exc:
        print(f"sparse-ctrb {command}: error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.monotonic() - started) * 1e3 if args.timing else None
    report = build_report(
        command=command,
        system_name=name,
        arguments=_arguments_for(args),
        result=result,
        tolerance=tol,
        witnesses=witnesses,
        warnings=warning_strings,
        exact=bool(args.rational),
        elapsed_ms=elapsed_ms,
    )
    sys.stdout.write(render_report(report))
    label = name if name is not None else args.system
    print(f"sparse-ctrb {command} [{label}]: {summary}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
