import ast
import importlib
import json
import time
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparse_ctrb import (
    InputError,
    OracleBudget,
    SystemModel,
    bounds,
    load_system,
    oracle,
    output_kalman_type_rank_test,
    save_system,
)
from sparse_ctrb import cli, exact
from sparse_ctrb.cli import main
from sparse_ctrb.ctrb import _FloatSpan
from sparse_ctrb.exact import _ExactSpan
from sparse_ctrb.io import (
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    SYSTEM_SCHEMA,
    render_report,
    system_to_dict,
    to_jsonable,
)
from tests.conftest import (
    DATA,
    FIXTURES,
    core_split_undecided,
    inequality_blocked_output,
    kernel_blocked_output,
)

CHECK_1 = [str(FIXTURES / "inequality-blocked.json"), "-s", "2"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


class TestSystemFiles:
    def test_round_trip(self, tmp_path, output_reachable):
        path = tmp_path / "sys.json"
        save_system(path, output_reachable, name="demo")
        loaded, name = load_system(path)
        assert name == "demo"
        assert np.array_equal(loaded.D, output_reachable.D)
        assert np.array_equal(loaded.H, output_reachable.H)
        assert np.array_equal(loaded.A, output_reachable.A)

    def test_fixture_files_match_schema(self):
        for path in sorted(FIXTURES.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                jsonschema.validate(json.load(fh), SYSTEM_SCHEMA)

    def test_system_to_dict_matches_schema(self, inequality_blocked):
        jsonschema.validate(system_to_dict(inequality_blocked), SYSTEM_SCHEMA)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"D": [[1]], "H": [[1]], "bogus": 1}))
        with pytest.raises(InputError, match="unknown keys"):
            load_system(path)

    def test_missing_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"D": [[1]]}))
        with pytest.raises(InputError, match="missing required key"):
            load_system(path)

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"D": [[1, 0], [1]], "H": [[1], [1]]}))
        with pytest.raises(InputError):
            load_system(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"D": [["x"]], "H": [[1]]}))
        with pytest.raises(InputError):
            load_system(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_system(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "entry, shown",
        [(True, "True"), (False, "False"), ("1", "'1'"), (None, "None"),
         ([1.0], "[1.0]"), ({"x": 1}, "{'x': 1}")],
    )
    def test_non_number_entry_message(self, tmp_path, entry, shown):
        # The message names the first offending entry of the row, whatever
        # the numbers around it.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"D": [[1, 0.5], [2, entry]], "H": [[1], [1]]}))
        with pytest.raises(InputError) as info:
            load_system(path)
        assert str(info.value) == f"D entries must be numbers, got {shown}"


class TestJsonable:
    def test_fraction(self):
        assert to_jsonable(Fraction(3, 2)) == "3/2"

    def test_complex(self):
        assert to_jsonable(1 + 2j) == [1.0, 2.0]

    def test_array(self):
        assert to_jsonable(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]
        assert to_jsonable(np.arange(2)) == [0, 1]
        assert to_jsonable(np.array([True, False])) == [True, False]
        assert to_jsonable(np.array([1 + 2j])) == [[1.0, 2.0]]


def _json_values():
    """Strategy for JSON values as reports hold them: string keys, finite
    floats, bool next to int, nulls, non-ASCII text, nested and empty
    containers, and lists that mix all of these."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text()
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=6)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
        | st.dictionaries(st.text(), inner, max_size=5),
        max_leaves=40,
    )


class TestRenderReport:
    """``render_report`` writes the bytes of ``json.dumps(indent=2,
    sort_keys=True, allow_nan=False)`` plus a newline."""

    @staticmethod
    def reference(value):
        return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"

    @settings(max_examples=300)
    @given(_json_values())
    @example([-0.0, 1e16, 5e-324, 1e-7, 0.1, -1.5e300])
    @example({"b": [True, 1, 0, False, 1.0, None], "a": [[], {}, [[]], [{}]]})
    @example({"zé": ["日本", "\U0001f600", "a, b", "q\"u\n"], "": {}})
    @example([[1.0, 2.0], [3, "x, y"], [None, [0.5, -0.0]]])
    def test_matches_json_dumps(self, value):
        assert render_report(value) == self.reference(value)

    def test_tuples_render_as_lists(self):
        value = {"w": (1.0, 2.0), "s": ((0, 1), ("a", None))}
        assert render_report(value) == self.reference(value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nan_and_inf_raise(self, bad):
        for value in ([1.0, bad], {"x": bad}, [[0.5], ["s", bad]], bad):
            with pytest.raises(ValueError):
                render_report(value)


class TestCliExitCodes:
    def test_check_ok(self, capsys):
        code, out, err = run_cli(capsys, "check", *CHECK_1)
        assert code == 0
        assert json.loads(out)["result"]["verdict"] is True
        assert err.startswith("sparse-ctrb check")

    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "/nonexistent.json", "-s", "1")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_out_of_range_sparsity_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "check", str(FIXTURES / "inequality-blocked.json"), "-s", "9"
        )
        assert code == 2
        assert "error" in err
        # Output questions guard s on both routes (L = 2 and L = 1 here).
        reachable = str(FIXTURES / "output-reachable.json")
        blocked = str(FIXTURES / "output-blocked.json")
        for argv in (
            ("check", reachable, "-s", "3", "--output-mode", "output"),
            ("check", blocked, "-s", "2", "--output-mode", "output"),
            ("bounds", reachable, "-s", "3", "--variant", "output", "--rational"),
            ("bounds", blocked, "-s", "2", "--variant", "output", "--rational"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "error" in err

    def test_non_finite_report_is_input_error(self, capsys, tmp_path):
        # The trajectory overflows to inf, which JSON cannot hold: the run
        # exits 2 with an error line and writes nothing to stdout.
        system, target = tmp_path / "big.json", tmp_path / "target.json"
        system.write_text(json.dumps({"D": [[1e200, 0], [0, 1]], "H": [[1], [1]]}))
        target.write_text("[1, 1]")
        argv = ("steer", str(system), "-s", "1", "--k", "3", "--x-final", str(target))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("sparse-ctrb steer: error: ")

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["oracle"], ["check", "--rational"], ["oracle", "--rational"]],
        ids=" ".join,
    )
    def test_system_integer_beyond_float_range_is_input_error(
        self, capsys, tmp_path, argv
    ):
        # 1e400 written as a float loads as inf and is rejected as such; an
        # integer past the float range must exit 2 as well.
        system = tmp_path / "big.json"
        system.write_text('{"D": [[1' + "0" * 400 + ', 0], [0, 1]], "H": [[1], [1]]}')
        code, out, err = run_cli(capsys, argv[0], str(system), "-s", "1", *argv[1:])
        assert (code, out) == (2, "")
        assert "D entries must fit in a float" in err

    @pytest.mark.parametrize("flag", ["--x-init", "--x-final"])
    def test_vector_integer_beyond_float_range_is_input_error(
        self, capsys, tmp_path, flag
    ):
        huge, zeros = tmp_path / "huge.json", tmp_path / "zeros.json"
        huge.write_text("[1" + "0" * 400 + ", 0, 0]")
        zeros.write_text("[0, 0, 0]")
        vectors = {"--x-init": zeros, "--x-final": zeros, flag: huge}
        code, out, err = run_cli(
            capsys, "steer", str(FIXTURES / "nilpotent-chain.json"), "-s", "1",
            "--k", "3", *(f"{k}={v}" for k, v in vectors.items()),
        )
        assert (code, out) == (2, "")
        assert f"{flag} entries must fit in a float" in err

    def test_non_finite_deadline_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", *CHECK_1, "--deadline", "inf")
        assert (code, out) == (2, "")
        assert "deadline_s must be positive and finite" in err

    def test_bounds_undefined_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", str(FIXTURES / "uncontrollable.json"), "-s", "1"
        )
        assert code == 2
        assert "K* undefined" in err

    def test_rational_decompose_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "decompose",
            str(FIXTURES / "standard-form-reference.json"),
            "-s",
            "1",
            "--rational",
        )
        assert code == 2

    def test_oracle_budget_inconclusive(self, capsys):
        code, out, err = run_cli(
            capsys,
            "oracle",
            str(FIXTURES / "no-common-support.json"),
            "-s",
            "1",
            "--budget",
            "3",
        )
        assert code == 3
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["result"]["inconclusive"] is True
        assert report["result"]["enumerations"] >= 3
        # The inconclusive report names the system and carries the tolerance
        # in force, and --timing adds elapsed_ms as on success.
        assert report["system"] == "no-common-support"
        assert "elapsed_ms" not in report
        code, out, _ = run_cli(
            capsys,
            "oracle",
            str(FIXTURES / "no-common-support.json"),
            "-s",
            "1",
            "--budget",
            "3",
            "--tol",
            "1e-9",
            "--timing",
        )
        assert code == 3
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["system"] == "no-common-support"
        assert report["tolerance"]["rank_rel"] == 1e-9
        assert report["arguments"]["tol"] == 1e-9
        assert report["elapsed_ms"] >= 0

    def test_undecided_core_split_is_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        save_system(path, core_split_undecided(), name="split")
        argv = ["decompose", str(path), "-s", "1", "--tol", "0.1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["system"] == "split"
        assert report["tolerance"]["rank_rel"] == 0.1
        assert report["result"] == {
            "inconclusive": True,
            "reason": "core-nilpotent split failed: range and null bases do not span",
            "enumerations": None,
            "k_reached": None,
        }

    def test_output_budget_covers_every_k(self, capsys, tmp_path):
        # Output rank 4 is out of reach, and only the kernel's cut shows it.
        # K = 1..3 fail the capacity pre-check at no tick, and each K from 4
        # on passes the paper's inequality and costs one tick, an
        # augmentation round whose cut rules the K out: K = 1..9 together 6
        # ticks, all K = 1..10 7.
        system = kernel_blocked_output()
        budget = OracleBudget(max_enumerations=1)
        for k in range(1, 11):
            assert output_kalman_type_rank_test(system, 1, k, budget) == (False, None)
        path = tmp_path / "output-budget.json"
        save_system(path, system, name="output-budget")
        argv = ["oracle", str(path), "-s", "1", "--mode", "output"]
        assert run_cli(capsys, *argv, "--budget", "7")[0] == 0
        code, out, _ = run_cli(capsys, *argv, "--budget", "6")
        assert code == 3
        report = json.loads(out)
        assert report["result"]["inconclusive"] is True
        assert report["result"]["k_reached"] == 10
        # Here rank(A D [D^(K-2) H, ..., H]) + s = 2 + 1 < 3, so the paper's
        # inequality rules out K = 3..8 at no tick, and the search ends with
        # its null under a budget of one.
        path = tmp_path / "output-inequality.json"
        save_system(path, inequality_blocked_output(), name="output-inequality")
        argv = ["oracle", str(path), "-s", "1", "--mode", "output", "--budget", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["k_star"], result["max_k_searched"]) == (None, 8)

    def test_rational_deadline_stops_search(self, capsys, tmp_path):
        # Output rank 4 is out of reach, and with 32 channels the horizon is
        # K = 160.  The paper's inequality leaves every K to the kernel, whose
        # cut rules out each K >= 4 with one exact solve over all 32 K
        # columns: 5.5 s in all without --deadline (in-process, 2-vCPU
        # host).  The deadline has to be checked on every tick.
        path = tmp_path / "kernel-blocked-wide.json"
        save_system(path, kernel_blocked_output(32), name="kernel-blocked-wide")
        started = time.monotonic()
        code, out, _ = run_cli(
            capsys, "oracle", str(path), "-s", "1", "--mode", "output", "--rational",
            "--deadline", "0.5", "--budget", "20000000",
        )
        assert time.monotonic() - started < 10
        assert code == 3
        report = json.loads(out)
        assert report["exact"] is True
        assert "deadline" in report["result"]["reason"]

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_blocked_search_settles_quickly(self, capsys, tmp_path, rational):
        # Not 1-sparse controllable, and every K >= 3 has blocks of rank 3:
        # the depth-first search alone spends a million extensions here.
        path = tmp_path / "f3.json"
        save_system(
            path,
            SystemModel(
                D=np.diag([2.0, 0.0, 0.0]),
                H=np.array([[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], float),
            ),
            name="f3",
        )
        argv = ["oracle", str(path), "-s", "1", "--budget", "20000"]
        started = time.monotonic()
        code, out, _ = run_cli(capsys, *argv, *(["--rational"] if rational else []))
        assert time.monotonic() - started < 2
        assert code == 0
        report = json.loads(out)
        assert report["result"]["k_star"] is None
        assert report["result"]["max_k_searched"] == 12

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("width", [None, 32], ids=["fixture", "f3-wide"])
    def test_inequality_cut_skips_the_kernel(
        self, capsys, tmp_path, monkeypatch, width, rational
    ):
        # N > s + rank(D) on both systems (F3 widened to 32 channels: 3 >
        # 1 + 1), so the paper's inequality rules out every K the rank
        # pre-check passes.  The report is the one the cut-free pre-checks
        # give, which send those K to the kernel, and no kernel call is made.
        path = FIXTURES / "inequality-blocked.json"
        if width:
            path = tmp_path / "f3-wide.json"
            h = [[1] * width, [1, 0] * (width // 2), [0, 1] * (width // 2)]
            save_system(
                path,
                SystemModel(D=np.diag([2.0, 0.0, 0.0]), H=np.array(h, float)),
                name="f3-wide",
            )
        argv = ["oracle", str(path), "-s", "1", *(["--rational"] if rational else [])]
        calls = []

        def counting(*args):
            calls.append(args[5])  # K
            return kernel(*args)

        kernel = oracle._common_independent
        monkeypatch.setattr(oracle, "_common_independent", counting)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, calls) == (0, [])
        assert json.loads(out)["result"]["k_star"] is None

        def cut_free(blocks, caps, s, l, target, span):
            return None if oracle._within_reach(blocks, caps, target, span) else "rank"

        monkeypatch.setattr(oracle, "_ruled_out", cut_free)
        assert run_cli(capsys, *argv)[:2] == (code, out)
        assert calls

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_witness_needs_no_exhaustive_search(self, capsys, rational):
        # On dfs-slow-8 the first path of supports past the capacity cut has
        # no witness at K* = 6, and a depth-first search over schedules
        # spends 31,278 ticks before it finds one.  Kernel-certified
        # prefixes take 46.
        argv = ["oracle", str(DATA / "dfs-slow-8.json"), "-s", "2", "--budget", "1000"]
        code, out, err = run_cli(capsys, *argv, *(["--rational"] if rational else []))
        assert code == 0, err
        report = json.loads(out)
        assert report["result"]["k_star"] == 6
        assert report["witnesses"]["schedule"] == [[0, 3]] * 6

    def test_uncertified_short_kernel_is_ill_posed(self, capsys, monkeypatch):
        # A kernel set short of N whose cut is not certified (only float rank
        # decisions can leave one) is referred to the sparse test, which
        # passes here: exit 3 at that K, not a search for a witness.  The
        # capacity pre-check would skip K = 1 and 2, so the pre-checks are
        # forced to leave every K to the kernel too.
        monkeypatch.setattr(oracle, "_ruled_out", lambda *args: None)
        monkeypatch.setattr(oracle, "_blocked", lambda *args: False)
        argv = ["oracle", str(FIXTURES / "nilpotent-chain.json"), "-s", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["result"]["k_reached"] == 1
        assert "ill-posed" in report["result"]["reason"]

    def test_search_contradicting_sparse_test_is_inconclusive(self, capsys, monkeypatch):
        # A search that finds nothing (as float rank decisions can on
        # ill-conditioned D) while the sparse test passes: the default search
        # must not turn that into a definite "no schedule", but an explicit
        # --max-k still may.
        monkeypatch.setattr(oracle, "_first_schedule", lambda *args, **kwargs: None)
        argv = ["oracle", str(FIXTURES / "nilpotent-chain.json"), "-s", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["result"]["inconclusive"] is True
        assert report["result"]["k_reached"] == 6  # N * ceil(L/s) = 3 * 2
        assert "sparse steering-time upper bound" in report["result"]["reason"]
        assert "the sparse test passed" in report["result"]["reason"]
        code, out, _ = run_cli(capsys, *argv, "--max-k", "1")
        assert code == 0
        assert json.loads(out)["result"]["k_star"] is None

    def test_oracle_needs_no_steering_bound(self, capsys, monkeypatch):
        # The default horizon is N * ceil(L/s): no q, no S*, no bounds.
        def unused(*args, **kwargs):
            raise AssertionError("the oracle evaluated a steering-time bound")

        monkeypatch.setattr(_FloatSpan, "min_poly_degree", unused)
        monkeypatch.setattr(_ExactSpan, "min_poly_degree", unused)
        monkeypatch.setattr(oracle, "_kstar_bounds", unused)
        monkeypatch.setattr(bounds, "_first_controllable_support", unused)
        for fixture, k_star in (("nilpotent-chain", 3), ("inequality-blocked", None)):
            argv = ["oracle", str(FIXTURES / f"{fixture}.json"), "-s", "1"]
            for arithmetic in ([], ["--rational"]):
                code, out, _ = run_cli(capsys, *argv, *arithmetic)
                assert code == 0
                assert json.loads(out)["result"]["k_star"] == k_star

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(FIXTURES / "inequality-blocked.json")])
        assert exc.value.code == 2


class TestCliReports:
    def test_byte_determinism(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "check", *CHECK_1)
            outputs.append(out)
        assert outputs[0] == outputs[1]
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "oracle", str(FIXTURES / "nilpotent-chain.json"), "-s", "1"
            )
            outputs.append(out)
        assert outputs[2] == outputs[3]

    def test_shared_parser_carries_no_flag_over(self, capsys):
        # main builds its argparse tree once per process.  Each report of a
        # run of calls on that one tree has the bytes of the same argv parsed
        # first by a fresh tree, so no flag carries over to the next call.
        chain = str(FIXTURES / "nilpotent-chain.json")
        argvs = (
            ["check", *CHECK_1, "--rational"],
            ["check", *CHECK_1],
            ["oracle", chain, "-s", "1", "--deadline", "5"],
            ["oracle", chain, "-s", "1"],
        )
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv)[:2])
        cli._build_parser.cache_clear()
        shared = [run_cli(capsys, *argv)[:2] for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        assert shared == fresh
        assert all(code == 0 for code, _ in shared)
        assert len({out for _, out in shared}) == len(argvs)

    def test_timing_flag_adds_elapsed(self, capsys):
        base = report_of(capsys, "check", *CHECK_1)
        assert "elapsed_ms" not in base
        timed = json.loads(run_cli(capsys, "check", *CHECK_1, "--timing")[1])
        assert "elapsed_ms" in timed
        assert timed["elapsed_ms"] >= 0

    def test_schema_version_stamped(self, capsys):
        report = report_of(capsys, "check", *CHECK_1)
        assert report["schema_version"] == SCHEMA_VERSION

    def test_every_subcommand_validates(self, capsys, tmp_path):
        xf = tmp_path / "xf.json"
        xf.write_text("[1.0, 2.0, 3.0]")
        runs = [
            ("check", *CHECK_1),
            ("check", str(FIXTURES / "output-reachable.json"), "-s", "1",
             "--output-mode", "output"),
            ("check", str(FIXTURES / "no-common-support.json"), "-s", "2",
             "--output-mode", "common-support"),
            ("bounds", str(FIXTURES / "nilpotent-chain.json"), "-s", "1",
             "--variant", "sparse"),
            ("bounds", str(FIXTURES / "nilpotent-chain.json"), "-s", "1",
             "--variant", "relaxed"),
            ("oracle", str(FIXTURES / "nilpotent-chain.json"), "-s", "1"),
            ("decompose", str(FIXTURES / "standard-form-reference.json"), "-s", "1"),
            ("steer", str(FIXTURES / "nilpotent-chain.json"), "-s", "1",
             "--k", "3", "--x-final", str(xf)),
        ]
        for argv in runs:
            report = report_of(capsys, *argv)
            assert report["command"] == argv[0]

    def test_tolerance_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_CTRB_TOL", "1e-6")
        report = report_of(capsys, "check", *CHECK_1)
        assert report["tolerance"]["rank_rel"] == 1e-6

    def test_tol_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_CTRB_TOL", "1e-6")
        report = report_of(capsys, "check", *CHECK_1, "--tol", "1e-9")
        assert report["tolerance"]["rank_rel"] == 1e-9
        assert report["arguments"]["tol"] == 1e-9

    def test_bad_env_tolerance_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_CTRB_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "check", *CHECK_1)
        assert code == 2
        # inf parses as a float but is no tolerance; the report must not
        # die rendering it
        monkeypatch.setenv("SPARSE_CTRB_TOL", "inf")
        code, _, err = run_cli(capsys, "check", *CHECK_1)
        assert code == 2
        monkeypatch.delenv("SPARSE_CTRB_TOL")
        code, _, err = run_cli(capsys, "check", *CHECK_1, "--tol", "inf")
        assert code == 2

    def test_rational_check_reports_exact(self, capsys):
        report = report_of(capsys, "check", *CHECK_1, "--rational")
        assert report["exact"] is True
        assert report["result"]["verdict"] is True

    def test_rational_oracle_matches_float(self, capsys):
        float_rep = report_of(
            capsys, "oracle", str(FIXTURES / "no-common-support.json"), "-s", "2"
        )
        exact_rep = report_of(
            capsys,
            "oracle",
            str(FIXTURES / "no-common-support.json"),
            "-s",
            "2",
            "--rational",
        )
        assert float_rep["result"]["k_star"] == exact_rep["result"]["k_star"] == 2

    def test_rational_run_converts_each_matrix_once(self, capsys, monkeypatch):
        # The exact span converts D and H when the CLI builds it, once per
        # run; the guard, S* and the bounds take them from the span.
        convert, calls = exact.to_fractions, []
        monkeypatch.setattr(
            exact, "to_fractions", lambda arr: calls.append(arr) or convert(arr)
        )
        path = str(FIXTURES / "no-common-support.json")
        run_cli(capsys, "bounds", path, "--variant", "sparse", "-s", "1", "--rational")
        assert len(calls) == 2

    def test_float_run_computes_the_spectrum_once(self, capsys, monkeypatch):
        # D is the same for the system and every support, so the float span
        # computes its eigenvalues once: the probes of each rank condition,
        # q and g_D all read them.
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a)
        )
        for fixture, command, *flags in (
            ("no-common-support", "bounds", "-s", "1"),
            ("nilpotent-chain", "check", "-s", "1", "--output-mode", "common-support"),
        ):
            calls.clear()
            path = str(FIXTURES / f"{fixture}.json")
            code, _, _ = run_cli(capsys, command, path, *flags)
            assert (code, len(calls)) == (0, 1), fixture

    def test_wide_output_map_warns_once(self, capsys, tmp_path):
        # S* takes columns of the span's H and builds no system per support,
        # so the m >= N warning of the loaded system is reported once.
        path = tmp_path / "wide.json"
        system = {"D": [[0, 1], [0, 0]], "H": [[1, 0], [0, 1]], "A": [[1, 0], [0, 1]]}
        path.write_text(json.dumps(system))
        report = report_of(capsys, "bounds", str(path), "-s", "1", "--variant", "sparse")
        assert len(report["warnings"]) == 1

    @pytest.mark.parametrize(
        "fixture",
        [
            "inequality-blocked",
            "nilpotent-chain",
            "no-common-support",
            "output-blocked",
            "output-reachable",
            pytest.param(
                "standard-form-reference",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="FOUND in CHANGES.md: --rational decides the binary "
                    "doubles of the decimal entries, which are controllable",
                ),
            ),
            "uncontrollable",
        ],
    )
    def test_rational_matches_float(self, capsys, fixture):
        path = str(FIXTURES / f"{fixture}.json")
        system, _ = load_system(path)
        modes = ["state", "common-support"]
        if system.A is not None:
            modes.append("output")
        variants = ["unconstrained", "sparse", "relaxed", "output", "common-support"]
        for s in range(1, system.n_inputs + 1):
            runs = [("check", "--output-mode", mode) for mode in modes]
            runs += [("bounds", "--variant", variant) for variant in variants]
            runs += [("oracle", "--mode", m) for m in modes if m != "common-support"]
            for command, flag, value in runs:
                argv = (command, path, "-s", str(s), flag, value)
                float_code, float_out, _ = run_cli(capsys, *argv)
                exact_code, exact_out, _ = run_cli(capsys, *argv, "--rational")
                assert exact_code == float_code, argv
                if float_code == 0:
                    float_rep, exact_rep = json.loads(float_out), json.loads(exact_out)
                    for rep in (float_rep, exact_rep):
                        rep["result"].pop("screen", None)
                    assert exact_rep["result"] == float_rep["result"], argv
                    if command == "oracle":  # check's float witness has no exact twin
                        assert exact_rep["witnesses"] == float_rep["witnesses"], argv

    def test_steer_report_contents(self, capsys, tmp_path):
        xf = tmp_path / "xf.json"
        xf.write_text("[0.5, -1.0, 2.0]")
        report = report_of(
            capsys,
            "steer",
            str(FIXTURES / "nilpotent-chain.json"),
            "-s",
            "1",
            "--k",
            "3",
            "--x-final",
            str(xf),
        )
        res = report["result"]
        assert res["feasible"] is True
        assert res["residual"] <= 1e-8
        assert len(res["inputs"]) == 3
        assert len(res["trajectory"]) == 4

    def test_steer_output_target(self, capsys, tmp_path):
        yf = tmp_path / "yf.json"
        yf.write_text("[1.0, -2.0]")
        report = report_of(
            capsys,
            "steer",
            str(FIXTURES / "output-reachable.json"),
            "-s",
            "1",
            "--k",
            "2",
            "--x-final",
            str(yf),
            "--output-target",
        )
        assert report["result"]["feasible"] is True

    def test_steer_schedule_reaches_full_rank(self, capsys, tmp_path):
        # A greedy fill from the last step stalls at rank 2 here; the
        # schedule of maximal rank steers to every state at K = 3.
        xf = tmp_path / "xf.json"
        xf.write_text("[1.0, 1.0, 1.0]")
        argv = ["steer", str(FIXTURES / "no-common-support.json"), "-s", "1"]
        report = report_of(capsys, *argv, "--k", "3", "--x-final", str(xf))
        assert report["result"]["feasible"] is True

    def test_steer_wrong_vector_length(self, capsys, tmp_path):
        xf = tmp_path / "xf.json"
        xf.write_text("[1.0, 2.0]")
        code, _, err = run_cli(
            capsys,
            "steer",
            str(FIXTURES / "nilpotent-chain.json"),
            "-s",
            "1",
            "--k",
            "3",
            "--x-final",
            str(xf),
        )
        assert code == 2

    def test_infeasible_steer_reports_false(self, capsys, tmp_path):
        xf = tmp_path / "xf.json"
        xf.write_text("[1.0, 1.0, 1.0]")
        report = report_of(
            capsys,
            "steer",
            str(FIXTURES / "inequality-blocked.json"),
            "-s",
            "1",
            "--k",
            "4",
            "--x-final",
            str(xf),
        )
        assert report["result"]["feasible"] is False
        assert report["result"]["residual"] >= 0.1


def test_console_entry_point_runs():
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "sparse_ctrb.cli", "check", *CHECK_1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verdict"] is True


def test_benchmark_tracer_layers_resolve():
    # The traced benchmark run wraps each LAYERS entry by name and dies on a
    # missing one.  The file is read with ast, so nothing under bench/ is
    # imported or written.
    tracer = FIXTURES.parent / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYERS" for target in node.targets)
    ]
    assert layers
    for module, function, _ in layers:
        owner = importlib.import_module(f"sparse_ctrb.{module}")
        assert callable(getattr(owner, function, None)), f"bench/tracer.py wraps missing {module}.{function}"
