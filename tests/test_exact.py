import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparse_ctrb import (
    BudgetExceededError,
    SystemModel,
    common_support_test,
    decision_horizon,
    exact_min_k,
    kalman_test,
    min_k_exact,
    min_poly_degree,
    output_kalman_exact,
    output_kalman_test,
    output_kalman_type_rank_test,
    pbh_test,
    rank,
    rank_exact,
    s_star,
    s_star_exact,
    sparse_controllable_exact,
    sparse_pbh_test,
    controllable_exact,
    common_support_exact,
)
from sparse_ctrb.exact import min_poly_degree_exact, to_fractions
from tests.conftest import int_matrix, jordan_systems, small_systems

with open(
    pathlib.Path(__file__).parent / "data" / "near-defective-jordan.json",
    encoding="utf-8",
) as fh:
    NEAR_DEFECTIVE_DATA = json.load(fh)
NEAR_DEFECTIVE = [
    SystemModel(D=np.array(d["D"], float), H=np.array(d["H"], float))
    for d in NEAR_DEFECTIVE_DATA
]


def _assert_witness(sys, rep):
    """``witness_z`` is a unit left null vector of ``[lambda*I - D, H]``."""
    n = sys.n_states
    pencil = np.hstack([rep.witness_lambda * np.eye(n) - sys.D, sys.H])
    scale = max(1.0, float(np.linalg.norm(pencil, 2)))
    assert np.linalg.norm(rep.witness_z @ pencil) <= 1e-8 * scale
    assert np.linalg.norm(rep.witness_z) == pytest.approx(1.0)


class TestRankExact:
    def test_identity(self):
        assert rank_exact(np.eye(3)) == 3

    def test_dependent_rows(self):
        assert rank_exact(np.array([[2.0, 1.0], [4.0, 2.0]])) == 1

    def test_huge_scale_difference(self):
        # A float rank at default tolerance would drop the tiny pivot; exact
        # arithmetic keeps it.
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 10**40)]]
        assert rank_exact(m) == 2

    @given(int_matrix(3, 4, -3, 3))
    def test_matches_float_rank_on_integers(self, m):
        assert rank_exact(m) == rank(m)

    def test_float_input_is_decided_exactly(self):
        # 1/3 - (1/3) * 1 rounds to 0 in floating point; the binary values
        # themselves are independent.
        m = np.array([[3.0, 1.0], [1.0, 1 / 3]])
        assert rank_exact(to_fractions(m)) == 2
        assert rank_exact(m) == 2

    def test_to_fractions_is_exact(self):
        arr = to_fractions(np.array([[0.5, 0.25], [1.0, -2.0]]))
        assert arr[0][0] == Fraction(1, 2)
        assert arr[0][1] == Fraction(1, 4)
        assert arr[1][1] == Fraction(-2)


class TestExactDecisions:
    @given(small_systems())
    def test_controllable_matches_float(self, sys):
        assert controllable_exact(sys) == kalman_test(sys)

    @given(jordan_systems())
    def test_rank_condition_matches_exact_on_jordan_systems(self, sys):
        # Defective eigenvalues are computed with error ~eps^(1/k); the float
        # rank condition must still agree with exact Kalman rank, and its
        # witness must be a left null vector of [lambda*I - D, H].
        rep = pbh_test(sys)
        assert rep.verdict == controllable_exact(sys)
        if not rep.verdict:
            _assert_witness(sys, rep)

    @pytest.mark.parametrize(
        "sys", NEAR_DEFECTIVE, ids=[d["name"] for d in NEAR_DEFECTIVE_DATA]
    )
    def test_rank_condition_on_near_defective_jordan_systems(self, sys):
        # Uncontrollable integer P J P^-1 systems (N = 20 and 24, |D| in the
        # thousands) on which the staircase alone finds R = N: a step's
        # coupling rounds to far above its cut.  The eigenvalue probe sweep
        # that confirms a full staircase must catch them.
        assert not controllable_exact(sys)
        rep = pbh_test(sys)
        assert not rep.verdict
        _assert_witness(sys, rep)

    @given(small_systems(), st.data())
    def test_sparse_matches_float(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        verdict, rank_ok, slack = sparse_controllable_exact(sys, s)
        rep = sparse_pbh_test(sys, s)
        assert verdict == rep.verdict
        assert rank_ok == rep.rank_condition_holds
        assert slack == rep.slack

    @given(small_systems(), st.data())
    def test_common_support_matches_float(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        exact_verdict, exact_support = common_support_exact(sys, s)
        float_verdict, float_support = common_support_test(sys, s)
        assert exact_verdict == float_verdict
        assert exact_support == float_support

    @given(int_matrix(3, 3, -2, 2))
    def test_min_poly_degree_matches_float(self, d):
        assert min_poly_degree_exact(d) == min_poly_degree(d)

    @given(jordan_systems(max_n=8))
    def test_min_poly_degree_never_below_exact(self, sys):
        # Rounding may overcount an eigenvalue's index, never undercount it.
        assert min_poly_degree(sys.D) >= min_poly_degree_exact(sys.D)

    @given(small_systems())
    def test_s_star_matches_float(self, sys):
        if not controllable_exact(sys):
            return
        assert s_star_exact(sys) == s_star(sys)

    @given(small_systems(with_output=True))
    def test_output_kalman_matches_float(self, sys):
        assert output_kalman_exact(sys) == output_kalman_test(sys)


class TestMinKExact:
    def test_fixture_minimum(self, no_common_support):
        k, supports = min_k_exact(no_common_support, 2, max_k=6)
        assert k == 2
        assert supports == ((0, 1), (0, 2))

    def test_uncontrollable_returns_none(self, inequality_blocked):
        assert min_k_exact(inequality_blocked, 1, max_k=6) == (None, None)

    def test_budget_raises(self, no_common_support):
        with pytest.raises(BudgetExceededError):
            min_k_exact(no_common_support, 1, max_k=9, max_enumerations=2)

    @given(small_systems(), st.data())
    def test_matches_float_oracle(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        horizon = decision_horizon(sys, s)
        k_exact, _ = min_k_exact(sys, s, max_k=horizon)
        k_float, _ = exact_min_k(sys, s)
        assert k_exact == k_float

    @given(small_systems(with_output=True), st.data())
    def test_output_matches_float_oracle(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        max_k = sys.n_states * sys.n_inputs
        k_exact, _ = min_k_exact(sys, s, max_k=max_k, output=True)
        k_float = next(
            (
                k
                for k in range(1, max_k + 1)
                if output_kalman_type_rank_test(sys, s, k)[0]
            ),
            None,
        )
        assert k_exact == k_float

    def test_output_mode_fixture(self, output_reachable):
        k, supports = min_k_exact(output_reachable, 1, max_k=4, output=True)
        assert k == 2
        assert all(len(sup) <= 1 for sup in supports)
