import time
from fractions import Fraction
from unittest import mock

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
from sparse_ctrb import exact
from sparse_ctrb.exact import _ExactSpan, min_poly_degree_exact, to_fractions
from tests.conftest import (
    NEAR_DEFECTIVE,
    NEAR_DEFECTIVE_DATA,
    int_matrix,
    jordan_systems,
    small_systems,
)


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


def _fraction_reduce(pivots, v):
    """The rational elimination that the integer one must match: ``v`` less
    the multiples of the pivot vectors ``(idx, p)`` that clear its entries at
    their pivot indices."""
    for idx, p in pivots:
        if v[idx] != 0:
            f = v[idx] / p[idx]
            v = [a - f * b for a, b in zip(v, p)]
    return v


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.5, -0.25, 1 / 3, 0.1, 3e-20]),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([10**40, 3 * 10**40])),
)


@st.composite
def mixed_blocks(draw):
    """Two or three n x c blocks of integer, binary-float and tiny-Fraction
    entries, with some zero columns."""
    n = draw(st.integers(1, 4))
    blocks = []
    for _ in range(draw(st.integers(2, 3))):
        columns = [
            [0] * n if draw(st.sampled_from([False, False, True]))
            else draw(st.lists(ENTRIES, min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 4)))
        ]
        blocks.append([list(row) for row in zip(*columns)])
    return blocks


def _span_answers(blocks):
    """Everything the callers ask a span: the rank, ``extend``'s dimension
    after each column and its pivot indices, fed one column at a time, and
    ``circuits`` of the columns it did not take over those it took."""
    pivots, dims, inside, outside = (), [], [], []
    for d, block in enumerate(blocks):
        for j in range(len(block[0])):
            pivots, dim = _ExactSpan.extend(pivots, block, (j,))
            (inside if dim > len(inside) else outside).append((d, j))
            dims.append(dim)
    return (
        _ExactSpan.rank(blocks),
        dims,
        [idx for idx, _ in pivots],
        _ExactSpan.circuits(blocks, inside, outside),
    )


class TestIntegerSpan:
    @given(mixed_blocks())
    def test_matches_rational_elimination(self, blocks):
        got = _span_answers([_ExactSpan.matrix(b) for b in blocks])
        with mock.patch.object(exact, "_reduce", _fraction_reduce):
            want = _span_answers([to_fractions(b) for b in blocks])
        assert got == want

    def test_span_holds_ints(self):
        m = _ExactSpan.matrix(np.array([[0.5, 0.25], [1.0, -2.0]]))
        pivots, dim = _ExactSpan.extend((), m, (0, 1))
        assert dim == 2
        assert all(type(x) is int for row in m for x in row)
        assert all(type(x) is int for _, v in pivots for x in v)

    def test_near_defective_min_poly_degree_is_fast(self):
        # N = 24, |D| in the thousands: about 0.1 s on a 2-vCPU host, against
        # 2 s with Fraction elimination.
        (sys,) = [s for s in NEAR_DEFECTIVE if s.n_states == 24]
        started = time.monotonic()
        assert min_poly_degree_exact(sys.D) == 22
        assert time.monotonic() - started < 1


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
