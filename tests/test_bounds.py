import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sparse_ctrb import (
    BOUND_VARIANTS,
    BudgetExceededError,
    SystemModel,
    UncontrollableSystemError,
    common_support_kstar_bounds,
    common_support_test,
    exact_min_k,
    kstar_bounds_relaxed,
    kstar_bounds_sparse,
    kstar_bounds_unconstrained,
    output_kstar_bounds,
    pbh_test,
    rank,
    s_star,
    sparse_pbh_test,
)
from tests.conftest import _dense_spectral, small_systems


class TestSStar:
    def test_fixture_values(self, no_common_support, nilpotent_chain):
        assert s_star(no_common_support) == 3
        assert s_star(nilpotent_chain) == 1

    def test_single_dense_column_suffices(self):
        # A column with no zero entries controls a distinct-diagonal system,
        # so the minimal support size is one.
        h = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        sys = SystemModel(D=np.diag([1.0, 2.0, 3.0]), H=h)
        assert s_star(sys) == 1

    def test_identity_inputs_need_all_channels(self):
        # Each standard-basis column leaves two eigenvalue rows uncovered:
        # every proper sub-support of the identity is uncontrollable here.
        sys = SystemModel(D=np.diag([1.0, 2.0, 3.0]), H=np.eye(3))
        assert s_star(sys) == 3

    def test_undefined_for_uncontrollable(self):
        sys = SystemModel(D=np.diag([1.0, 2.0]), H=np.array([[0.0], [0.0]]))
        with pytest.raises(UncontrollableSystemError, match="S\\* undefined"):
            s_star(sys)

    def test_subset_budget(self, no_common_support):
        with pytest.raises(BudgetExceededError):
            s_star(no_common_support, max_subsets=1)

    @given(small_systems())
    def test_minimality_and_witness(self, sys):
        from sparse_ctrb import input_restriction

        if not pbh_test(sys).verdict:
            return
        g = s_star(sys)
        assert 1 <= g <= sys.n_inputs
        # Some support of size g is controllable; none smaller is.
        from itertools import combinations

        found = any(
            pbh_test(input_restriction(sys, c)).verdict
            for c in combinations(range(sys.n_inputs), g)
        )
        assert found
        if g > 1:
            assert not any(
                pbh_test(input_restriction(sys, c)).verdict
                for c in combinations(range(sys.n_inputs), g - 1)
            )


class TestFixtureBounds:
    def test_sparse_chain_single_channel(self, nilpotent_chain):
        b = kstar_bounds_sparse(nilpotent_chain, 1)
        assert (b.lower, b.upper) == (3, 3)
        assert b.variant == "sparse"
        assert (b.q, b.r_hs_star, b.s_star) == (3, 1, 1)

    def test_unconstrained_chain(self, nilpotent_chain):
        b = kstar_bounds_unconstrained(nilpotent_chain)
        assert (b.lower, b.upper) == (2, 2)
        assert b.s_star is None

    def test_relaxed_chain(self, nilpotent_chain):
        b = kstar_bounds_relaxed(nilpotent_chain, 1)
        assert (b.lower, b.upper) == (3, 3)

    def test_common_support_chain(self, nilpotent_chain):
        assert common_support_test(nilpotent_chain, 1)[0]
        b = common_support_kstar_bounds(nilpotent_chain, 1)
        assert (b.lower, b.upper) == (3, 3)

    def test_output_fixture(self, output_reachable):
        b = output_kstar_bounds(output_reachable, 1)
        assert (b.lower, b.upper) == (2, 2)
        assert b.q == 2

    def test_identity_inputs_single_step(self):
        sys = SystemModel(D=np.diag([1.0, 2.0, 3.0]), H=np.eye(3))
        b = kstar_bounds_unconstrained(sys)
        assert (b.lower, b.upper) == (1, 1)

    def test_variant_labels(self):
        assert BOUND_VARIANTS == (
            "unconstrained",
            "sparse",
            "relaxed",
            "output",
            "common_support",
        )

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_dense_spectral_bounds_are_ordered(self, n):
        # q = N makes the steering bound N * ceil(S*/2) loose, so the upper
        # bound is N - min(rank(H), 2) + 1 = N - 1, above ceil(N / 2).
        b = kstar_bounds_sparse(_dense_spectral(0, n, 4), 2)
        assert b.q == n
        assert b.lower <= b.upper == n - 1

    def test_undefined_when_not_sparse_controllable(self, inequality_blocked):
        with pytest.raises(UncontrollableSystemError, match="K\\* undefined"):
            kstar_bounds_sparse(inequality_blocked, 1)


class TestBoundProperties:
    @given(small_systems(), st.data())
    def test_sandwich_and_range(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        if not sparse_pbh_test(sys, s).verdict:
            return
        b = kstar_bounds_sparse(sys, s)
        assert 1 <= b.lower <= b.upper <= sys.n_states
        k, _ = exact_min_k(sys, s)
        assert b.lower <= k <= b.upper
        r = kstar_bounds_relaxed(sys, s)
        assert r.lower <= k <= r.upper

    @given(small_systems(), st.data())
    def test_nonincreasing_in_sparsity(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        assume(s < sys.n_inputs)
        if not sparse_pbh_test(sys, s).verdict:
            return
        b1 = kstar_bounds_sparse(sys, s)
        b2 = kstar_bounds_sparse(sys, s + 1)
        assert b2.lower <= b1.lower
        assert b2.upper <= b1.upper

    @given(small_systems())
    def test_single_sparsity_pins_bounds_at_dimension(self, sys):
        if not sparse_pbh_test(sys, 1).verdict:
            return
        b = kstar_bounds_sparse(sys, 1)
        assert b.lower == b.upper == sys.n_states

    @given(small_systems(), st.data())
    def test_reduces_to_unconstrained_when_support_is_free(self, sys, data):
        # When a minimal controllable support already has full input rank
        # (S* = rank H) and the sparsity budget covers it, the sparse bounds
        # coincide with the unconstrained ones.
        s = data.draw(st.integers(1, sys.n_inputs))
        if not sparse_pbh_test(sys, s).verdict:
            return
        b = kstar_bounds_sparse(sys, s)
        if s >= b.s_star and b.s_star == rank(sys.H):
            u = kstar_bounds_unconstrained(sys)
            assert (b.lower, b.upper) == (u.lower, u.upper)

    @given(small_systems())
    def test_full_sparsity_common_support_matches_sparse_family(self, sys):
        # With s = L a common support exists iff the system is controllable,
        # and the common-support upper bound stays within the state dimension.
        if not common_support_test(sys, sys.n_inputs)[0]:
            return
        b = common_support_kstar_bounds(sys, sys.n_inputs)
        assert 1 <= b.lower <= b.upper <= sys.n_states

    @given(small_systems(with_output=True), st.data())
    def test_output_bounds_bracket_output_minimum(self, sys, data):
        from sparse_ctrb import output_kalman_type_rank_test

        s = data.draw(st.integers(1, sys.n_inputs))
        from sparse_ctrb import output_kalman_test

        if not output_kalman_test(sys):
            return
        if rank(sys.A @ sys.H) == 0:
            # No step has direct output authority: bounds are undefined.
            with pytest.raises(UncontrollableSystemError):
                output_kstar_bounds(sys, s)
            return
        b = output_kstar_bounds(sys, s)
        assert 1 <= b.lower
        assert b.upper <= sys.n_outputs
        # Scan for the true output minimum up to the bound's upper edge; the
        # upper bound is only valid when sparse output steering succeeds, so
        # check one direction: success at some K <= upper implies lower <= K.
        for k in range(1, b.upper + 1):
            ok, _ = output_kalman_type_rank_test(sys, s, k)
            if ok:
                assert b.lower <= k
                break
