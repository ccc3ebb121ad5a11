import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sparse_ctrb import (
    DEFAULT_TOLERANCE,
    SystemModel,
    common_support_test,
    eigenvalue_probes,
    input_restriction,
    kalman_test,
    output_kalman_test,
    output_pbh_necessary,
    output_sparse_necessary,
    pbh_test,
    rank,
    sparse_pbh_test,
)
from sparse_ctrb import ctrb
from tests.conftest import (
    NEAR_DEFECTIVE,
    NEAR_DEFECTIVE_DATA,
    int_matrix,
    invertible_matrices,
    small_systems,
)


class TestSystemModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SystemModel(D=np.ones((2, 3)), H=np.ones((2, 1)))
        with pytest.raises(ValueError):
            SystemModel(D=np.eye(2), H=np.ones((3, 1)))
        with pytest.raises(ValueError):
            SystemModel(D=np.eye(2), H=np.ones((2, 1)), A=np.ones((1, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SystemModel(D=np.array([[np.nan, 0], [0, 1.0]]), H=np.ones((2, 1)))
        with pytest.raises(ValueError):
            SystemModel(D=np.eye(2), H=np.array([[np.inf], [0.0]]))

    def test_wide_output_map_warns(self):
        with pytest.warns(UserWarning):
            SystemModel(D=np.eye(2), H=np.ones((2, 1)), A=np.eye(2))

    def test_arrays_read_only(self):
        sys = SystemModel(D=np.eye(2), H=np.ones((2, 1)))
        with pytest.raises(ValueError):
            sys.D[0, 0] = 5.0
        with pytest.raises(ValueError):
            sys.H[0, 0] = 5.0

    def test_dimensions(self):
        sys = SystemModel(D=np.eye(3), H=np.ones((3, 2)), A=np.ones((1, 3)))
        assert (sys.n_states, sys.n_inputs, sys.n_outputs) == (3, 2, 1)


class TestInputRestriction:
    def test_selects_columns(self):
        sys = SystemModel(D=np.eye(3), H=np.array([[1, 0], [0, 1], [1, 1.0]]))
        sub = input_restriction(sys, (1,))
        assert sub.H.tolist() == [[0.0], [1.0], [1.0]]
        assert np.array_equal(sub.D, sys.D)

    def test_rejects_bad_support(self):
        sys = SystemModel(D=np.eye(3), H=np.ones((3, 2)))
        for bad in [(2,), (-1,), ()]:
            with pytest.raises(ValueError):
                input_restriction(sys, bad)


class TestSparsityValidation:
    def test_s_out_of_range(self):
        sys = SystemModel(D=np.eye(3), H=np.ones((3, 2)))
        with pytest.raises(ValueError):
            sparse_pbh_test(sys, 0)
        with pytest.raises(ValueError):
            sparse_pbh_test(sys, 3)


class TestPbhAndKalman:
    def test_controllable_pair(self):
        sys = SystemModel(
            D=np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]]),
            H=np.array([[0.0], [0.0], [1.0]]),
        )
        assert pbh_test(sys).verdict
        assert kalman_test(sys)

    def test_uncontrollable_pair_with_witness(self):
        sys = SystemModel(D=np.diag([1.0, 2.0]), H=np.array([[0.0], [0.0]]))
        rep = pbh_test(sys)
        assert not rep.verdict
        assert rep.witness_lambda is not None
        assert rep.witness_z is not None
        z, lam = np.asarray(rep.witness_z), complex(rep.witness_lambda)
        m = np.hstack([lam * np.eye(2) - sys.D, sys.H])
        scale = 1.0 + np.linalg.norm(sys.D) + np.linalg.norm(sys.H)
        assert np.linalg.norm(np.conj(z) @ m) <= 1e-8 * scale

    def test_sweep_ranks_one_pencil_per_conjugate_pair(self, monkeypatch):
        # Weighted 16-state ring fed at node 0: a full staircase, then a
        # sweep over 16 distinct eigenvalues, 7 conjugate pairs and 2 real.
        n = 16
        d = np.zeros((n, n))
        d[(np.arange(n) + 1) % n, np.arange(n)] = 1.0 + 0.05 * np.sin(np.arange(n))
        sys = SystemModel(D=d, H=np.eye(n)[:, :1])
        assert kalman_test(sys)
        ranked = []

        def counting_rank(m, tol=DEFAULT_TOLERANCE):
            ranked.append(m.shape)
            return rank(m, tol)

        screened = []
        screen = ctrb._full_row_rank_screen

        def counting_screen(m, tol):
            screened.append(m.shape)
            return screen(m, tol)

        monkeypatch.setattr(ctrb, "rank", counting_rank)
        monkeypatch.setattr(ctrb, "_full_row_rank_screen", counting_screen)
        assert pbh_test(sys).verdict
        assert len(ranked) <= 9
        assert len(screened) <= 9

    @given(small_systems())
    def test_pbh_equals_kalman(self, sys):
        assert pbh_test(sys).verdict == kalman_test(sys)

    @given(st.data())
    def test_zero_row_in_eigenbasis_blocks_controllability(self, data):
        # Diagonal system with a zero input row cannot be controllable; the
        # verdict survives a similarity change of coordinates.
        diag = data.draw(
            st.lists(
                st.integers(1, 5), min_size=3, max_size=3, unique=True
            )
        )
        h_rows = data.draw(int_matrix(2, 2, -2, 2))
        h_tilde = np.vstack([h_rows, np.zeros((1, 2))])
        u = data.draw(invertible_matrices(3))
        d = u @ np.diag(np.array(diag, dtype=float)) @ np.linalg.inv(u)
        sys = SystemModel(D=d, H=u @ h_tilde)
        rep = pbh_test(sys)
        assert not rep.verdict
        z, lam = np.asarray(rep.witness_z), complex(rep.witness_lambda)
        m = np.hstack([lam * np.eye(3) - sys.D, sys.H])
        scale = 1.0 + np.linalg.norm(sys.D) + np.linalg.norm(sys.H)
        assert np.linalg.norm(np.conj(z) @ m) <= 1e-6 * scale


class TestSparsePbh:
    def test_fixture_verdicts(self, inequality_blocked, no_common_support, nilpotent_chain):
        assert not sparse_pbh_test(inequality_blocked, 1).verdict
        assert sparse_pbh_test(inequality_blocked, 2).verdict
        assert sparse_pbh_test(no_common_support, 2).verdict
        assert sparse_pbh_test(nilpotent_chain, 1).verdict

    def test_slack_reports_inequality_margin(self, inequality_blocked):
        rep = sparse_pbh_test(inequality_blocked, 1)
        # N=3, rank(D)=1, s=1: slack = s + rank(D) - N = -1.
        assert rep.slack == -1
        assert rep.rank_condition_holds
        assert not rep.inequality_holds

    @given(small_systems())
    def test_full_sparsity_equals_unconstrained(self, sys):
        s = sys.n_inputs
        assert sparse_pbh_test(sys, s).verdict == pbh_test(sys).verdict

    @given(small_systems(max_l=3), st.integers(1, 2))
    def test_monotone_in_sparsity(self, sys, s):
        assume(s < sys.n_inputs)
        if sparse_pbh_test(sys, s).verdict:
            assert sparse_pbh_test(sys, s + 1).verdict

    @given(small_systems(), st.data())
    def test_invariant_under_input_basis_change(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        psi = data.draw(invertible_matrices(sys.n_inputs))
        changed = SystemModel(D=sys.D, H=sys.H @ psi)
        assert (
            sparse_pbh_test(changed, s).verdict == sparse_pbh_test(sys, s).verdict
        )

    @given(small_systems(), st.data())
    def test_invariant_under_similarity(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        u = data.draw(invertible_matrices(sys.n_states))
        assume(np.linalg.cond(u) < 100)
        ui = np.linalg.inv(u)
        changed = SystemModel(D=ui @ sys.D @ u, H=ui @ sys.H)
        assert (
            sparse_pbh_test(changed, s).verdict == sparse_pbh_test(sys, s).verdict
        )


class TestCommonSupport:
    def test_no_common_support_fixture(self, no_common_support):
        verdict, support = common_support_test(no_common_support, 2)
        assert not verdict
        assert support is None

    def test_single_chain_support(self):
        # Lower shift with identity inputs: column 0 alone drives the chain.
        d = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
        sys = SystemModel(D=d, H=np.eye(3))
        verdict, support = common_support_test(sys, 1)
        assert verdict
        assert support == (0,)

    def test_witness_support_is_controllable(self):
        sys = SystemModel(
            D=np.diag([1.0, 2.0, 3.0]),
            H=np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1.0]]),
        )
        verdict, support = common_support_test(sys, 2)
        if verdict:
            assert len(support) <= 2
            assert pbh_test(input_restriction(sys, support)).verdict

    @given(small_systems(), st.data())
    def test_common_support_implies_sparse(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        verdict, support = common_support_test(sys, s)
        if verdict:
            assert len(support) <= s
            assert pbh_test(input_restriction(sys, support)).verdict
            assert sparse_pbh_test(sys, s).verdict


def _with_output(d, h, a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SystemModel(D=d, H=h, A=a)


class TestOutputControllability:
    def test_fixture_output_kalman(self, output_blocked, output_reachable):
        assert not output_kalman_test(output_blocked)
        assert output_kalman_test(output_reachable)

    def test_fixture_necessary_conditions(self, output_blocked, output_reachable):
        assert output_pbh_necessary(output_blocked)
        assert output_sparse_necessary(output_reachable, 1)

    def test_requires_output_map(self, inequality_blocked):
        with pytest.raises(ValueError):
            output_kalman_test(inequality_blocked)

    def test_rank_deficient_output_map_fails(self):
        sys = _with_output(
            np.eye(3), np.eye(3), np.array([[1, 0, 0], [2, 0, 0.0]])
        )
        assert not output_kalman_test(sys)
        assert not output_pbh_necessary(sys)

    @given(small_systems())
    def test_identity_output_map_reduces_to_state_case(self, sys):
        full = _with_output(sys.D, sys.H, np.eye(sys.n_states))
        assert output_kalman_test(full) == kalman_test(sys)

    @given(small_systems(with_output=True))
    def test_output_kalman_stabilizes_at_state_dimension(self, sys):
        # rank(A * ctrb_K) is constant for K >= N.
        from sparse_ctrb import controllability_matrix

        n = sys.n_states
        r_n = rank(sys.A @ controllability_matrix(sys.D, sys.H, n))
        r_2n = rank(sys.A @ controllability_matrix(sys.D, sys.H, 2 * n))
        assert r_n == r_2n
        assert output_kalman_test(sys) == (r_n == sys.n_outputs)

    @given(small_systems(with_output=True), st.data())
    def test_sparse_necessary_implied_by_kalman_with_full_sparsity(
        self, sys, data
    ):
        # With s = L the inequality branch reduces to the output Kalman
        # verdict's necessary part: a controllable system passes.
        if output_kalman_test(sys) and output_pbh_necessary(sys):
            assert output_sparse_necessary(sys, sys.n_inputs)


def _unscreened_sweep(e, f, g, probes, tol):
    """The probe sweep without the Cholesky screen: an SVD rank at every
    probe, the reference ``ctrb._probe_sweep`` must agree with."""
    ranked = set()
    for lam in probes:
        if lam.conjugate() in ranked:
            continue
        ranked.add(lam)
        pencil = np.hstack([lam * e - f, g.astype(complex)])
        if rank(pencil.real if lam.imag == 0 else pencil, tol) < len(e):
            return False, lam, np.conj(np.linalg.svd(pencil)[0][:, -1])
    return True, None, None


def _blocked_system(rng, n, l, complex_pair):
    """Random ``(D, H)`` with ``z^T [lambda*I - D, H] = 0`` by construction:
    ``D = P [[C, 0], [K, X]] P^-1`` and ``H = P [[0], [H_2]]``, so
    ``z^T = (y^T, 0) P^-1`` for a left eigenvector y of C, at lambda = 0.3 or
    at 0.7 +- 0.4i."""
    k = 2 if complex_pair else 1
    d0 = rng.standard_normal((n, n))
    d0[:k, :k] = [[0.7, 0.4], [-0.4, 0.7]] if complex_pair else [[0.3]]
    d0[:k, k:] = 0.0
    h0 = rng.standard_normal((n, l))
    h0[:k] = 0.0
    p = rng.standard_normal((n, n))
    return p @ d0 @ np.linalg.inv(p), p @ h0


class TestFloatSpanExtend:
    """The running span of the float witness loop: Gram-Schmidt, run twice,
    whose dependence threshold leans to independence."""

    extend = staticmethod(ctrb._FloatSpan.extend)
    empty = staticmethod(ctrb._FloatSpan.empty)

    def test_zero_column_is_skipped(self):
        block = np.array([[0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        basis, dim = self.extend(self.empty(block), block, (0, 1))
        assert dim == 1
        assert np.array_equal(basis, [[1.0], [0.0], [0.0]])

    def test_dependence_threshold_is_1e_13_of_the_length(self):
        # Beside e1, a residual of 1e-14 of the column's length is dependent
        # and one of 1e-12 is not, though the SVD rank rule calls it dependent.
        block = np.array([[1.0, 1.0, 1.0], [0.0, 1e-14, 1e-12], [0.0, 0.0, 0.0]])
        _, dim = self.extend(self.empty(block), block, (0, 1))
        assert dim == 1
        basis, dim = self.extend(self.empty(block), block, (0, 2))
        assert dim == 2
        assert rank(block[:, [0, 2]]) == 1
        assert np.allclose(basis[:, 1], [0.0, 1.0, 0.0])

    @given(int_matrix(4, 6, -2, 2))
    def test_accepted_columns_are_orthonormal_and_span_the_block(self, block):
        basis, dim = self.empty(block), 0
        for j in range(block.shape[1]):  # column by column, as the kernel grows it
            basis, dim = self.extend(basis, block, (j,))
        assert basis.shape == (4, dim)
        assert np.allclose(basis.T @ basis, np.eye(dim), atol=1e-12)
        assert np.allclose(basis @ (basis.T @ block), block, atol=1e-10)
        assert dim == rank(block)


class TestProbeScreen:
    """The Cholesky screen of ``ctrb._probe_sweep`` only ever skips an SVD:
    the sweep's verdict, witness eigenvalue and witness z are those of the
    unscreened sweep, and a screened pencil has full SVD rank."""

    tol = DEFAULT_TOLERANCE

    def assert_same_sweep(self, e, f, g, probes):
        got = ctrb._probe_sweep(e, f, g, probes, self.tol)
        want = _unscreened_sweep(e, f, g, probes, self.tol)
        assert got[:2] == want[:2]
        if want[2] is None:
            assert got[2] is None
        else:
            assert np.array_equal(got[2], want[2])
        return want[0]

    def state_sweep(self, d, h):
        n = d.shape[0]
        return self.assert_same_sweep(np.eye(n), d, h, eigenvalue_probes(d))

    def output_sweep(self, d, h, a):
        probes = eigenvalue_probes(d)
        off = complex(1.0 + max(abs(p) for p in probes))
        return self.assert_same_sweep(a, a @ d, a @ h, probes + [off])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pencils_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, l = int(rng.integers(2, 25)), int(rng.integers(1, 5))
        d = rng.standard_normal((n, n)) * rng.choice([1e-3, 1.0, 1e3])
        h = rng.standard_normal((n, l))
        assert self.state_sweep(d, h)
        m = int(rng.integers(1, n))
        assert self.output_sweep(d, h, rng.standard_normal((m, n)))
        if m > 1:  # rank(A) < m: the output pencil drops at every probe
            a = rng.standard_normal((m, n))
            a[-1] = a[0]
            assert not self.output_sweep(d, h, a)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("complex_pair", [False, True])
    def test_rank_deficient_pencils_match_reference(self, seed, complex_pair):
        rng = np.random.default_rng(100 + seed)
        n, l = int(rng.integers(3, 25)), int(rng.integers(1, 5))
        d, h = _blocked_system(rng, n, l, complex_pair)
        assert not self.state_sweep(d, h)
        a = rng.standard_normal((int(rng.integers(1, n)), n))
        self.output_sweep(d, h, a)

    @pytest.mark.parametrize(
        "sys", NEAR_DEFECTIVE, ids=[d["name"] for d in NEAR_DEFECTIVE_DATA]
    )
    def test_near_defective_jordan_systems_match_reference(self, sys):
        assert not self.state_sweep(sys.D, sys.H)

    @pytest.mark.parametrize("shape", [(2, 3), (16, 20), (64, 68)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_screen_is_sound_at_the_rank_threshold(self, shape, dtype):
        # sigma_1 = 1 and sigma_n at a multiple of the rank rule's cut: the
        # screen may pass only pencils the SVD ranks full, and it must pass
        # a well-separated one.
        n, w = shape
        rng = np.random.default_rng(n)
        u = np.linalg.qr(rng.standard_normal((n, n)))[0].astype(dtype)
        v = np.linalg.qr(rng.standard_normal((w, n)))[0].astype(dtype)
        if dtype is complex:
            u = u * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        cut = self.tol.rank_rel * w
        for factor in (0.5, 0.999, 1.001, 2.0, 1e2, 1e4, 1e6):
            sigma = np.geomspace(1.0, min(1.0, factor * cut), n)
            m = (u * sigma) @ v.conj().T
            screened = ctrb._full_row_rank_screen(m, self.tol)
            if screened:
                assert rank(m, self.tol) == n
            if factor <= 1.0:
                assert not screened
        assert ctrb._full_row_rank_screen(u @ v.conj().T, self.tol)

    def test_screen_rejects_deficient_and_unscaled_pencils(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((12, 15))
        assert ctrb._full_row_rank_screen(m, self.tol)
        low = rng.standard_normal((12, 11)) @ rng.standard_normal((11, 15))
        wide = rng.standard_normal((12, 10))
        for bad in (low, wide, np.zeros((12, 15)), np.vstack([m[:-1], m[:1]])):
            assert not ctrb._full_row_rank_screen(bad, self.tol)
        # Underflowing or overflowing Gram products are never screened.
        assert not ctrb._full_row_rank_screen(m * 1e-160, self.tol)
        assert not ctrb._full_row_rank_screen(m * 1e160, self.tol)
        assert rank(m * 1e-160, self.tol) == rank(m * 1e160, self.tol) == 12
