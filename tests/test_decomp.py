import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sparse_ctrb import (
    CLASS_SPARSE,
    CLASS_SPARSE_UNCONTROLLABLE,
    CLASS_UNCONTROLLABLE,
    InconclusiveError,
    SystemModel,
    Tolerance,
    sparse_pbh_test,
    standard_form,
    transform_system,
    verify_standard_form,
)
from tests.conftest import (
    _dense_spectral,
    core_split_undecided,
    invertible_matrices,
    small_systems,
)


class TestStandardFormFixture:
    def test_reference_dimensions(self, standard_form_reference):
        dec = standard_form(standard_form_reference, 1)
        assert (dec.R, dec.r, dec.R_s) == (3, 1, 2)
        assert not dec.core_rank_mismatch
        assert dec.classification == (
            CLASS_SPARSE,
            CLASS_SPARSE,
            CLASS_SPARSE_UNCONTROLLABLE,
            CLASS_UNCONTROLLABLE,
        )

    def test_reference_verification(self, standard_form_reference):
        dec = standard_form(standard_form_reference, 1)
        chk = verify_standard_form(standard_form_reference, dec)
        assert chk.ok
        assert chk.similarity_residual <= 1e-8
        assert chk.structure_residual <= 1e-8
        assert chk.nilpotent_residual <= 1e-8
        assert chk.input_free_residual <= 1e-8
        assert chk.subsystem_report.verdict

    def test_transform_convention(self, standard_form_reference):
        dec = standard_form(standard_form_reference, 1)
        assert np.allclose(dec.T, dec.U @ dec.W)
        lhs = np.linalg.solve(dec.T, standard_form_reference.D @ dec.T)
        assert np.allclose(lhs, dec.D_bar, atol=1e-10)
        assert np.allclose(
            np.linalg.solve(dec.T, standard_form_reference.H), dec.H_bar, atol=1e-10
        )

    def test_larger_sparsity_recovers_more_states(self, standard_form_reference):
        assert standard_form(standard_form_reference, 2).R_s == 3
        assert standard_form(standard_form_reference, 3).R_s == 3  # capped at R


class TestStandardFormEdgeCases:
    def test_zero_input(self):
        sys = SystemModel(D=np.diag([1.0, 2.0]), H=np.zeros((2, 1)))
        dec = standard_form(sys, 1)
        assert (dec.R, dec.r, dec.R_s) == (0, 0, 0)
        assert dec.classification == (CLASS_UNCONTROLLABLE,) * 2
        assert verify_standard_form(sys, dec).ok

    def test_invertible_controllable_is_fully_sparse(self):
        sys = SystemModel(
            D=np.array([[1.0, 1.0], [0.0, 2.0]]), H=np.array([[0.0], [1.0]])
        )
        dec = standard_form(sys, 1)
        assert (dec.R, dec.r, dec.R_s) == (2, 2, 2)
        assert dec.classification == (CLASS_SPARSE,) * 2

    def test_defective_zero_eigenvalue_sets_mismatch_flag(self, nilpotent_chain):
        # Nilpotent D: the core rank (0) undercounts rank(D) (2), so the
        # procedure's R_s disagrees with the decisive sparse test; the flag
        # must warn about it.
        dec = standard_form(nilpotent_chain, 1)
        assert dec.core_rank_mismatch
        assert dec.R_s < nilpotent_chain.n_states
        assert sparse_pbh_test(nilpotent_chain, 1).verdict  # decisive test wins

    def test_undecided_core_split_is_inconclusive(self):
        with pytest.raises(InconclusiveError, match="core-nilpotent split failed"):
            standard_form(core_split_undecided(), 1, Tolerance(rank_rel=0.1))

    def test_tampered_result_fails_verification(self, standard_form_reference):
        dec = standard_form(standard_form_reference, 1)
        bad = dataclasses.replace(dec, R=dec.R - 1)
        assert not verify_standard_form(standard_form_reference, bad).ok


class TestTransformSystem:
    def test_identity(self, standard_form_reference):
        t = transform_system(standard_form_reference, np.eye(4))
        assert np.allclose(t.D, standard_form_reference.D)
        assert np.allclose(t.H, standard_form_reference.H)

    def test_singular_rejected(self, standard_form_reference):
        with pytest.raises(ValueError):
            transform_system(standard_form_reference, np.zeros((4, 4)))

    def test_output_map_transforms(self, output_reachable):
        u = np.diag([1.0, 2.0, 4.0])
        t = transform_system(output_reachable, u)
        assert np.allclose(t.A, output_reachable.A @ u)


class TestStandardFormProperties:
    @given(small_systems(), st.data())
    def test_block_structure_and_verification(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        dec = standard_form(sys, s)
        n, big_r = sys.n_states, dec.R
        assert 0 <= dec.r <= dec.R_s <= big_r <= n
        assert dec.R_s == dec.r + min(s, big_r - dec.r)
        assert len(dec.classification) == n
        chk = verify_standard_form(sys, dec)
        assert chk.ok or dec.core_rank_mismatch
        assert chk.similarity_residual <= 1e-8

    @given(small_systems(), st.data())
    def test_classification_matches_decisive_test(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        dec = standard_form(sys, s)
        if dec.core_rank_mismatch:
            return  # documented disagreement case
        fully_sparse = dec.R_s == sys.n_states
        assert fully_sparse == sparse_pbh_test(sys, s).verdict

    @given(small_systems(), st.data())
    def test_invariant_under_similarity(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        u = data.draw(invertible_matrices(sys.n_states))
        assume(np.linalg.cond(u) < 100)
        dec = standard_form(sys, s)
        dec_t = standard_form(transform_system(sys, u), s)
        assert (dec.R, dec.r, dec.R_s) == (dec_t.R, dec_t.r, dec_t.R_s)

    @given(small_systems(), st.data())
    def test_uncontrollable_block_is_input_free(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        dec = standard_form(sys, s)
        big_r = dec.R
        if big_r == sys.n_states:
            return
        # Simulate in the new basis: trailing coordinates never feel inputs.
        rng = np.random.default_rng(3)
        z = rng.standard_normal(sys.n_states)
        free = z[big_r:].copy()
        d22 = dec.D_bar[big_r:, big_r:]
        for _ in range(4):
            z = dec.D_bar @ z + dec.H_bar @ rng.standard_normal(sys.n_inputs)
            free = d22 @ free
            assert np.linalg.norm(z[big_r:] - free) <= 1e-7 * max(
                1.0, np.linalg.norm(free)
            )


class TestStandardFormAtScale:
    def test_dense_spectral_system_is_fully_controllable(self):
        sys = _dense_spectral(0, 32, 4)
        dec = standard_form(sys, 2)
        assert dec.R == 32
        chk = verify_standard_form(sys, dec)
        assert chk.similarity_residual <= 1e-12
        assert chk.structure_residual <= 1e-12
        assert chk.input_free_residual <= 1e-12

    def test_failed_core_split_is_flagged(self):
        # D is invertible, so its core is the whole space; a split that
        # reports less must not verify.
        sys = _dense_spectral(0, 16, 2)
        dec = standard_form(sys, 1)
        chk = verify_standard_form(sys, dec)
        assert not (chk.ok and dec.r != sys.n_states)
