import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_ctrb import (
    DEFAULT_TOLERANCE,
    Tolerance,
    controllability_matrix,
    eigenvalue_probes,
    min_poly_degree,
    rank,
)
from sparse_ctrb.linalg import (
    _clusters,
    core_nilpotent,
    eigenvalues,
    extend_to_basis,
    max_geometric_multiplicity,
)
from tests.conftest import _dense_spectral, int_matrix


class TestRank:
    def test_identity(self):
        assert rank(np.eye(4)) == 4

    def test_zero(self):
        assert rank(np.zeros((3, 5))) == 0

    def test_tall_rank_two(self):
        h = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert rank(h) == 2

    def test_outer_product_rank(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((2, 5))
        assert rank(u @ v) == 2

    def test_near_zero_singular_value_dropped(self):
        assert rank(np.diag([1.0, 1e-14])) == 1

    def test_relative_rule_scales_with_matrix(self):
        # Same shape, scaled by 1e12: rank decision must not change.
        m = np.diag([1.0, 1e-3])
        assert rank(m) == rank(1e12 * m) == 2

    @given(int_matrix(3, 4, -2, 2))
    def test_transpose_invariance(self, m):
        assert rank(m) == rank(m.T)

    def test_empty(self):
        assert rank(np.zeros((3, 0))) == 0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=-1.0)
        with pytest.raises(ValueError):
            Tolerance(eig_cluster=0.0)
        for field in ("rank_rel", "eig_cluster", "residual_abs"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ValueError):
                    Tolerance(**{field: value})


class TestEigenvalues:
    def test_sorted_with_multiplicity(self):
        d = np.diag([1.0, 1.0, 0.0, -1.0])
        vals = eigenvalues(d)
        assert vals.shape == (4,)
        assert np.allclose(sorted(v.real for v in vals), [-1.0, 0.0, 1.0, 1.0])
        order = [(v.real, v.imag) for v in vals]
        assert order == sorted(order)

    def test_probes_of_distinct_diagonal(self):
        probes = eigenvalue_probes(np.diag([1.0, 0.0, -1.0]))
        # All layers cluster to the same three points.
        assert len(probes) == 3
        assert np.allclose(sorted(p.real for p in probes), [-1.0, 0.0, 1.0])
        assert all(abs(p.imag) < 1e-12 for p in probes)

    def test_probes_recover_defective_eigenvalue(self):
        # [[1, 1], [-1, 3]] has a defective double eigenvalue at 2; eigvals
        # splits it by ~1e-8.  Some probe must land essentially on 2.
        d = np.array([[1.0, 1.0], [-1.0, 3.0]])
        probes = eigenvalue_probes(d)
        assert min(abs(p - 2.0) for p in probes) < 1e-7

    @given(int_matrix(3, 3, -2, 2))
    def test_probes_stay_near_spectrum(self, d):
        w = eigenvalues(d)
        scale = max(1.0, float(np.linalg.norm(d, 2)))
        for p in eigenvalue_probes(d):
            assert min(abs(p - lam) for lam in w) <= 5e-3 * scale


def _greedy_clusters(values, radius):
    """The greedy clustering that compares each value with every cluster,
    the reference ``linalg._clusters`` must match bit for bit."""
    clusters = []  # [sum, count]
    for v in values:
        for c in clusters:
            if abs(v - c[0] / c[1]) <= radius:
                c[0] += v
                c[1] += 1
                break
        else:
            clusters.append([v, 1])
    return [(c[0] / c[1], c[1]) for c in clusters]


@st.composite
def ladder_spectra(draw):
    """``(values, radius)``: a spectrum sorted as ``eigenvalues`` sorts it,
    and a radius of the probe ladder.  Values sit near a few centres on a
    lattice of the radius, at offsets just under, at and just over it, so
    clusters tie and chain; complex ones come in conjugate pairs, and 0 and
    the radius itself lie exactly the radius apart."""
    step = draw(st.sampled_from((1e-8, 1e-6, 1e-4, 1e-3)))
    radius = step * draw(st.sampled_from((1.0, 3.0, 128.0))) if step > 1e-8 else step
    origin = draw(st.sampled_from((0.0, 0.3, -5.0, 100.0)))
    near = st.sampled_from((0.0, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 1.5, 2.0))
    sign = st.sampled_from((-1.0, 1.0))
    values = [0.0, radius]
    for _ in range(draw(st.integers(1, 5))):
        centre = complex(draw(st.integers(-6, 6)), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(1, 5))):
            offset = complex(draw(sign) * draw(near), draw(sign) * draw(near))
            values.append(origin + radius * (centre + offset))
    values = np.array(values + [v.conjugate() for v in values if v.imag], complex)
    return values[np.lexsort((values.imag, values.real))], radius


def _bits(clusters):
    return [(float(m.real).hex(), float(m.imag).hex(), size) for m, size in clusters]


class TestClusters:
    @settings(max_examples=300)
    @given(ladder_spectra())
    def test_matches_the_scan_over_every_cluster(self, spectrum):
        values, radius = spectrum
        assert _bits(_clusters(values, radius)) == _bits(_greedy_clusters(values, radius))

    def test_value_exactly_the_radius_from_a_mean_joins_it(self):
        values = np.array([0.0, 1e-4, 2e-4 + 1e-12], complex)
        assert [size for _, size in _clusters(values, 1e-4)] == [2, 1]
        assert _bits(_clusters(values, 1e-4)) == _bits(_greedy_clusters(values, 1e-4))


class TestMinPolyDegree:
    def test_identity_is_one(self):
        assert min_poly_degree(np.eye(5)) == 1

    def test_zero_is_one(self):
        assert min_poly_degree(np.zeros((4, 4))) == 1

    def test_nilpotent_shift(self):
        d = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]])
        assert min_poly_degree(d) == 3

    def test_distinct_diagonal(self):
        assert min_poly_degree(np.diag([1.0, 0.0, -1.0])) == 3

    def test_semisimple_repeated(self):
        assert min_poly_degree(np.diag([2.0, 2.0, 1.0])) == 2

    def test_scale_invariant(self):
        d = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]])
        assert min_poly_degree(1e9 * d) == 3
        assert min_poly_degree(1e-9 * d) == 3

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_distinct_spectrum_at_scale(self, n):
        # A dense, non-normal D with N distinct eigenvalues: q = N.
        assert min_poly_degree(_dense_spectral(0, n, 4).D) == n

    def test_nullity_above_cluster_size_adds_the_size(self):
        # |D| is about 2e4 against eigenvalue gaps of 1, so the nullities of
        # (D - mean I)^k take in neighbouring eigenvalues and pass the size of
        # a cluster; counting the steps alone would give q = 15.
        d = _similar_jordan([(-3, 5), (-2, 5), (2, 4), (-1, 1), (3, 1)], 287)
        assert min_poly_degree(d) == 16

    @given(int_matrix(3, 3, -1, 1))
    def test_degree_marks_first_dependent_power(self, d):
        q = min_poly_degree(d)
        assert 1 <= q <= 3
        vecs = np.column_stack(
            [np.linalg.matrix_power(d, j).ravel() for j in range(q + 1)]
        )
        # Powers 0..q-1 independent, power q dependent on them.
        assert rank(vecs) == q


def _similar_jordan(blocks, seed):
    """``P J P^-1`` for Jordan blocks (eigenvalue, size), with P a product of
    random unit triangular integer factors, so |D| grows into the thousands."""
    rng = np.random.default_rng(seed)
    n = sum(size for _, size in blocks)
    j = np.zeros((n, n))
    row = 0
    for lam, size in blocks:
        j[row : row + size, row : row + size] = lam * np.eye(size) + np.eye(size, k=1)
        row += size
    lower = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n)
    upper = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n)
    inverse = np.rint(np.linalg.inv(upper)) @ np.rint(np.linalg.inv(lower))
    return lower @ upper @ j @ inverse


class TestMaxGeometricMultiplicity:
    def test_identity(self):
        assert max_geometric_multiplicity(np.eye(3)) == 3

    def test_jordan_block(self):
        d = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]])
        assert max_geometric_multiplicity(d) == 1

    def test_distinct(self):
        assert max_geometric_multiplicity(np.diag([1.0, 2.0, 3.0])) == 1

    def test_semisimple_repeated(self):
        assert max_geometric_multiplicity(np.diag([2.0, 2.0, 1.0])) == 2


class TestControllabilityMatrix:
    def test_block_layout(self):
        d = np.array([[1.0, 1.0], [0.0, 1.0]])
        h = np.array([[1.0], [1.0]])
        c = controllability_matrix(d, h, 3)
        # Highest power first: [D^2 H, D H, H].
        expected = np.hstack([d @ d @ h, d @ h, h])
        assert np.array_equal(c, expected)

    def test_k_one_is_h(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(controllability_matrix(np.eye(2), h, 1), h)

    @given(int_matrix(3, 3, -1, 1), int_matrix(3, 2, -1, 1))
    def test_rank_monotone_then_stable(self, d, h):
        q = min_poly_degree(d)
        ranks = [rank(controllability_matrix(d, h, k)) for k in range(1, 7)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        # Rank is constant once K reaches the minimal polynomial degree.
        assert len(set(ranks[q - 1 :])) == 1


class TestExtendToBasis:
    def test_full_rank_input(self):
        u = extend_to_basis(np.eye(3))
        assert u.shape == (3, 3)
        assert rank(u) == 3

    def test_single_column(self):
        u = extend_to_basis(np.array([[3.0], [0.0], [0.0]]))
        assert rank(u) == 3
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12  # unit vector along e_0

    @given(int_matrix(4, 2, -2, 2))
    def test_leading_columns_span_input(self, m):
        r = rank(m)
        u = extend_to_basis(m)
        assert u.shape == (4, 4)
        assert rank(u) == 4
        lead = u[:, :r] if r else np.zeros((4, 0))
        proj = lead @ np.linalg.lstsq(lead, m, rcond=None)[0] if r else np.zeros_like(m)
        assert np.linalg.norm(proj - m) <= 1e-9 * max(1.0, np.linalg.norm(m))


class TestCoreNilpotent:
    def test_invertible_matrix_has_full_core(self):
        cn = core_nilpotent(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert cn.r == 2
        assert cn.matrix_rank == 2
        assert not cn.mismatch

    def test_nilpotent_matrix_has_empty_core(self):
        cn = core_nilpotent(np.array([[0, 1], [0, 0.0]]))
        assert cn.r == 0
        assert cn.matrix_rank == 1
        assert cn.mismatch  # zero eigenvalue is defective

    def test_mixed_diagonal(self):
        cn = core_nilpotent(np.diag([0.2, 0.0, 0.0]))
        assert cn.r == 1
        assert not cn.mismatch

    @given(int_matrix(3, 3, -1, 1))
    def test_similarity_splits_into_core_and_nilpotent(self, d):
        cn = core_nilpotent(d)
        r = cn.r
        b = np.linalg.solve(cn.v, d @ cn.v)
        scale = max(1.0, np.linalg.norm(d))
        # Off-diagonal coupling blocks vanish.
        assert np.linalg.norm(b[:r, r:]) <= 1e-8 * scale
        assert np.linalg.norm(b[r:, :r]) <= 1e-8 * scale
        core, nil = b[:r, :r], b[r:, r:]
        if r:
            assert rank(core) == r
        k = nil.shape[0]
        if k:
            assert np.linalg.norm(np.linalg.matrix_power(nil, k)) <= 1e-8 * scale


def test_default_tolerance_values():
    assert DEFAULT_TOLERANCE.rank_rel == 1e-10
    assert DEFAULT_TOLERANCE.eig_cluster == 1e-8
    assert DEFAULT_TOLERANCE.residual_abs == 1e-8
