import itertools
import json
import math
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
from sparse_ctrb import ctrb, exact, oracle
from sparse_ctrb.bounds import _kstar_bounds
from sparse_ctrb.cli import main
from sparse_ctrb.ctrb import _products
from sparse_ctrb.exact import _ExactSpan, _integers, min_poly_degree_exact, to_fractions
from sparse_ctrb.io import save_system
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

    @pytest.mark.parametrize("scalars", [False, True], ids=["int64-array", "numpy-scalars"])
    def test_to_fractions_holds_python_ints(self, scalars):
        # Fraction keeps a numpy integer as its numerator, and numpy integer
        # arithmetic wraps: 2**62 * 4 would be 0.
        arr = np.array([[2**62, -3], [7, 0]], dtype=np.int64)
        if scalars:
            arr = [list(row) + [np.float32(0.5)] for row in arr]
        got = to_fractions(arr)
        assert got[0][0] * 4 == 2**64
        assert [[int(x) for x in row[:2]] for row in got] == [[2**62, -3], [7, 0]]
        assert all(
            type(x.numerator) is int and type(x.denominator) is int
            for row in got
            for x in row
        )


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
        got = _span_answers([_integers(b) for b in blocks])
        with mock.patch.object(exact, "_reduce", _fraction_reduce):
            want = _span_answers([to_fractions(b) for b in blocks])
        assert got == want

    @given(
        st.integers(1, 5).flatmap(lambda n: st.lists(
            st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**300), 2**300)),
                     min_size=n, max_size=n),
            min_size=1, max_size=n + 1,
        ))
    )
    def test_reduce_matches_content_at_every_step(self, columns):
        # Dividing the content out after the last step only (or after a step
        # whose multipliers reach 2^256) gives the vector that dividing it
        # out after every step gives, bit for bit.
        def every_step(pivots, v):
            for idx, p in pivots:
                if v[idx] != 0:
                    v = exact._primitive([p[idx] * x - v[idx] * y for x, y in zip(v, p)])
            return v

        pivots, reference = [], []
        for v in columns:
            got, want = exact._reduce(pivots, v), every_step(reference, v)
            assert got == want
            idx = next((i for i, x in enumerate(got) if x != 0), None)
            if idx is not None:
                pivots.append((idx, got))
                reference.append((idx, want))

    def test_span_holds_ints(self):
        m = _integers(np.array([[0.5, 0.25], [1.0, -2.0]]))
        pivots, dim = _ExactSpan.extend((), m, (0, 1))
        assert dim == 2
        assert all(type(x) is int for row in m for x in row)
        assert all(type(x) is int for _, v in pivots for x in v)

    def test_near_defective_min_poly_degree_is_fast(self):
        # N = 24, |D| in the thousands: about 3 ms on a 2-vCPU host by the
        # modular pass, against 0.1 s by the integer elimination and 2 s
        # with Fraction elimination.
        (sys,) = [s for s in NEAR_DEFECTIVE if s.n_states == 24]
        started = time.monotonic()
        assert min_poly_degree_exact(sys.D) == 22
        assert time.monotonic() - started < 1


@st.composite
def krylov_systems(draw):
    """Small integer systems for the Krylov eliminations: D dense or
    nilpotent (strictly upper triangular, its states permuted), and H with
    zero, repeated and dependent columns."""
    n = draw(st.integers(1, 5))
    d = draw(int_matrix(n, n, -2, 2))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        d = np.triu(d, 1)[np.ix_(order, order)]
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kinds = ["new", "zero"] + ["repeat", "sum"] * bool(columns)
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            column = draw(int_matrix(n, 1, -1, 1))[:, 0]
        elif kind == "zero":
            column = np.zeros(n)
        else:
            i, j = (draw(st.integers(0, len(columns) - 1)) for _ in range(2))
            scale = draw(st.sampled_from([-2, 2]))
            column = scale * columns[i] if kind == "repeat" else columns[i] + columns[j]
        columns.append(column)
    return SystemModel(D=d, H=np.column_stack(columns))


def _reference_rank(columns):
    """Rank of the columns by the rational elimination ``_fraction_reduce``."""
    pivots = []
    for v in columns:
        v = _fraction_reduce(pivots, [Fraction(x) for x in v])
        idx = next((i for i, x in enumerate(v) if x != 0), None)
        if idx is not None:
            pivots.append((idx, v))
    return len(pivots)


def _block_columns(blocks):
    return [column for block in blocks for column in zip(*block)]


class TestKrylovEliminations:
    """``_ExactSpan.holds`` and ``ranks`` against the rational reference, and
    the work they skip: no product of a channel whose column closed, and no
    block of the walk's list eliminated twice."""

    @given(krylov_systems())
    def test_holds_is_kalman_rank_n(self, sys):
        span, n, l = _ExactSpan(sys), sys.n_states, sys.n_inputs
        d, h = to_fractions(sys.D), to_fractions(sys.H)
        subsets = (itertools.combinations(range(l), k) for k in range(1, l + 1))
        for support in [None, *itertools.chain.from_iterable(subsets)]:
            krylov = []
            for j in range(l) if support is None else support:
                column = [row[j] for row in h]
                for _ in range(n):
                    krylov.append(column)
                    column = [sum(a * b for a, b in zip(row, column)) for row in d]
            assert span.holds(support) == (_reference_rank(krylov) == n)

    @given(krylov_systems(), st.data())
    def test_ranks_match_reference_whatever_list_comes(self, sys, data):
        span, n, l = _ExactSpan(sys), sys.n_states, sys.n_inputs

        def check(blocks):
            want = (
                _reference_rank(_block_columns(blocks[:-1])),
                _reference_rank(_block_columns(blocks)),
            )
            assert span.ranks(blocks) == want

        # The walk's list, grown at the front, asked at some K only.
        blocks = []
        for block in itertools.islice(_products(span), 2 * n + 2):
            blocks.insert(0, block)
            if data.draw(st.booleans()):
                check(blocks)
        # Fewer of the same blocks; the list with its lowest block but one
        # replaced; new blocks equal to the fewer; the walk's list again.
        shorter = blocks[data.draw(st.integers(0, len(blocks) - 1)):]
        check(shorter)
        zero = tuple((0,) * l for _ in range(n))
        check([*blocks[:-2], zero, blocks[-1]])
        check([tuple(tuple(row) for row in block) for block in shorter])
        check(blocks)

    @given(krylov_systems(), st.data())
    def test_state_flag_matches_reference_on_state_lists(self, sys, data):
        # The walk's state list, asked at some K with the flag and at some
        # without it (which restarts the running span): the same ranks as a
        # from-scratch elimination, and with the flag no more reductions.
        span, n = _ExactSpan(sys), sys.n_states
        blocks = []
        for block in itertools.islice(_products(span), 2 * n + 2):
            blocks.insert(0, block)
            state = data.draw(st.sampled_from([True, True, False, None]))
            if state is None:
                continue
            want = (
                _reference_rank(_block_columns(blocks[:-1])),
                _reference_rank(_block_columns(blocks)),
            )
            assert span.ranks(blocks, state) == want
            with mock.patch.object(exact, "_reduce", _counting_reduce) as counted:
                counted.calls = 0
                flagged = _ExactSpan(sys).ranks(blocks, True), counted.calls
                counted.calls = 0
                full = _ExactSpan(sys).ranks(blocks), counted.calls
            assert flagged[0] == full[0] == want
            assert flagged[1] <= full[1]

    def test_output_list_keeps_a_closed_channel(self, monkeypatch):
        # D shifts e_0 -> e_1 -> e_2 -> 0 and A reads e_0 and e_2, so A D h
        # is zero (closed) while A D^2 h = e_1 grows: an output list must
        # reduce every column, and the walk does not flag it as a state list.
        d = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
        a = np.array([[1, 0, 0], [0, 0, 1.0]])
        sys = SystemModel(D=d, H=np.array([[1.0], [0.0], [0.0]]), A=a)
        span = _ExactSpan(sys)
        blocks = list(itertools.islice(_products(span, True), 3))[::-1]
        assert blocks[1] == ((0,), (0,)) and blocks[0] == ((0,), (1,))
        calls = _count_calls(monkeypatch, "_reduce")
        assert span.ranks(blocks) == (1, 2)
        assert [0, 1] in [list(v) for _, v in calls]
        assert min_k_exact(sys, 1, max_k=6, output=True) == (3, ((0,),) * 3)

    def test_holds_drops_a_closed_channel(self, monkeypatch):
        # D h_0 = 2 h_0 closes channel 0 at power 1, so D^2 h_0 = 4 e_1 is
        # never formed or reduced; channel 1 alone goes on to rank 4.
        h = [[1, 1], [0, 1], [0, 1], [0, 1]]
        sys = SystemModel(D=np.diag([2.0, 3.0, 5.0, 7.0]), H=h)
        calls = _count_calls(monkeypatch, "_reduce")
        assert _ExactSpan(sys).holds()
        assert [list(v) for _, v in calls] == [
            [1, 0, 0, 0], [1, 1, 1, 1], [2, 0, 0, 0], [2, 3, 5, 7], [4, 9, 25, 49]
        ]

    def test_walk_precheck_eliminates_each_block_once(self, monkeypatch):
        # Exactly uncontrollable (e_6 is never reached), so every K is ruled
        # out by the rank of all blocks and the walk closes at K = N + 1;
        # the span never fills, so no elimination stops early.  Each K past
        # the first asked (K = 3, the first whose capacities reach N) adds
        # its new block to the running span and ranks H on top of it, where
        # eliminating every block again would take K·L columns.  The state
        # list's closed channels are skipped: h_1 = e_0 + e_1 closes at
        # D^3 h_1 (K = 4), and h_0 at D^4 h_0 (K = 5), so K = 4 reduces 2 + L
        # columns, K = 5 reduces 1 + L, and every later K reduces H alone.
        n, l = 6, 2
        h = np.zeros((n, l))
        h[:5, 0] = h[:2, 1] = 1
        sys = SystemModel(D=np.diag(np.arange(1.0, n + 1)), H=h)
        calls = _count_calls(monkeypatch, "_reduce")
        asked, real = [], oracle._ruled_out

        def ruled_out(blocks, *args):
            before = len(calls)
            got = real(blocks, *args)
            asked.append((len(blocks), got, len(calls) - before))
            return got

        monkeypatch.setattr(oracle, "_ruled_out", ruled_out)
        assert min_k_exact(sys, 2, max_k=20) == (None, None)
        assert asked == [(k, "capacity", 0) for k in (1, 2)] + [
            (3, "rank", 3 * l), (4, "rank", 2 + l), (5, "rank", 1 + l)
        ] + [(k, "rank", l) for k in range(6, n + 2)]


def _counting_reduce(pivots, v):
    _counting_reduce.calls += 1
    return _REDUCE(pivots, v)


_REDUCE = exact._reduce


def _python_product(m, block):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*block)] for row in m]


@st.composite
def int64_products(draw):
    """An integer matrix and a block whose product sits below, at or just
    past the int64 bound row-abs-sum(m) * max|block| < 2^62; a zero matrix
    with blocks up to and past int64 itself."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=draw(st.integers(1, 3)), max_size=3))
    if draw(st.booleans()):
        m[0][0] = draw(st.sampled_from([1, -1])) * 2**draw(st.integers(0, 40))
    else:
        m = [[0] * n for _ in m]
    growth = max(1, max(sum(map(abs, row)) for row in m))
    edge = -(-exact._INT64_SAFE // growth)  # the least max|block| past the bound
    size = draw(st.sampled_from(
        [1, edge - 1, edge, edge + 1, 2 * edge, 2**40, 2**63, 2**119]
    ))
    block = draw(st.lists(st.lists(st.integers(-size, size), min_size=c, max_size=c),
                          min_size=n, max_size=n))
    block[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from([size, -size]))
    return m, block


class TestInt64Products:
    @given(int64_products())
    def test_int64_matches_python_ints(self, case):
        m, block = case
        got = exact._product(m, exact._int64(m), block)
        assert [list(row) for row in got] == _python_product(m, block)
        assert all(type(x) is int for row in got for x in row)

    @pytest.mark.parametrize("size, python", [
        (2**31 - 1, False), (2**31, True), (2**32, True)
    ], ids=["below", "at", "past"])
    def test_bound_picks_the_arithmetic(self, monkeypatch, size, python):
        # Row-abs-sum 2^31: the product fits in int64 below the bound, and
        # past it (2^63) it would wrap.
        m, block = [[2**31, 0], [0, 1]], [[size], [size]]
        calls = _count_calls(monkeypatch, "_matmul")
        got = exact._product(m, exact._int64(m), block)
        assert got == ((2**31 * size,), (size,))
        assert bool(calls) is python

    @pytest.mark.parametrize("h", [[[1e20], [0.0]], [[1e-20], [1.0]]],
                             ids=["huge", "tiny"])
    def test_zero_d_with_h_past_int64(self, capsys, tmp_path, h):
        # D = 0 has row-abs-sum 0, and H's integers (1e20, or 1e-20 and 1
        # scaled by the lcm to about 2^119) do not fit in int64: the
        # products go through Python ints, and --rational decides.
        sys = SystemModel(D=np.zeros((2, 2)), H=np.array(h))
        assert not _ExactSpan(sys).holds()
        assert sparse_controllable_exact(sys, 1) == (False, False, -1)
        path = tmp_path / "zero-d.json"
        save_system(path, sys, name="zero-d")
        assert main(["check", str(path), "-s", "1", "--rational"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["rank_condition_holds"] is False

    def test_span_products_are_python_int_tuples(self):
        # D D h has entries of 2^64, past int64: the walk's products, the
        # output list's and holds's all still agree with Python ints.
        d = np.array([[2.0**32, 0], [1, 3]])
        sys = SystemModel(D=d, H=np.array([[1.0], [1.0]]), A=np.array([[1.0, 1.0]]))
        span = _ExactSpan(sys)
        blocks = list(itertools.islice(_products(span), 4))
        want = [[[1], [1]]]
        for _ in range(3):
            want.append(_python_product(span.d, want[-1]))
        assert [[list(row) for row in b] for b in blocks] == want
        outputs = list(itertools.islice(_products(span, True), 4))
        assert [[list(row) for row in b] for b in outputs] == [
            _python_product(span.a, b) for b in want
        ]
        assert all(type(x) is int for b in blocks + outputs for row in b for x in row)
        assert span.holds() == controllable_exact(sys)


RATIONALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-(2**80), 2**80),
    st.fractions(),
)


def _matrices(entries):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3
        )
    )


def _lcm_scaled(arr):
    """The reference: ``to_fractions(arr)`` times the lcm of its
    denominators."""
    rows = to_fractions(arr)
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(
        tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows
    )


class TestIntegers:
    @given(_matrices(RATIONALS))
    def test_mixed_rows_match_fractions(self, rows):
        got = _integers(rows)
        assert got == _lcm_scaled(rows)
        assert all(type(x) is int for row in got for x in row)

    @given(_matrices(st.floats(allow_nan=False, allow_infinity=False)))
    def test_float_arrays_match_fractions(self, rows):
        arr = np.array(rows, dtype=float)
        assert _integers(arr) == _lcm_scaled(arr)

    @given(_matrices(st.integers(-(2**62), 2**62)), st.booleans())
    def test_numpy_integers_match_fractions(self, rows, scalars):
        # An int64 array, or a list of numpy integer scalars, which have no
        # ``as_integer_ratio``.
        arr = np.array(rows, dtype=np.int64)
        if scalars:
            arr = [list(row) for row in arr]
        got = _integers(arr)
        assert got == _lcm_scaled(arr)
        assert all(type(x) is int for row in got for x in row)

    @pytest.mark.parametrize("value, fast", [
        (3.0, True), (0.5, False), (-0.0, True), (2.0**53 - 1, True),
        (2.0**53, False), (-(2.0**53), False), (2.0**60, False), (1e300, False),
        (5e-324, False), (2.2250738585072014e-308, False),
    ])
    def test_integral_float_arrays_skip_the_ratios(self, monkeypatch, value, fast):
        # Integral entries below 2^53 go straight through int64; any other
        # value takes the ratios and the lcm.  Both give the same rows.
        arr = np.array([[value, 1.0], [-2.0, -value]])
        calls = _count_calls(monkeypatch, "_ratios")
        got = _integers(arr)
        assert bool(calls) is not fast
        assert got == _lcm_scaled(arr)
        assert all(type(x) is int for row in got for x in row)

    @given(_matrices(st.one_of(
        st.integers(-(2**54), 2**54).map(float),
        st.sampled_from([-0.0, 2.0**53, 2.0**60, 1e300, 0.5, 5e-324]),
    )))
    def test_integral_float_arrays_match_fractions(self, rows):
        arr = np.array(rows, dtype=float)
        assert _integers(arr) == _lcm_scaled(arr)

    def test_non_finite_raises_as_fraction_does(self):
        for bad, error in (
            (float("inf"), OverflowError),
            (float("-inf"), OverflowError),
            (float("nan"), ValueError),
        ):
            with pytest.raises(error):
                _integers(np.array([[1.0, bad]]))


def _count_calls(monkeypatch, name):
    """A list that grows by one at each call of ``exact.<name>``."""
    calls, real = [], getattr(exact, name)
    monkeypatch.setattr(exact, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _sparse_integer(seed, n, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < density)).astype(float)


class TestCertifiedDegree:
    """q from the Krylov pass modulo a prime (``exact._certified_degree``)
    against the integer elimination it falls back to."""

    @given(
        st.one_of(
            st.integers(1, 6).flatmap(lambda n: int_matrix(n, n, -3, 3)),
            jordan_systems(max_n=12).map(lambda s: s.D),
        )
    )
    def test_matches_elimination(self, d):
        d = _integers(d)
        with mock.patch.object(exact, "_certified_degree", lambda *args: None):
            eliminated = exact._min_poly_degree(d)
        assert exact._certified_degree(d) == eliminated

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.integers(0, exact._PRIME - 1), st.just(exact._PRIME - 1)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=2 * n,
                max_size=2 * n,
            )
        )
    )
    def test_mulmod_matches_integer_product(self, rows):
        n = len(rows) // 2
        a, b = rows[:n], rows[n:]
        want = [
            [sum(a[i][t] * b[t][j] for t in range(n)) % exact._PRIME for j in range(n)]
            for i in range(n)
        ]
        got = exact._mulmod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        assert got.tolist() == want

    def test_relation_declines_a_sum_past_int64(self):
        # 2^32 * 2^32 wraps to 0 in int64: a false identity without the bound
        powers = [
            np.eye(2, dtype=np.int64),
            2**32 * np.eye(2, dtype=np.int64),
            np.zeros((2, 2), dtype=np.int64),
        ]
        coefficients = np.array([0, 2**32], dtype=np.int64)
        assert not exact._is_relation(powers, [1, 2**32, 0], coefficients)
        assert exact._is_relation(powers[:2], [1, 2**32], np.array([-(2**32)]))

    @pytest.mark.parametrize(
        "d, q",
        [
            (NEAR_DEFECTIVE[0].D, 16),
            (NEAR_DEFECTIVE[1].D, 22),
            (_sparse_integer(3, 32), 31),
            # D^k leaves int64 at this size: powers mod p only, and
            # Cayley-Hamilton in place of the identity
            (_sparse_integer(5, 48), 48),
            # q = N needs no identity, so neither the overflow bound nor the
            # lift past p/2 (constant term 3e9) stops these
            (np.array([[2.0**35, 1], [0, 3]]), 2),
            (np.diag([50000.0, 60000.0]), 2),
        ],
        ids=[
            "near-defective-20",
            "near-defective-24",
            "sparse-32",
            "sparse-48",
            "beyond-int64-full",
            "past-half-prime-full",
        ],
    )
    def test_certified_without_elimination(self, monkeypatch, d, q):
        calls = _count_calls(monkeypatch, "_reduce")
        assert min_poly_degree_exact(d) == q
        assert not calls

    def test_exact_bounds_at_n48_are_fast(self):
        # Relaxed bounds of a sparse +-2 system with N = 48 and q = N: about
        # 0.1 s on a 2-vCPU host, against 8 s when the elimination decided q.
        d = _sparse_integer(5, 48)
        h = np.random.default_rng(5).integers(-2, 3, (48, 3)).astype(float)
        started = time.monotonic()
        got = _kstar_bounds(_ExactSpan(SystemModel(D=d, H=h)), "relaxed", 1)
        assert (got.lower, got.upper, got.q) == (48, 48, 48)
        assert time.monotonic() - started < 2

    def test_start_vector_missing_a_factor_is_not_certified(self, monkeypatch):
        # With v = e_0, an eigenvector of D = diag(1, 2, 3), D v depends on v:
        # the relation D - I found there does not hold for D, so the pass
        # certifies nothing, and the elimination finds q = 3.
        monkeypatch.setattr(exact, "_start", lambda n: np.eye(n, dtype=np.int64)[0])
        d = ((1, 0, 0), (0, 2, 0), (0, 0, 3))
        assert exact._certified_degree(d) is None
        assert exact._min_poly_degree(d) == 3

    @pytest.mark.parametrize(
        "d",
        [
            # D^2 would pass 2^62: no exact identity for q = 2 < N
            [[2**35, 1, 0], [0, 3, 0], [0, 0, 3]],
            # the constant term 3e9 of (x - 50000)(x - 60000) exceeds p/2, so
            # the lifted relation is not an identity
            [[50000, 0, 0], [0, 60000, 0], [0, 0, 60000]],
        ],
        ids=["beyond-int64", "past-half-prime"],
    )
    def test_falls_back_to_elimination(self, monkeypatch, d):
        calls = _count_calls(monkeypatch, "_reduce")
        assert exact._certified_degree(d) is None
        assert not calls
        assert min_poly_degree_exact(np.array(d, dtype=float)) == 2
        assert calls


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

    @given(small_systems(max_n=5, max_l=4), st.data())
    def test_sparse_bounds_s_star_is_the_full_search(self, sys, data):
        # The exact sparse bounds start the S* search at ceil(N / q): the
        # supports they skip are never controllable, so S* is the one the
        # search from a single channel finds.
        s = data.draw(st.integers(1, sys.n_inputs))
        span = _ExactSpan(sys)
        if not sparse_controllable_exact(sys, s)[0]:
            return
        support, _ = ctrb._first_controllable_support(span, range(1, sys.n_inputs + 1))
        assert _kstar_bounds(span, "sparse", s).s_star == len(support)

    def test_sparse_bounds_skip_supports_below_n_over_q(self, monkeypatch):
        # D = diag(1, 1, 2): q = 2 < N = 3, so no single channel controls it,
        # and the exact S* search starts at the pairs, of which (0, 1) passes.
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        sys = SystemModel(D=np.diag([1.0, 1.0, 2.0]), H=h)
        calls, holds = [], _ExactSpan.holds

        def counting(self, support=None):
            calls.append(support)
            return holds(self, support)

        monkeypatch.setattr(_ExactSpan, "holds", counting)
        got = _kstar_bounds(_ExactSpan(sys), "sparse", 2)
        assert (got.q, got.s_star) == (2, 2)
        assert calls == [None, (0, 1)]


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
