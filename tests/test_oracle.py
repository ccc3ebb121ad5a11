import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparse_ctrb import (
    BudgetExceededError,
    InconclusiveError,
    OracleBudget,
    SupportSchedule,
    SystemModel,
    controllability_matrix,
    decision_horizon,
    exact_min_k,
    kalman_test,
    kalman_type_rank_test,
    kstar_bounds_sparse,
    output_kalman_test,
    output_kalman_type_rank_test,
    partition_schedule,
    rank,
    schedule_submatrix,
    rstar_sequence,
    sparse_pbh_test,
)
from sparse_ctrb import oracle
from sparse_ctrb.ctrb import _FloatSpan
from sparse_ctrb.exact import _ExactSpan, min_k_exact
from sparse_ctrb.linalg import DEFAULT_TOLERANCE
from sparse_ctrb.oracle import (
    _blocked,
    _common_independent,
    _Counter,
    _descending_blocks,
    _first_schedule,
    _ruled_out,
    _supports_of,
    _within_reach,
)
from tests.conftest import (
    _dense_spectral,
    inequality_blocked_output,
    kernel_blocked_output,
    small_systems,
)
from tests.reference_search import _best_schedule

SPANS = [lambda sys: _FloatSpan(sys, DEFAULT_TOLERANCE), _ExactSpan]


class TestSupportSchedule:
    def test_oversize_support_rejected(self):
        with pytest.raises(ValueError):
            SupportSchedule(((0, 1), (0,)), 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SupportSchedule(((-1,),), 1)

    def test_k_counts_steps(self):
        assert SupportSchedule(((0,), (1,)), 1).k == 2

    def test_empty_schedule_allowed(self):
        assert SupportSchedule((), 1).k == 0


class TestPartitionSchedule:
    def test_exact_split(self):
        assert partition_schedule(4, 2).supports == ((0, 1), (2, 3))

    def test_tail_padded(self):
        # |last block| stays s by re-using earlier channels.
        assert partition_schedule(3, 2).supports == ((0, 1), (1, 2))

    def test_single_block(self):
        assert partition_schedule(3, 3).supports == ((0, 1, 2),)

    @given(st.integers(1, 6), st.data())
    def test_covers_all_channels(self, l, data):
        s = data.draw(st.integers(1, l))
        sched = partition_schedule(l, s)
        assert sched.k == -(-l // s)
        covered = set()
        for sup in sched.supports:
            assert len(sup) == s
            covered.update(sup)
        assert covered == set(range(l))


class TestScheduleSubmatrix:
    def test_single_step_selects_columns(self, nilpotent_chain):
        m = schedule_submatrix(nilpotent_chain, SupportSchedule(((0, 1),), 2))
        assert np.array_equal(m, nilpotent_chain.H)

    def test_blocks_use_descending_powers(self, nilpotent_chain):
        d, h = nilpotent_chain.D, nilpotent_chain.H
        sched = SupportSchedule(((0,), (1,)), 1)
        m = schedule_submatrix(nilpotent_chain, sched)
        expected = np.hstack([(d @ h)[:, [0]], h[:, [1]]])
        assert np.allclose(m, expected)

    def test_witness_schedule_has_full_rank(self, nilpotent_chain):
        ok, sched = kalman_type_rank_test(nilpotent_chain, 1, 3)
        assert ok
        assert rank(schedule_submatrix(nilpotent_chain, sched)) == 3

    @given(small_systems(), st.integers(1, 4))
    def test_all_channel_schedule_is_controllability_matrix(self, sys, k):
        l = sys.n_inputs
        sched = SupportSchedule((tuple(range(l)),) * k, l)
        assert np.array_equal(
            schedule_submatrix(sys, sched), controllability_matrix(sys.D, sys.H, k)
        )


class TestKalmanTypeRankTest:
    def test_fixture_minimum_horizon(self, nilpotent_chain):
        assert not kalman_type_rank_test(nilpotent_chain, 1, 2)[0]
        assert kalman_type_rank_test(nilpotent_chain, 1, 3)[0]

    def test_sparse_uncontrollable_fixture_never_passes(self, inequality_blocked):
        for k in range(1, 7):
            ok, sched = kalman_type_rank_test(inequality_blocked, 1, k)
            assert not ok and sched is None

    @given(small_systems(), st.data())
    def test_monotone_in_horizon(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        k = data.draw(st.integers(1, 3))
        ok_k, _ = kalman_type_rank_test(sys, s, k)
        if ok_k:
            assert kalman_type_rank_test(sys, s, k + 1)[0]

    @given(small_systems())
    def test_full_sparsity_at_state_dimension_is_kalman(self, sys):
        ok, _ = kalman_type_rank_test(sys, sys.n_inputs, sys.n_states)
        assert ok == kalman_test(sys)

    @given(small_systems(), st.data())
    def test_witness_verified_by_submatrix_rank(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        k = data.draw(st.integers(1, 4))
        ok, sched = kalman_type_rank_test(sys, s, k)
        if ok:
            assert sched.k == k
            assert all(len(sup) <= s for sup in sched.supports)
            assert rank(schedule_submatrix(sys, sched)) == sys.n_states


class TestExactMinK:
    def test_fixture_minima(self, no_common_support, nilpotent_chain):
        k2, sched2 = exact_min_k(no_common_support, 2)
        assert k2 == 2
        assert rank(schedule_submatrix(no_common_support, sched2)) == 3
        k3, sched3 = exact_min_k(nilpotent_chain, 1)
        assert (k3, sched3.supports) == (3, ((0,), (0,), (0,)))

    def test_identity_inputs_need_one_step(self):
        sys = SystemModel(D=np.diag([1.0, 2.0]), H=np.eye(2))
        assert exact_min_k(sys, 2)[0] == 1

    def test_uncontrollable_returns_none(self, inequality_blocked):
        k, sched = exact_min_k(inequality_blocked, 1)
        assert k is None and sched is None

    def test_fragile_leaf_is_inconclusive(self):
        # At K = 8 the first leaf's running span has rank 16 but its SVD rank
        # falls short; the default search stops there, while the fixed-K test
        # goes on to the next leaf, whose SVD rank is 16.
        sys = _dense_spectral(0, 16, 4)
        with pytest.raises(InconclusiveError, match="ill-posed") as exc:
            exact_min_k(sys, 2)
        assert exc.value.k_reached == 8
        ok, witness = kalman_type_rank_test(sys, 2, 8)
        assert ok
        assert witness.supports == ((0, 1),) * 7 + ((0, 2),)

    def test_budget_exhaustion_raises(self, no_common_support):
        with pytest.raises(BudgetExceededError) as exc:
            exact_min_k(no_common_support, 1, budget=OracleBudget(max_enumerations=2))
        assert exc.value.enumerations is not None

    def test_deadline_is_checked_at_every_k(self, monkeypatch):
        # The third state is unreachable, so every K fails the rank pre-check
        # and neither the kernel nor the witness loop ticks.  A clock that
        # advances one second per reading passes the 2.5 s deadline at K = 3.
        sys = SystemModel(D=np.diag([1.0, -1.0, 0.5]), H=np.array([[1.0], [1.0], [0.0]]))
        clock = itertools.count()
        monkeypatch.setattr(oracle.time, "monotonic", lambda: float(next(clock)))
        budget = OracleBudget(max_k=3000, deadline_s=2.5)
        with pytest.raises(BudgetExceededError, match="exceeded deadline") as exc:
            exact_min_k(sys, 1, budget)
        assert (exc.value.k_reached, exc.value.enumerations) == (3, 0)

    def test_deadline_is_checked_at_every_tick(self, monkeypatch):
        # K = 1..3 fail the capacity pre-check and K = 4 costs one kernel
        # tick.  A clock that advances one second per reading passes the
        # 4.5 s deadline at that tick, before the check at K = 5.
        clock = itertools.count()
        monkeypatch.setattr(oracle.time, "monotonic", lambda: float(next(clock)))
        span, budget = _ExactSpan(kernel_blocked_output()), OracleBudget(deadline_s=4.5)
        with pytest.raises(BudgetExceededError, match="exceeded deadline") as exc:
            oracle._min_k(span, 1, budget, output=True)
        assert (exc.value.k_reached, exc.value.enumerations) == (4, 1)

    @pytest.mark.parametrize("deadline", [math.inf, math.nan, 0.0, -1.0])
    def test_deadline_must_be_positive_and_finite(self, deadline):
        with pytest.raises(ValueError, match="deadline_s"):
            OracleBudget(deadline_s=deadline)

    @given(small_systems(), st.data())
    def test_agrees_with_decision_test(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        k, sched = exact_min_k(sys, s)
        assert (k is not None) == sparse_pbh_test(sys, s).verdict
        if k is not None:
            assert rank(schedule_submatrix(sys, sched)) == sys.n_states
            # Minimality: one step fewer cannot reach full rank.
            if k > 1:
                assert not kalman_type_rank_test(sys, s, k - 1)[0]


class TestRstarSequence:
    def test_fixture_growth(self, nilpotent_chain):
        assert rstar_sequence(nilpotent_chain, 1, 4) == [1, 2, 3, 3]

    def test_deadline_is_checked_at_every_k(self, monkeypatch):
        # The kernel ticks once at K = 1 and at K = 2; from K = 3 on its
        # greedy fill spans the space and it never ticks again.  A clock
        # that advances one second per reading passes the 4.5 s deadline at
        # the check of K = 3, not at a tick.
        sys = SystemModel(D=np.diag([1.0, -1.0, 0.5]), H=[[1, 0], [1, 1], [0, 1]])
        clock = itertools.count()
        monkeypatch.setattr(oracle.time, "monotonic", lambda: float(next(clock)))
        budget = OracleBudget(deadline_s=4.5)
        with pytest.raises(BudgetExceededError, match="exceeded deadline") as exc:
            rstar_sequence(sys, 1, 3000, budget)
        assert (exc.value.k_reached, exc.value.enumerations) == (3, 2)

    def test_blocked_fixture_plateaus_below_dimension(self, inequality_blocked):
        seq = rstar_sequence(inequality_blocked, 1, 5)
        assert max(seq) == 2

    @given(small_systems(), st.data())
    def test_nondecreasing_and_bounded(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        seq = rstar_sequence(sys, s, 4)
        assert len(seq) == 4
        assert all(a <= b for a, b in zip(seq, seq[1:]))
        assert seq[-1] <= sys.n_states
        # First entry is the best single-block rank min(rank H, s) can give.
        assert seq[0] == min(rank(sys.H), s, sys.n_states)


class TestCommonIndependent:
    @pytest.mark.parametrize("span_of", SPANS, ids=["float", "exact"])
    @given(small_systems(max_n=4), st.data())
    def test_kernel_rank_is_search_best_rank(self, span_of, sys, data):
        # r*(K) of matroid intersection (float: the SVD rank of its columns)
        # is the best rank of the depth-first search: it reaches r*, not r*+1.
        # At the first K where r* is N, the kernel-certified prefix loop
        # returns the search's witness.
        s = data.draw(st.integers(1, sys.n_inputs))
        l, n = sys.n_inputs, sys.n_states
        supports = list(itertools.combinations(range(l), s))
        counter = _Counter(OracleBudget(), "test")
        span = span_of(sys)

        def search(blocks, caps, target):
            if not _within_reach(blocks, caps, target, span):
                return None
            return _best_schedule(blocks, caps, supports, target, span, counter)

        def ignore(k, reason):
            pass

        horizon = n * math.ceil(l / s)
        problems = _descending_blocks(span, s, False, horizon)
        first = True
        for k, (blocks, caps) in enumerate(problems, start=1):
            inside, _ = _common_independent(blocks, s, l, span, counter, k)
            assert all(sum(d == depth for d, _ in inside) <= s for depth in range(k))
            r_star = span.leaf_rank(len(inside), blocks, _supports_of(inside, k))
            witness = search(blocks, caps, r_star)
            assert witness is not None
            assert search(blocks, caps, r_star + 1) is None
            if r_star == n and first:
                assert witness == _first_schedule(
                    blocks, caps, s, l, n, span, counter, inside, ignore
                )
                first = False

    @given(small_systems(max_n=4), st.data())
    def test_cut_is_tight_and_certified(self, sys, data):
        # Wherever the exact kernel's set is short of N, the columns its last
        # search does not reach form a cut U with
        # rank(U) + sum over blocks of min(s, L - |U in block|) = |set|,
        # which _blocked certifies against one more than the set's size.
        s = data.draw(st.integers(1, sys.n_inputs))
        l, n = sys.n_inputs, sys.n_states
        span = _ExactSpan(sys)
        counter = _Counter(OracleBudget(), "test")
        problems = _descending_blocks(span, s, False, n * math.ceil(l / s))
        for k, (blocks, _) in enumerate(problems, start=1):
            inside, cut = _common_independent(blocks, s, l, span, counter, k)
            if len(inside) == n:
                continue
            supports = _supports_of(cut, k)
            basis, rank_u = span.empty(blocks[0]), 0
            for block, sup in zip(blocks, supports):
                basis, rank_u = span.extend(basis, block, sup)
            spare = sum(min(s, l - len(sup)) for sup in supports)
            assert rank_u + spare == len(inside)
            dim = sum(1 for x in inside if x in cut)
            assert _blocked(blocks, s, l, len(inside) + 1, span, dim, supports)

    @pytest.mark.parametrize("span_of", SPANS, ids=["float", "exact"])
    @pytest.mark.parametrize("output", [False, True], ids=["state", "output"])
    @given(small_systems(max_n=4, with_output=True), st.integers(1, 3), st.integers(0, 4))
    @example(inequality_blocked_output(), 1, 4)
    def test_inequality_cut_is_sound(self, span_of, output, sys, s, kept):
        # Wherever the paper's inequality rules out a K, the depth-first
        # search finds no schedule reaching the target at that K.  D keeps
        # its first ``kept`` rows, so that rank D is often low enough for
        # the inequality to rule a K out.
        n, l = sys.n_states, sys.n_inputs
        d = np.vstack([sys.D[:kept], np.zeros((max(n - kept, 0), n))])
        sys, s = SystemModel(D=d, H=sys.H, A=sys.A), min(s, l)
        target = sys.n_outputs if output else sys.n_states
        supports = list(itertools.combinations(range(l), s))
        counter = _Counter(OracleBudget(), "test")
        span = span_of(sys)
        problems = _descending_blocks(span, s, output, sys.n_states * math.ceil(l / s))
        for blocks, caps in problems:
            if _ruled_out(blocks, caps, s, l, target, span) == "inequality":
                assert _best_schedule(blocks, caps, supports, target, span, counter) is None

    def test_exact_inequality_cut_reads_rank_of_u(self):
        # From K = 4 on, U (all blocks but H) has output rank 3 = target - s,
        # so the inequality must leave the K to the kernel, although the
        # kernel's set holds only 2 columns of U.
        span = _ExactSpan(kernel_blocked_output())
        counter = _Counter(OracleBudget(), "test")
        problems = _descending_blocks(span, 1, True, 10)
        for k, (blocks, caps) in enumerate(problems, start=1):
            if k < 4:
                continue
            assert span.ranks(blocks) == (3, 4)
            assert _ruled_out(blocks, caps, 1, 2, 4, span) is None
            inside, cut = _common_independent(blocks, 1, 2, span, counter, k)
            assert sum(1 for d, _ in inside if d < k - 1) == 2
            dim = sum(1 for x in inside if x in cut)
            assert _blocked(blocks, 1, 2, 4, span, dim, _supports_of(cut, k))

    @pytest.mark.parametrize("span_of", SPANS, ids=["float", "exact"])
    def test_exchange_beats_greedy_order(self, span_of):
        # Taking independent columns power by power reaches rank 3 at K = 2;
        # rank 4 needs an augmenting path through an exchange.
        sys = SystemModel(
            D=np.array([[1, 0, -2, 0], [0, 0, 0, -1], [0, 0, 0, -2], [-1, 0, 0, 0]], float),
            H=np.array([[0, -1, 0], [0, 0, 0], [2, 0, 0], [0, 0, -2]], float),
        )
        span = span_of(sys)
        blocks, _ = list(_descending_blocks(span, 2, False, 2))[-1]
        counter = _Counter(OracleBudget(), "test")
        inside, _ = _common_independent(blocks, 2, 3, span, counter, 2)
        assert len(inside) == 4
        assert span.leaf_rank(4, blocks, _supports_of(inside, 2)) == 4
        assert exact_min_k(sys, 2)[0] == 2


    @pytest.mark.parametrize("span_of", SPANS, ids=["float", "exact"])
    @pytest.mark.parametrize(
        "d, h",
        [
            ([[0, 0, -2], [-1, 0, 0], [0, -1, 0]], [[-2, -2, 0], [0, 0, 2], [0, 0, 0]]),
            (
                [[-2, -1, 0, 0], [2, -1, 0, 0], [-1, 0, 0, -2], [0, -1, -1, 0]],
                [[0, 0, -2], [0, 0, -1], [0, -1, 1], [-1, 0, -2]],
            ),
        ],
        ids=["n3", "n4"],
    )
    def test_certified_prefixes_give_search_witness(self, span_of, d, h, monkeypatch):
        # At K* = 2 (s = 2) the first support that survives the capacity cut
        # at the first position has no completion, so the first pass ends
        # short and the kernel must certify the prefix of the second.
        sys = SystemModel(D=np.array(d, float), H=np.array(h, float))
        l, n = sys.n_inputs, sys.n_states
        span = span_of(sys)
        blocks, caps = list(_descending_blocks(span, 2, False, 2))[-1]
        counter = _Counter(OracleBudget(), "test")
        inside, _ = _common_independent(blocks, 2, l, span, counter, 2)
        assert len(inside) == n
        certified = []

        def counting(*args):
            certified.append(args[-1])
            return _common_independent(*args)

        monkeypatch.setattr(oracle, "_common_independent", counting)
        witness = _first_schedule(
            blocks, caps, 2, l, n, span, counter, inside,
            lambda k, reason: pytest.fail(reason),
        )
        assert certified
        supports = list(itertools.combinations(range(l), 2))
        assert witness == _best_schedule(blocks, caps, supports, n, span, counter)
        assert exact_min_k(sys, 2)[0] == 2

    @pytest.mark.parametrize("span_of", SPANS, ids=["float", "exact"])
    def test_certified_prefix_without_witness_goes_to_referee(self, span_of):
        # Both blocks span e1, so no schedule reaches rank 2.  Handed a set
        # that claims rank 2 (as a float kernel could), the prefix loop fixes
        # the first position by it and then finds no leaf: it must refer the
        # K as ill-posed, not return a schedule.
        sys = SystemModel(D=np.diag([1.0, 2.0]), H=np.array([[1.0, 0.0], [0.0, 0.0]]))
        span = span_of(sys)
        blocks, caps = list(_descending_blocks(span, 1, False, 2))[-1]
        reasons = []
        witness = _first_schedule(
            blocks, caps, 1, 2, 2, span, _Counter(OracleBudget(), "test"),
            [(0, 0), (1, 0)], lambda k, reason: reasons.append((k, reason)),
        )
        assert witness is None
        assert reasons and reasons[-1][0] == 2
        assert "runs out of supports; ill-posed" in reasons[-1][1]


class TestDecisionHorizon:
    def test_sparse_controllable_uses_upper_bound(self, nilpotent_chain):
        assert decision_horizon(nilpotent_chain, 1) == 3

    def test_fallback_partition_horizon(self):
        sys = SystemModel(D=np.diag([1.0, 2.0]), H=np.array([[0.0], [0.0]]))
        assert decision_horizon(sys, 1) == 2  # N * ceil(L/s)

    def test_partition_schedule_repeated_can_fall_short(self):
        # N repetitions of the partition schedule reach rank 1 here, yet
        # K* = 2: the horizon rests on the steering bound, not on them.
        sys = SystemModel(D=np.array([[0.0, 1.0], [1.0, 0.0]]), H=np.eye(2) * [1, 0])
        repeated = SupportSchedule(partition_schedule(2, 1).supports * 2, 1)
        assert rank(schedule_submatrix(sys, repeated)) == 1
        assert exact_min_k(sys, 1)[0] == 2
        assert decision_horizon(sys, 1) >= 2

    @given(small_systems(), st.data())
    def test_horizon_is_decisive(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        k_max = decision_horizon(sys, s)
        ok, _ = kalman_type_rank_test(sys, s, k_max)
        assert ok == sparse_pbh_test(sys, s).verdict

    @given(small_systems(), st.data())
    def test_sparse_upper_bound_else_partition_horizon(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        if sparse_pbh_test(sys, s).verdict:
            expected = kstar_bounds_sparse(sys, s).upper
        else:
            expected = sys.n_states * math.ceil(sys.n_inputs / s)
        assert decision_horizon(sys, s) == expected


class TestOutputOracle:
    def test_fixture_output_minimum(self, output_reachable):
        ok, sched = output_kalman_type_rank_test(output_reachable, 1, 2)
        assert ok
        a = output_reachable.A
        m = a @ schedule_submatrix(output_reachable, sched)
        assert rank(m) == output_reachable.n_outputs
        assert not output_kalman_type_rank_test(output_reachable, 1, 1)[0]

    def test_unreachable_output_fixture(self, output_blocked):
        for k in range(1, 4):
            assert not output_kalman_type_rank_test(output_blocked, 1, k)[0]

    @given(small_systems(with_output=True), st.data())
    def test_full_sparsity_matches_output_kalman(self, sys, data):
        ok, _ = output_kalman_type_rank_test(
            sys, sys.n_inputs, sys.n_states
        )
        assert ok == output_kalman_test(sys)


def _flat(value):
    """The leaves of a result, dataclasses and tuples opened."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _flat(item)]
    return [value]


def test_numpy_integer_sparsity_gives_int_results(
    no_common_support, output_reachable, nilpotent_chain
):
    # The sparsity guard accepts np.int64(s); every result must then be the
    # one s gives, of the same types, so no witness fails to wrap after the
    # search and no bound comes back as np.int64.  The other integer
    # arguments (K, max_k, L) go through the same guard.
    calls = [
        (lambda s: kalman_type_rank_test(no_common_support, s, 2), 2),
        (lambda s: output_kalman_type_rank_test(output_reachable, s, 2), 1),
        (lambda s: exact_min_k(no_common_support, s), 2),
        (lambda s: kstar_bounds_sparse(no_common_support, s), 2),
        (lambda k: min_k_exact(nilpotent_chain, 1, k), 6),
        (lambda k: exact_min_k(nilpotent_chain, 1, OracleBudget(max_k=k)), 6),
        (lambda s: partition_schedule(2 * s, s), 1),
    ]
    for call, s in calls:
        want = [(type(x), x) for x in _flat(call(s))]
        assert [(type(x), x) for x in _flat(call(np.int64(s)))] == want
