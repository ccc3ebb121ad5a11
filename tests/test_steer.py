import json

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from sparse_ctrb import (
    SupportSchedule,
    SystemModel,
    exact_min_k,
    greedy_support_schedule,
    kalman_type_rank_test,
    rank,
    rollout,
    schedule_submatrix,
    solve_inputs,
    solve_output_inputs,
    sparse_pbh_test,
)
from sparse_ctrb.cli import main
from sparse_ctrb.ctrb import _FloatSpan
from sparse_ctrb.io import save_system
from sparse_ctrb.linalg import DEFAULT_TOLERANCE
from sparse_ctrb.oracle import (
    OracleBudget,
    _common_independent,
    _Counter,
    _descending_blocks,
    _supports_of,
)
from tests.conftest import load_fixture, small_systems


@st.composite
def _systems_s_k(draw):
    sys = draw(small_systems())
    return sys, draw(st.integers(1, sys.n_inputs)), draw(st.integers(1, 4))


def _chain_and_block(p, chain, block):
    """D = P J P^-1, with J a nilpotent chain e_(c-1) -> ... -> e_0 -> 0 of
    length c = ``chain`` followed by the invertible upper-triangular
    ``block``, and H = P [e_(c-1), e_(N-1)]: the top of the chain and the
    last coordinate of the block.  D^p h_0 vanishes for p >= c in exact
    arithmetic and is rounding residue in float."""
    n = chain + len(block)
    j = np.zeros((n, n))
    j[range(chain - 1), range(1, chain)] = 1.0
    j[chain:, chain:] = block
    return SystemModel(D=p @ j @ np.linalg.inv(p), H=p[:, [chain - 1, n - 1]])


RESIDUE_CHAIN = _chain_and_block(
    np.random.default_rng(1).normal(size=(5, 5)), 3, [[2.0, 1.0], [0.0, -1.5]]
)


@st.composite
def _residue_chains(draw):
    chain, size = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    n = chain + size
    p = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, n))
    assume(np.linalg.cond(p) <= 1e3)
    magnitude = st.floats(0.5, 3.0)
    diagonal = [draw(magnitude) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(size)]
    block = np.diag(diagonal)
    if size == 2:  # a nonzero corner keeps e_(N-1) cyclic for the block
        block[0, 1] = draw(magnitude)
    return _chain_and_block(p, chain, block)


class TestResidueColumns:
    # A power column that is rounding residue must not enter the schedule:
    # ranked on the oracle's columns, where it is zero, the schedule reaches
    # rank N at K = N.

    def test_seeded_chain_schedule_has_full_rank(self):
        sched = greedy_support_schedule(RESIDUE_CHAIN, 1, 5)
        assert sched.supports == ((1,), (1,), (0,), (0,), (0,))
        assert rank(schedule_submatrix(RESIDUE_CHAIN, sched)) == 5

    def test_seeded_chain_steers_from_cli(self, capsys, tmp_path):
        system, target = tmp_path / "chain.json", tmp_path / "ones.json"
        save_system(system, RESIDUE_CHAIN, name="residue-chain")
        target.write_text(json.dumps([1.0] * 5))
        argv = ["steer", str(system), "-s", "1", "--k", "5", "--x-final", str(target)]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["feasible"] is True
        assert result["schedule"] == [[1], [1], [0], [0], [0]]

    @given(_residue_chains())
    def test_schedule_is_the_oracle_kernels(self, sys):
        n = sys.n_states
        span = _FloatSpan(sys, DEFAULT_TOLERANCE)
        *_, (blocks, _) = _descending_blocks(span, 1, False, n)
        inside, _ = _common_independent(blocks, 1, span, _Counter(OracleBudget(), "test"))
        sched = greedy_support_schedule(sys, 1, n)
        assert sched.supports == tuple(_supports_of(inside, n))
        assert rank(schedule_submatrix(sys, sched)) == n


class TestGreedySchedule:
    def test_reaches_full_rank_on_chain(self, nilpotent_chain):
        sched = greedy_support_schedule(nilpotent_chain, 1, 3)
        assert sched.k == 3
        assert rank(schedule_submatrix(nilpotent_chain, sched)) == 3

    def test_respects_sparsity(self, no_common_support):
        sched = greedy_support_schedule(no_common_support, 2, 3)
        assert all(len(sup) <= 2 for sup in sched.supports)

    def test_documented_stall_case(self):
        # A greedy fill from the last step picks e_0 there and stalls at rank
        # 1; the schedule ((0,), (1,)) of maximal rank reaches 2.
        sys = SystemModel(D=np.diag([1.0, 0.0]), H=np.eye(2))
        sched = greedy_support_schedule(sys, 1, 2)
        assert rank(schedule_submatrix(sys, sched)) == 2
        ok, witness = kalman_type_rank_test(sys, 1, 2)
        assert ok
        assert rank(schedule_submatrix(sys, witness)) == 2

    def test_zero_horizon(self, nilpotent_chain):
        sched = greedy_support_schedule(nilpotent_chain, 1, 0)
        assert sched.k == 0

    @given(_systems_s_k())
    @example((SystemModel(D=np.diag([1.0, 0.0]), H=np.eye(2)), 1, 2))
    @example((load_fixture("no-common-support"), 1, 3))
    def test_greedy_success_implies_oracle_success(self, case):
        # The schedule has maximal rank: full rank exactly when some K-step
        # schedule has.
        sys, s, k = case
        sched = greedy_support_schedule(sys, s, k)
        full = rank(schedule_submatrix(sys, sched)) == sys.n_states
        assert full == kalman_type_rank_test(sys, s, k)[0]


class TestRollout:
    def test_recurrence(self):
        sys = SystemModel(D=np.diag([1.0, 0.0]), H=np.eye(2))
        x0 = np.array([1.0, 2.0])
        ins = np.array([[3.0, 0.0], [0.0, 5.0]])
        traj = rollout(sys, ins, x0)
        assert traj.shape == (3, 2)
        assert np.allclose(traj[0], x0)
        for i in (1, 2):
            assert np.allclose(traj[i], sys.D @ traj[i - 1] + sys.H @ ins[i - 1])

    def test_no_inputs(self):
        sys = SystemModel(D=2.0 * np.eye(2), H=np.ones((2, 1)))
        traj = rollout(sys, np.zeros((0, 1)), np.array([1.0, 1.0]))
        assert traj.shape == (1, 2)


class TestSolveInputs:
    def test_exact_steering_on_chain(self, nilpotent_chain):
        sched = greedy_support_schedule(nilpotent_chain, 1, 3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x0 = rng.standard_normal(3)
            xf = rng.standard_normal(3)
            plan = solve_inputs(nilpotent_chain, sched, x0, xf)
            assert plan.residual <= 1e-10 * max(1.0, np.linalg.norm(xf))
            assert np.allclose(plan.trajectory[-1], xf, atol=1e-8)

    def test_residual_matches_endpoint_error(self, inequality_blocked):
        sched = greedy_support_schedule(inequality_blocked, 1, 4)
        x0 = np.zeros(3)
        xf = np.array([1.0, 1.0, 1.0])
        plan = solve_inputs(inequality_blocked, sched, x0, xf)
        assert plan.residual == pytest.approx(
            np.linalg.norm(plan.trajectory[-1] - xf)
        )

    def test_blocked_target_stays_blocked(self, inequality_blocked):
        # [1, 1, 1] forces both zero-eigenvalue rows at once; no 1-sparse
        # schedule of any length up to 6 can close the gap.
        for k in range(1, 7):
            sched = greedy_support_schedule(inequality_blocked, 1, k)
            plan = solve_inputs(inequality_blocked, sched, np.zeros(3), np.ones(3))
            assert plan.residual >= 0.1

    def test_drift_only_target_needs_no_input(self, nilpotent_chain):
        sys = nilpotent_chain
        x0 = np.array([1.0, -2.0, 0.5])
        xf = sys.D @ (sys.D @ x0)
        sched = greedy_support_schedule(sys, 1, 2)
        plan = solve_inputs(sys, sched, x0, xf)
        assert plan.residual <= 1e-10
        assert np.linalg.norm(plan.inputs) <= 1e-10

    def test_zero_horizon_plan(self, nilpotent_chain):
        sched = SupportSchedule((), 1)
        x = np.array([1.0, 2.0, 3.0])
        plan = solve_inputs(nilpotent_chain, sched, x, x)
        assert plan.residual == 0.0
        assert plan.inputs.shape == (0, 2)
        assert plan.trajectory.shape == (1, 3)

    def test_inputs_respect_schedule_supports(self, no_common_support):
        ok, sched = kalman_type_rank_test(no_common_support, 2, 2)
        assert ok
        plan = solve_inputs(
            no_common_support, sched, np.zeros(3), np.array([1.0, 2.0, 3.0])
        )
        for i, sup in enumerate(sched.supports):
            off = [j for j in range(no_common_support.n_inputs) if j not in sup]
            assert np.allclose(plan.inputs[i, off], 0.0)
        assert plan.residual <= 1e-10

    @given(small_systems(), st.data())
    def test_plan_is_consistent_with_rollout(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        k = data.draw(st.integers(1, 3))
        sched = greedy_support_schedule(sys, s, k)
        rng = np.random.default_rng(11)
        x0, xf = rng.standard_normal(sys.n_states), rng.standard_normal(sys.n_states)
        plan = solve_inputs(sys, sched, x0, xf)
        traj = rollout(sys, plan.inputs, x0)
        assert np.allclose(traj, plan.trajectory)
        assert plan.residual == pytest.approx(np.linalg.norm(traj[-1] - xf))
        # Sparsity invariant on every step.
        assert all(
            np.count_nonzero(np.abs(row) > 1e-12) <= s for row in plan.inputs
        )

    @given(small_systems(), st.data())
    def test_witness_schedule_steers_exactly(self, sys, data):
        s = data.draw(st.integers(1, sys.n_inputs))
        if not sparse_pbh_test(sys, s).verdict:
            return
        k, sched = exact_min_k(sys, s)
        rng = np.random.default_rng(5)
        x0, xf = rng.standard_normal(sys.n_states), rng.standard_normal(sys.n_states)
        plan = solve_inputs(sys, sched, x0, xf)
        scale = max(1.0, np.linalg.norm(xf), np.linalg.norm(sys.D) ** max(k, 1))
        assert plan.residual <= 1e-7 * scale


class TestSolveOutputInputs:
    def test_output_target_reachable(self, output_reachable):
        ok, sched = kalman_type_rank_test(output_reachable, 1, 2)
        # State-level rank is unreachable at s=1, so use the output witness.
        from sparse_ctrb import output_kalman_type_rank_test

        ok, sched = output_kalman_type_rank_test(output_reachable, 1, 2)
        assert ok
        y = np.array([0.3, -1.7])
        plan = solve_output_inputs(output_reachable, sched, np.zeros(3), y)
        assert plan.residual <= 1e-10
        assert np.allclose(output_reachable.A @ plan.trajectory[-1], y, atol=1e-8)

    def test_drift_only_output(self, output_reachable):
        sys = output_reachable
        x0 = np.array([1.0, 2.0, -1.0])
        y = sys.A @ (sys.D @ (sys.D @ x0))
        from sparse_ctrb import output_kalman_type_rank_test

        _, sched = output_kalman_type_rank_test(sys, 1, 2)
        plan = solve_output_inputs(sys, sched, x0, y)
        assert plan.residual <= 1e-10

    def test_requires_output_map(self, nilpotent_chain):
        sched = greedy_support_schedule(nilpotent_chain, 1, 2)
        with pytest.raises(ValueError):
            solve_output_inputs(
                nilpotent_chain, sched, np.zeros(3), np.array([1.0])
            )
