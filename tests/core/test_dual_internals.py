"""White-box tests of the dual solver's internals and robustness knobs."""

import numpy as np
import pytest

from repro.core.dual import DualDecompositionSolver, _branch_share
from repro.core.problem import SlotProblem, UserDemand
from repro.core.reference import exhaustive_reference_solution
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem, make_user


class TestBranchShare:
    def test_closed_form_table1_step3(self):
        # rho = success/lambda - W/slope, inside (0, 1).
        share = _branch_share(np.array([0.8]), 0.05, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == pytest.approx(0.8 / 0.05 - 30.0 / 2.0)

    def test_clipped_to_unit_interval(self):
        share = _branch_share(np.array([0.9]), 1e-9, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == 1.0
        share = _branch_share(np.array([0.1]), 10.0, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == 0.0

    def test_dead_branches_zero(self):
        share = _branch_share(np.array([0.0, 0.8]), 0.01,
                              np.array([30.0, 30.0]), np.array([2.0, 0.0]))
        assert share.tolist() == [0.0, 0.0]

    def test_zero_multiplier_full_slot(self):
        share = _branch_share(np.array([0.5]), 0.0, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == 1.0

    def test_vector_multiplier(self):
        share = _branch_share(np.array([0.8, 0.8]), np.array([0.05, 10.0]),
                              np.array([30.0, 30.0]), np.array([2.0, 2.0]))
        assert share[0] > 0.0
        assert share[1] == 0.0


class TestStepDecay:
    def test_fixed_step_mode_reproducible(self):
        # decay_after above the budget reproduces the paper's fixed step.
        problem = make_problem(3)
        fixed = DualDecompositionSolver(decay_after=10**6, record_trace=True)
        solution = fixed.solve(problem)
        assert solution.converged

    def test_invalid_decay(self):
        with pytest.raises(ConfigurationError):
            DualDecompositionSolver(decay_after=0)

    def test_stall_exit_bounds_iterations(self):
        # A problem engineered to limit-cycle: two identical users, one
        # per branch's sweet spot, repeatedly flip; the stall exit must
        # terminate well before the 20000 budget.
        rng = np.random.default_rng(5)
        solver = DualDecompositionSolver(max_iterations=20000, decay_after=200)
        worst = 0
        for _ in range(20):
            users = [
                make_user(j, w_prev=26 + 8 * rng.random(),
                          success_mbs=0.5 + 0.5 * rng.random(),
                          success_fbs=0.5 + 0.5 * rng.random(),
                          r_mbs=float(rng.random() * 2),
                          r_fbs=float(rng.random() * 1.5))
                for j in range(8)
            ]
            problem = SlotProblem(users=users, expected_channels={1: 2.0})
            solution = solver.solve(problem)
            worst = max(worst, solution.iterations)
            exact = exhaustive_reference_solution(problem)
            assert solution.allocation.objective >= exact.objective - 1e-3
        assert worst < 5000


class TestDegenerateProblems:
    def test_single_user_zero_bandwidth_everywhere(self):
        user = make_user(r_mbs=0.0, r_fbs=0.0)
        problem = SlotProblem(users=[user], expected_channels={1: 2.0})
        solution = DualDecompositionSolver().solve(problem)
        assert solution.allocation.objective == pytest.approx(0.0)

    def test_zero_success_probabilities(self):
        user = make_user(success_mbs=0.0, success_fbs=0.0)
        problem = SlotProblem(users=[user], expected_channels={1: 2.0})
        solution = DualDecompositionSolver().solve(problem)
        assert solution.allocation.objective == pytest.approx(0.0)

    def test_no_licensed_channels(self):
        problem = make_problem(3, g=0.0)
        solution = DualDecompositionSolver().solve(problem)
        # Everyone who gets anything gets it from the MBS.
        assert all(share == 0.0
                   for share in solution.allocation.rho_fbs.values())
        exact = exhaustive_reference_solution(problem)
        assert solution.allocation.objective == pytest.approx(
            exact.objective, abs=1e-7)

    def test_many_identical_users_split_evenly(self):
        users = [make_user(j, w_prev=30.0, success_mbs=0.1, success_fbs=0.9,
                           r_mbs=0.1, r_fbs=1.0) for j in range(5)]
        problem = SlotProblem(users=users, expected_channels={1: 2.0})
        allocation = DualDecompositionSolver().solve(problem).allocation
        shares = [allocation.rho_fbs.get(j, 0.0) for j in range(5)]
        assert all(s == pytest.approx(0.2, abs=1e-6) for s in shares)

    def test_multipliers_reported_per_station(self):
        problem = make_problem(4, n_fbss=2)
        solution = DualDecompositionSolver().solve(problem)
        assert set(solution.multipliers) == {0, 1, 2}
        assert all(value >= 0.0 for value in solution.multipliers.values())
