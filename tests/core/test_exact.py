"""The exact star-structure solver of problem (17) (repro.core.exact).

Contract, on fuzzed multi-FBS instances with up to 12 users (including
degenerate users: zero success probabilities, ``G_i = 0``, exhausted
rate slopes and tiny ``W/R`` ratios):

* the exact objective is never below the capped subgradient reference
  the solver replaced (``DualDecompositionSolver(max_iterations=400)``
  followed by ``flip_polish``);
* it equals the exhaustive optimum on at least 99% of instances;
* ``Q`` never decreases as any ``G_i`` grows -- the premise of the
  greedy's one-channel-per-FBS scan reduction, which must pick exactly
  what the literal Table III scan picks.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core.dual import DualDecompositionSolver, fast_solve, flip_polish
from repro.core.exact import MAX_USERS_PER_FBS, exact_objective, exact_solve
from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import SlotProblem, check_feasible
from repro.core.reference import exhaustive_reference_solution
from repro.net.interference import interference_graph_from_edges
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem, make_user

#: Fuzzed instances per property.
N_INSTANCES = 160


def fuzzed_problem(rng, *, max_users=12, max_fbss=4):
    """A random multi-FBS slot problem with degenerate users mixed in."""
    n_users = int(rng.integers(1, max_users + 1))
    n_fbss = int(rng.integers(1, max_fbss + 1))
    users = []
    for j in range(n_users):
        fields = dict(
            w_prev=26.0 + 8.0 * rng.random(),
            success_mbs=0.3 + 0.7 * rng.random(),
            success_fbs=0.3 + 0.7 * rng.random(),
            r_mbs=float(2.0 * rng.random()),
            r_fbs=float(1.5 * rng.random()))
        kind = rng.random()
        if kind < 0.08:
            fields["success_mbs"] = 0.0
        elif kind < 0.16:
            fields["success_fbs"] = 0.0
        elif kind < 0.22:
            fields["r_mbs"] = fields["r_fbs"] = 0.0  # GOP fully delivered
        elif kind < 0.30:
            fields["w_prev"] = 1e-3 * rng.random() + 1e-6  # tiny W/R
        users.append(make_user(j, fbs_id=int(rng.integers(1, n_fbss + 1)),
                               **fields))
    expected = {i: (0.0 if rng.random() < 0.2 else float(4.0 * rng.random()))
                for i in range(1, n_fbss + 1)}
    return SlotProblem(users=users, expected_channels=expected)


def capped_reference(problem):
    """The capped subgradient solve plus flip polish the solver replaced."""
    solution = DualDecompositionSolver(max_iterations=400).solve(problem)
    return flip_polish(problem, solution.allocation)


class TestOptimality:
    def test_never_below_capped_subgradient(self):
        rng = np.random.default_rng(20261017)
        for _ in range(N_INSTANCES):
            problem = fuzzed_problem(rng)
            allocation = exact_solve(problem)
            check_feasible(problem, allocation)
            assert allocation.objective >= \
                capped_reference(problem).objective - 1e-12

    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(20261018)
        misses = []
        for index in range(N_INSTANCES):
            problem = fuzzed_problem(rng)
            got = exact_solve(problem).objective
            best = exhaustive_reference_solution(problem).objective
            assert got <= best + 1e-9
            if got < best - 1e-9:
                misses.append((index, got, best))
        for index, got, best in misses:
            print(f"miss: instance {index}: exact {got!r} < optimum {best!r}")
        assert len(misses) <= 0.01 * N_INSTANCES

    def test_objective_matches_allocation(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            problem = fuzzed_problem(rng)
            assert exact_objective(problem) == pytest.approx(
                exact_solve(problem).objective, rel=1e-12, abs=1e-12)

    def test_fast_solve_is_the_exact_solver(self):
        problem = make_problem(6, n_fbss=2, seed=3)
        assert fast_solve(problem) == exact_solve(problem)

    def test_single_user_and_all_degenerate(self):
        lone = SlotProblem(users=[make_user(0)], expected_channels={1: 2.0})
        assert exact_solve(lone).objective == pytest.approx(
            exhaustive_reference_solution(lone).objective, abs=1e-12)
        dead = SlotProblem(
            users=[make_user(j, success_mbs=0.0, success_fbs=0.0)
                   for j in range(3)],
            expected_channels={1: 0.0})
        assert exact_solve(dead).objective == 0.0


class TestMonotonicity:
    def test_q_never_decreases_as_g_grows(self):
        rng = np.random.default_rng(77)
        for _ in range(N_INSTANCES // 2):
            problem = fuzzed_problem(rng)
            base = exact_objective(problem)
            for fbs_id, g in problem.expected_channels.items():
                for step in (0.05, 0.4, 1.5):
                    grown = dict(problem.expected_channels)
                    grown[fbs_id] = g + step
                    q = exact_objective(problem.with_expected_channels(grown))
                    assert q >= base - 1e-12 * max(1.0, abs(base))


def chain_problem(rng, users_per_fbs):
    users = [make_user(3 * (fbs_id - 1) + k, fbs_id=fbs_id,
                       w_prev=26.0 + 8.0 * rng.random(),
                       success_mbs=0.4 + 0.6 * rng.random(),
                       success_fbs=0.5 + 0.5 * rng.random(),
                       r_mbs=float(0.3 + 1.5 * rng.random()),
                       r_fbs=float(0.3 + 1.2 * rng.random()))
             for fbs_id in (1, 2, 3) for k in range(users_per_fbs)]
    return SlotProblem(users=users,
                       expected_channels={1: 0.0, 2: 0.0, 3: 0.0})


class TestGreedyScanReduction:
    def test_reduced_scan_equals_exhaustive_scan(self):
        graph = interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
        rng = np.random.default_rng(31)
        for _ in range(12):
            problem = chain_problem(rng, int(rng.integers(1, 4)))
            channels = list(range(int(rng.integers(1, 6))))
            posteriors = {m: float(0.3 + 0.7 * rng.random()) for m in channels}
            reduced = GreedyChannelAllocator(graph).allocate(
                problem, channels, posteriors)
            literal = GreedyChannelAllocator(
                graph, exhaustive_scan=True).allocate(
                    problem, channels, posteriors)
            assert reduced.channel_allocation == literal.channel_allocation
            assert reduced.trace.q_final == literal.trace.q_final
            assert reduced.allocation.objective == literal.allocation.objective


class TestLimits:
    def test_oversized_fbs_names_the_proposed_scheme(self):
        users = [make_user(j) for j in range(MAX_USERS_PER_FBS + 1)]
        problem = SlotProblem(users=users, expected_channels={1: 2.0})
        with pytest.raises(ConfigurationError, match="'proposed'"):
            exact_solve(problem)

    def test_largest_supported_fbs_solves(self):
        rng = np.random.default_rng(12)
        users = [make_user(j, w_prev=26.0 + 8.0 * rng.random(),
                           r_mbs=float(rng.random()), r_fbs=float(rng.random()))
                 for j in range(MAX_USERS_PER_FBS)]
        problem = SlotProblem(users=users, expected_channels={1: 1.5})
        assert exact_solve(problem).objective == pytest.approx(
            exhaustive_reference_solution(problem).objective, abs=1e-9)


class TestSharedTables:
    def test_concurrent_solves_share_tables(self):
        # Every G variant of one user set shares one compiled problem and
        # its subset tables; concurrent solves must not disturb them.
        problem = make_problem(6, n_fbss=3, seed=4)
        variants = [problem.with_expected_channels(
            {i: 0.5 * k + 0.25 * i for i in (1, 2, 3)}) for k in range(4)]
        expected = [exact_objective(v) for v in variants]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(exact_objective, variants * 4))
        assert results == expected * 4


class TestCounters:
    def test_exact_solves_have_their_own_counters(self):
        rng = np.random.default_rng(9)
        problems = [fuzzed_problem(rng) for _ in range(30)]
        obs.reset_metrics()
        obs.enable_metrics(True)
        try:
            for problem in problems:
                exact_solve(problem)
            snapshot = obs.global_registry().snapshot()
        finally:
            obs.enable_metrics(False)
            obs.reset_metrics()
        counters = snapshot["counters"]
        assert counters["repro_exact_solves_total"] == 30
        steps = snapshot["histograms"]["repro_exact_fixed_point_steps"]
        assert steps["count"] == 30
        assert steps["sum"] >= 2 * 30  # one response, one confirmation
        assert 0 <= counters.get("repro_exact_flip_improvements_total", 0) <= 30
        assert not any(key.startswith("repro_solver_") for key in counters)
