"""The distributed dual-decomposition algorithm (Tables I and II).

Problem (12) (single FBS) and problem (17) (multiple non-interfering
FBSs) are solved by Lagrangian dual decomposition: relax the slot-simplex
constraints with multipliers ``lambda = [lambda_0, lambda_1..lambda_N]``
(one per base station), let every CR user solve its own subproblem (14) in
closed form using only local information, and let the MBS update the
multipliers with a projected subgradient step (eqs. (16), (18)-(19)):

    lambda_i(tau+1) = [lambda_i(tau) - s * (1 - sum_j rho*_{i,j}(tau))]^+

The iteration stops when ``sum_i (lambda_i(tau+1) - lambda_i(tau))^2`` is
below the prescribed threshold ``phi`` (Tables I/II, step 11).

Per-user subproblem (Table I, steps 3-8).  For given multipliers the
stationary point of ``L_j`` in each branch is closed-form water-filling:

    rho0_j = [ sP0_j / lambda_0 - W_j / R0_j ]^+
    rhoi_j = [ sPi_j / lambda_i - W_j / (G_i R1_j) ]^+

and the user picks the branch (MBS vs FBS) whose Lagrangian term is
larger; by Theorem 1 the optimal choice is binary.

Two solvers are provided:

* :class:`DualDecompositionSolver` -- the faithful subgradient iteration,
  including the multiplier trace plotted in Fig. 4(a).  The ``proposed``
  scheme runs it.
* :func:`fast_solve` -- the exact star-structure solve of
  :mod:`repro.core.exact` (only ``lambda_0`` dualised, per-FBS subset
  tables, a fixed point on ``lambda_0``).  The ``proposed-fast`` scheme,
  the greedy channel allocation's ``Q(c)`` evaluations (Table III) and
  the eq. (23) relaxation bound use it; it is checked against the
  exhaustive oracle in the test suite.

:func:`flip_polish` -- exact single-flip local search from any binary
assignment -- finishes a capped subgradient run; the test suite uses it
to build the capped-solve reference the exact solver must never fall
below.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.accel import acceleration_enabled
from repro.core.exact import exact_solve
from repro.core.problem import Allocation, SlotProblem
from repro.core.reference import compile_slot_problem, solve_given_assignment
from repro.obs.metrics import ITERATION_BUCKETS, global_registry, metrics_enabled
from repro.obs.trace import active_tracer
from repro.utils.errors import ConfigurationError, ConvergenceError

#: Multipliers below this are treated as zero when inverting (avoids
#: division warnings; the resulting share is clipped to 1 anyway).
_LAMBDA_EPS = 1e-300

#: Limit-cycle detection: past ``decay_after``, recover the primal every
#: this many iterations and stop after this many stagnant recoveries.
_STALL_CHECK_EVERY = 100
_STALL_PATIENCE = 3


@dataclass
class DualSolution:
    """Result of a dual-decomposition solve.

    Attributes
    ----------
    allocation:
        The recovered primal allocation (feasible by construction).
    multipliers:
        Final dual variables, ``{0: lambda_0, fbs_id: lambda_i, ...}``.
    iterations:
        Subgradient steps performed.
    converged:
        Whether the stopping rule fired before the iteration budget.
    trace:
        Optional per-iteration multiplier history (iterations x stations),
        recorded when ``record_trace=True``; this is the data behind
        Fig. 4(a).
    trace_stations:
        Column labels of ``trace`` (station ids: 0 for the MBS).
    """

    allocation: Allocation
    multipliers: Dict[int, float]
    iterations: int
    converged: bool
    trace: Optional[np.ndarray] = None
    trace_stations: Optional[List[int]] = None


class DualDecompositionSolver:
    """Projected-subgradient dual solver (Tables I and II).

    Parameters
    ----------
    step_size:
        Relative step ``s`` -- scaled by the problem's natural multiplier
        magnitude so one configuration works across bandwidth scales.
    threshold:
        Relative stopping threshold ``phi``; the iteration stops when the
        squared multiplier movement falls below ``(threshold * scale)^2``.
    max_iterations:
        Iteration budget.
    decay_after:
        Iteration after which the step size decays as ``1/tau`` (a
        standard diminishing-step schedule).  The paper uses a fixed
        "sufficiently small" step; a fixed step can limit-cycle when user
        branch choices flip persistently, so after ``decay_after``
        fixed-step iterations the schedule starts shrinking, which
        guarantees the Table I stopping rule eventually fires.  Set it
        above ``max_iterations`` to reproduce the paper's fixed step
        exactly.
    strict:
        When ``True``, raise :class:`ConvergenceError` if the budget is
        exhausted; otherwise return the best iterate found.
    record_trace:
        Keep the full multiplier history (Fig. 4(a)).
    """

    def __init__(self, *, step_size: float = 0.02, threshold: float = 1e-5,
                 max_iterations: int = 5000, decay_after: int = 400,
                 strict: bool = False, record_trace: bool = False) -> None:
        if step_size <= 0:
            raise ConfigurationError(f"step_size must be positive, got {step_size}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        if max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be positive, got {max_iterations}")
        if decay_after <= 0:
            raise ConfigurationError(
                f"decay_after must be positive, got {decay_after}")
        self.step_size = float(step_size)
        self.threshold = float(threshold)
        self.max_iterations = int(max_iterations)
        self.decay_after = int(decay_after)
        self.strict = bool(strict)
        self.record_trace = bool(record_trace)

    def solve(self, problem: SlotProblem,
              initial_multipliers: Optional[Dict[int, float]] = None) -> DualSolution:
        """Run the distributed algorithm on one slot problem.

        Parameters
        ----------
        problem:
            The slot problem (single- or multi-FBS).
        initial_multipliers:
            Warm-start values ``{station_id: lambda}``; stations not listed
            start from the automatic scale estimate.
        """
        # Observability: one global read each; both gates are None/False
        # on the hot path with telemetry off.
        tracer = active_tracer()
        if tracer is not None and not tracer.collect_phases:
            tracer = None
        solve_start = time.perf_counter() if tracer is not None else 0.0

        stations = [0] + problem.fbs_ids
        station_pos = {station: pos for pos, station in enumerate(stations)}

        # Vectorise the user data once.
        users = list(problem.users)
        n = len(users)
        w = np.array([u.w_prev for u in users])
        s_mbs = np.array([u.success_mbs for u in users])
        s_fbs = np.array([u.success_fbs for u in users])
        r_mbs = np.array([u.r_mbs for u in users])
        r_fbs_eff = np.array([problem.g_for_user(u) * u.r_fbs for u in users])
        fbs_pos = np.array([station_pos[u.fbs_id] for u in users])

        # Natural multiplier scale: marginal utility of the first unit of
        # share, averaged over users/branches.  Problem (12) is invariant
        # to a common rescaling of (W, R), which rescales lambda by the
        # inverse; anchoring step and threshold to this scale makes the
        # solver configuration dimensionless.
        marginals = np.concatenate([s_mbs * r_mbs / w, s_fbs * r_fbs_eff / w])
        positive = marginals[marginals > 0]
        scale = float(positive.mean()) if positive.size else 1.0
        step = self.step_size * scale
        stop_sq = (self.threshold * scale) ** 2

        lam = np.full(len(stations), scale)
        if initial_multipliers:
            for station, value in initial_multipliers.items():
                if station in station_pos:
                    lam[station_pos[station]] = max(0.0, float(value))

        trace = [lam.copy()] if self.record_trace else None
        converged = False
        iterations = 0
        movement = float("inf")
        best_recovered = None
        stagnant_checks = 0
        choose_mbs = np.zeros(n, dtype=bool)
        rho0 = np.zeros(n)
        rho1 = np.zeros(n)

        # Accelerated kernel (DESIGN §10): the per-iteration work of
        # _branch_share is dominated by recomputing loop invariants (the
        # live masks and W/slope costs) and re-entering np.errstate.
        # Hoist them and inline the share computation; the arithmetic is
        # operation-for-operation the same, so the iterates -- and hence
        # the solution -- are bit-identical to the oracle path.
        accel = acceleration_enabled()
        if accel:
            live0 = (r_mbs > 0) & (s_mbs > 0)
            live1 = (r_fbs_eff > 0) & (s_fbs > 0)
            dead0 = ~live0
            dead1 = ~live1
            with np.errstate(over="ignore"):
                cost0 = w / np.where(live0, r_mbs, 1.0)
                cost1 = w / np.where(live1, r_fbs_eff, 1.0)

        with np.errstate(over="ignore") if accel else nullcontext():
            for iterations in range(1, self.max_iterations + 1):
                lam0 = lam[0]
                lam_user = lam[fbs_pos]
                # Table I step 3: closed-form stationary shares, clipped to
                # the per-user range [0, 1] (no user can exceed the slot).
                if accel:
                    safe_lam0 = lam0 if lam0 > _LAMBDA_EPS else _LAMBDA_EPS
                    rho0 = s_mbs / safe_lam0 - cost0
                    np.maximum(rho0, 0.0, out=rho0)
                    np.minimum(rho0, 1.0, out=rho0)
                    rho0[dead0] = 0.0
                    safe_lam1 = np.where(lam_user > _LAMBDA_EPS, lam_user,
                                         _LAMBDA_EPS)
                    rho1 = s_fbs / safe_lam1 - cost1
                    np.maximum(rho1, 0.0, out=rho1)
                    np.minimum(rho1, 1.0, out=rho1)
                    rho1[dead1] = 0.0
                else:
                    rho0 = _branch_share(s_mbs, lam0, w, r_mbs)
                    rho1 = _branch_share(s_fbs, lam_user, w, r_fbs_eff)
                # Table I step 4: pick the branch with the larger Lagrangian
                # term.  Utilities are expected log-PSNR gains (see
                # repro.core.problem for the eq. (11) vs eq. (12) discussion).
                util0 = s_mbs * np.log1p(rho0 * r_mbs / w) - lam0 * rho0
                util1 = s_fbs * np.log1p(rho1 * r_fbs_eff / w) - lam_user * rho1
                choose_mbs = util0 > util1

                # Steps 9 / eqs. (16),(18),(19): projected subgradient update
                # using only the shares of users that selected each station.
                usage = np.zeros(len(stations))
                usage[0] = rho0[choose_mbs].sum()
                np.add.at(usage, fbs_pos[~choose_mbs], rho1[~choose_mbs])
                effective_step = (step if iterations <= self.decay_after
                                  else step * self.decay_after / iterations)
                new_lam = np.maximum(0.0, lam - effective_step * (1.0 - usage))
                movement = float(np.square(new_lam - lam).sum())
                lam = new_lam
                if trace is not None:
                    trace.append(lam.copy())
                if movement <= stop_sq:
                    converged = True
                    break
                if iterations % _STALL_CHECK_EVERY == 0 and iterations > self.decay_after:
                    # Secondary exit for limit cycles: when branch choices flip
                    # persistently the multiplier movement never vanishes, but
                    # the recovered primal stops improving -- track the best
                    # assignment seen and stop once it stagnates.
                    assignment = {users[j].user_id for j in range(n) if choose_mbs[j]}
                    candidate = solve_given_assignment(problem, assignment)
                    if best_recovered is None or (candidate.objective
                                                  > best_recovered.objective + 1e-12):
                        best_recovered = candidate
                        stagnant_checks = 0
                    else:
                        stagnant_checks += 1
                        if stagnant_checks >= _STALL_PATIENCE:
                            break

        if metrics_enabled():
            registry = global_registry()
            registry.counter("repro_solver_solves_total",
                             converged=str(converged).lower()).inc()
            registry.counter("repro_solver_iterations_total").inc(iterations)
            registry.histogram("repro_solver_iterations",
                               buckets=ITERATION_BUCKETS).observe(iterations)
        if tracer is not None:
            tracer.emit_span("dual-solve", kind="solver",
                             seconds=time.perf_counter() - solve_start,
                             iterations=iterations, converged=converged,
                             stations=len(stations))

        if not converged and self.strict:
            raise ConvergenceError(
                f"dual decomposition did not converge in {self.max_iterations} "
                f"iterations", iterations=iterations, residual=movement)

        mbs_set = {users[j].user_id for j in range(n) if choose_mbs[j]}
        # Primal recovery: the subgradient iterate is approximately
        # complementary; re-solving the (convex) problem for the final
        # binary assignment yields an exactly feasible, exactly optimal
        # allocation for that assignment.
        allocation = solve_given_assignment(problem, mbs_set)
        if best_recovered is not None and (best_recovered.objective
                                           > allocation.objective):
            allocation = best_recovered
        return DualSolution(
            allocation=allocation,
            multipliers={station: float(lam[station_pos[station]]) for station in stations},
            iterations=iterations,
            converged=converged,
            trace=np.array(trace) if trace is not None else None,
            trace_stations=list(stations) if trace is not None else None,
        )


def _branch_share(success: np.ndarray, lam, w: np.ndarray,
                  slope: np.ndarray) -> np.ndarray:
    """Closed-form subproblem share ``[success/lambda - W/slope]^+``.

    Degenerate entries -- zero slope (no bandwidth / no channels) or zero
    success probability -- get zero share.  A zero multiplier with a live
    branch clips to the full slot.  ``lam`` may be a scalar or an array
    aligned with the users.
    """
    lam_arr = np.asarray(lam, dtype=float) + 0.0 * w
    live = (slope > 0) & (success > 0)
    safe_lam = np.where(lam_arr > _LAMBDA_EPS, lam_arr, _LAMBDA_EPS)
    safe_slope = np.where(live, slope, 1.0)
    with np.errstate(over="ignore"):
        # A vanishing multiplier makes the unconstrained share blow up;
        # the clip to the full slot below makes the overflow harmless.
        raw = success / safe_lam - w / safe_slope
    raw[raw < 0.0] = 0.0
    raw[raw > 1.0] = 1.0
    raw[~live] = 0.0
    return raw


#: The package's public fast entry point: the exact solver.
fast_solve = exact_solve


def flip_polish(problem: SlotProblem, allocation: Allocation, *,
                max_sweeps: int = 50) -> Allocation:
    """1-opt local search over the binary base-station assignment.

    Repeatedly flips single users between MBS and FBS, re-solving the
    (convex) time-share problem exactly after each candidate flip, until
    no flip improves the objective.  Starting from a subgradient iterate
    this removes most of the residual assignment error of a capped run.
    """
    if acceleration_enabled():
        # Compile once: the K solves per sweep then skip the per-call
        # compile-cache lookup and share one water-filling group cache.
        compiled = compile_slot_problem(problem)
        expected = problem.expected_channels

        def solve(mbs_user_ids):
            return compiled.solve_assignment(mbs_user_ids, expected)
    else:
        def solve(mbs_user_ids):
            return solve_given_assignment(problem, mbs_user_ids)
    best = (allocation if not np.isnan(allocation.objective)
            else solve(allocation.mbs_user_ids))
    for _sweep in range(max_sweeps):
        improved = False
        for user in problem.users:
            trial = set(best.mbs_user_ids)
            trial.symmetric_difference_update({user.user_id})
            candidate = solve(trial)
            if candidate.objective > best.objective + 1e-15:
                best = candidate
                improved = True
        if not improved:
            break
    return best
