"""Cross-replication batched dual-decomposition kernel.

The per-slot allocation dominates the accelerated engine's budget
(BENCH_engine.json), and PR 3/4 already vectorised everything *inside*
one solve -- the remaining stacking dimension is *across* independent
slot problems.  The paper's dual decomposition makes this easy: the
subgradient iteration of Tables I/II touches only its own problem's
arrays, so B independent solves can run as one ``(B, N)``-shaped
iteration with per-member convergence masks.

The module provides three layers:

* :class:`SolveRequest` / :func:`solve_requests` -- the stacked kernel.
  Each request describes one ``DualDecompositionSolver.solve`` call
  (problem, warm start, solver parameters); ``solve_requests`` answers a
  whole batch with the exact :class:`~repro.core.dual.DualSolution` each
  scalar call would have produced.  **Bit-exactness contract:** every
  elementwise operation (water-filling shares, branch utilities) runs
  stacked -- numpy ufuncs are value-deterministic per element, so a row
  of a ``(B, N)`` array computes the same bits as the lone ``(N,)``
  array -- while every order-sensitive reduction (per-station usage
  sums, multiplier movement) is stacked only in ways that preserve each
  row's exact scalar operand sequence: the compressed MBS-usage sum
  replays numpy's pairwise-summation association column-wise
  (:func:`_masked_row_sums`), the FBS usage accumulates through one
  row-major flattened ``np.add.at`` (rows touch disjoint buckets), and
  the movement norm reduces along the contiguous last axis, which runs
  the same per-row kernel as the scalar ``.sum()``.  Finished members
  freeze: their rows
  are removed from the stack and never recomputed, so a member that
  converges at iteration 37 returns the same iterate whether its batch
  mates run 37 or 5000 iterations.

* Solve *generators* -- call sites that ``yield`` each
  :class:`SolveRequest` instead of solving inline (the ``proposed``
  allocator's :meth:`~repro.core.allocator.ProposedAllocator.allocate_iter`
  and the engine's slot body that delegates to it), so a driver can
  interleave many of them.  :func:`drive` runs such a generator
  sequentially (answering each request with the real scalar solver),
  which is how the non-batched path executes the exact same code.

* The ``use_batching`` switch, mirroring
  :mod:`repro.core.accel`: process-global, on by default, scoped off by
  differential tests, disabled by ``REPRO_BATCHED_ALLOCATION=0``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Generator, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.dual import (
    _LAMBDA_EPS,
    _STALL_CHECK_EVERY,
    _STALL_PATIENCE,
    DualDecompositionSolver,
    DualSolution,
)
from repro.core.problem import SlotProblem
from repro.core.reference import solve_given_assignment
from repro.obs.metrics import ITERATION_BUCKETS, global_registry, metrics_enabled

#: Environment switch: ``0`` disables batched allocation process-wide.
ENV_BATCHING = "REPRO_BATCHED_ALLOCATION"

#: Tri-state in-process override: ``None`` follows the environment.
_ENABLED: Optional[bool] = None


def batching_enabled() -> bool:
    """Whether cross-replication batched allocation is active."""
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get(ENV_BATCHING, "1") != "0"


@contextmanager
def use_batching(enabled: bool) -> Iterator[None]:
    """Scoped override of the batching switch (differential tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


@dataclass
class SolveRequest:
    """One deferred ``DualDecompositionSolver.solve`` call.

    Attributes mirror the solver's constructor and ``solve`` arguments;
    ``registry`` captures the requester's metrics registry at creation
    time (the batched kernel runs under the *driver's* registry, but the
    solve belongs to the member replication, so its solver counters must
    land on the member's books).  Requests are only ever created by
    non-strict, non-tracing call sites -- strict solvers and multiplier
    traces take the inline scalar path.
    """

    problem: SlotProblem
    initial_multipliers: Optional[Dict[int, float]] = None
    max_iterations: int = 400
    step_size: float = 0.02
    threshold: float = 1e-5
    decay_after: int = 400
    registry: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.registry is None and metrics_enabled():
            self.registry = global_registry()


#: A solve generator: yields requests, returns its final result.
SolveGenerator = Generator[SolveRequest, DualSolution, object]


@lru_cache(maxsize=32)
def _solver_for(step_size: float, threshold: float, max_iterations: int,
                decay_after: int) -> DualDecompositionSolver:
    """Shared scalar solver instances keyed on the request parameters.

    The solver is stateless across calls, so an equivalent instance
    answers a request bit-identically to the caller's own; the cache is
    scoped per scenario by :mod:`repro.core.caches`.
    """
    return DualDecompositionSolver(
        step_size=step_size, threshold=threshold,
        max_iterations=max_iterations, decay_after=decay_after)


def answer_request(request: SolveRequest) -> DualSolution:
    """Solve one request inline with the scalar solver."""
    solver = _solver_for(request.step_size, request.threshold,
                         request.max_iterations, request.decay_after)
    return solver.solve(request.problem,
                        initial_multipliers=request.initial_multipliers)


def drive(gen: SolveGenerator):
    """Run a solve generator to completion, answering requests inline.

    The sequential executor of the generator protocol: each yielded
    :class:`SolveRequest` is solved immediately by the scalar solver, so
    ``drive(some_iter(...))`` is the exact unbatched computation.
    Exceptions raised inside the generator propagate unchanged.
    """
    try:
        request = gen.send(None)
        while True:
            request = gen.send(answer_request(request))
    except StopIteration as stop:
        return stop.value


# -- the stacked kernel ---------------------------------------------------


class _Member:
    """Per-request state of the stacked iteration (one batch member)."""

    __slots__ = (
        "request", "problem", "users", "stations", "station_pos", "n",
        "w", "s_mbs", "s_fbs", "r_mbs", "r_fbs_eff", "fbs_pos",
        "cost0", "cost1", "dead0", "dead1", "lam", "step", "stop_sq",
        "max_iterations", "decay_after", "iterations", "converged",
        "choose_mbs", "final_lam", "best_recovered", "stagnant_checks",
    )

    def __init__(self, request: SolveRequest) -> None:
        # This prologue is the scalar solver's, statement for statement
        # (repro.core.dual.DualDecompositionSolver.solve up to the
        # iteration loop), so every per-member constant -- scale, step,
        # threshold, initial multipliers, hoisted costs -- is bit-equal.
        self.request = request
        problem = request.problem
        self.problem = problem
        stations = [0] + problem.fbs_ids
        self.stations = stations
        self.station_pos = {station: pos
                            for pos, station in enumerate(stations)}
        users = list(problem.users)
        self.users = users
        self.n = len(users)
        self.w = np.array([u.w_prev for u in users])
        self.s_mbs = np.array([u.success_mbs for u in users])
        self.s_fbs = np.array([u.success_fbs for u in users])
        self.r_mbs = np.array([u.r_mbs for u in users])
        self.r_fbs_eff = np.array(
            [problem.g_for_user(u) * u.r_fbs for u in users])
        self.fbs_pos = np.array([self.station_pos[u.fbs_id] for u in users])

        marginals = np.concatenate([
            self.s_mbs * self.r_mbs / self.w,
            self.s_fbs * self.r_fbs_eff / self.w])
        positive = marginals[marginals > 0]
        scale = float(positive.mean()) if positive.size else 1.0
        self.step = float(request.step_size) * scale
        self.stop_sq = (float(request.threshold) * scale) ** 2

        lam = np.full(len(stations), scale)
        if request.initial_multipliers:
            for station, value in request.initial_multipliers.items():
                if station in self.station_pos:
                    lam[self.station_pos[station]] = max(0.0, float(value))
        self.lam = lam

        live0 = (self.r_mbs > 0) & (self.s_mbs > 0)
        live1 = (self.r_fbs_eff > 0) & (self.s_fbs > 0)
        self.dead0 = ~live0
        self.dead1 = ~live1
        with np.errstate(over="ignore"):
            self.cost0 = self.w / np.where(live0, self.r_mbs, 1.0)
            self.cost1 = self.w / np.where(live1, self.r_fbs_eff, 1.0)

        self.max_iterations = int(request.max_iterations)
        self.decay_after = int(request.decay_after)
        self.iterations = 0
        self.converged = False
        self.choose_mbs = np.zeros(self.n, dtype=bool)
        self.final_lam = lam
        self.best_recovered = None
        self.stagnant_checks = 0

    def finalize(self) -> DualSolution:
        """Primal recovery + metrics, exactly as the scalar epilogue."""
        registry = self.request.registry
        if registry is not None:
            registry.counter("repro_solver_solves_total",
                             converged=str(self.converged).lower()).inc()
            registry.counter("repro_solver_iterations_total").inc(
                self.iterations)
            registry.histogram("repro_solver_iterations",
                               buckets=ITERATION_BUCKETS).observe(
                                   self.iterations)
        mbs_set = {self.users[j].user_id for j in range(self.n)
                   if self.choose_mbs[j]}
        allocation = solve_given_assignment(self.problem, mbs_set)
        if self.best_recovered is not None and (
                self.best_recovered.objective > allocation.objective):
            allocation = self.best_recovered
        return DualSolution(
            allocation=allocation,
            multipliers={station: float(self.final_lam[self.station_pos[station]])
                         for station in self.stations},
            iterations=self.iterations,
            converged=self.converged,
        )


def _iteration_stage(lam0, lam_user, safe_lam0, safe_lam1, s_mbs, s_fbs,
                     cost0, cost1, dead0, dead1, r_mbs, r_fbs_eff, w):
    """Elementwise stage of one stacked iteration (Table I steps 3-4).

    Pure ufunc arithmetic over ``(B, N)`` stacks: each element's value
    depends only on the matching elements of the inputs, so every row
    is bit-equal to the scalar solver's ``(N,)`` computation.  The
    shares divide by the epsilon-guarded multipliers but the Lagrangian
    terms multiply by the *raw* ones, exactly as the scalar loop does
    (the distinction matters when a multiplier projects to zero).
    """
    rho0 = s_mbs / safe_lam0 - cost0
    rho0 = np.maximum(rho0, 0.0)
    rho0 = np.minimum(rho0, 1.0)
    rho0 = np.where(dead0, 0.0, rho0)
    rho1 = s_fbs / safe_lam1 - cost1
    rho1 = np.maximum(rho1, 0.0)
    rho1 = np.minimum(rho1, 1.0)
    rho1 = np.where(dead1, 0.0, rho1)
    util0 = s_mbs * np.log1p(rho0 * r_mbs / w) - lam0 * rho0
    util1 = s_fbs * np.log1p(rho1 * r_fbs_eff / w) - lam_user * rho1
    return rho0, rho1, util0 > util1


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``values[row, mask[row]].sum()``, bit-exactly, stacked.

    The scalar solver sums the *compressed* selection, so numpy's
    summation order depends on the selected count ``k``: strict
    left-to-right for ``k < 8``, and for ``8 <= k <= 15`` the
    unrolled-by-8 kernel -- eight accumulators over the first eight
    elements, a fixed combine tree, then sequential remainder.  Both
    regimes tolerate zero padding exactly (adding ``+0.0`` to a
    non-negative partial sum is the identity), so replaying the two
    association patterns over columns of the zeroed stack reproduces
    every row's scalar sum without a Python-level per-row loop -- the
    sequential regime directly, the combine tree after left-justifying
    each row's selection.  Rows wide enough to engage numpy's block
    loop (``n >= 16``) fall back to the literal per-row computation.
    """
    b, n = values.shape
    if n >= 16:
        return np.array([values[row, mask[row]].sum() for row in range(b)])
    counts = mask.sum(axis=1)
    zeroed = np.where(mask, values, 0.0)
    # cumsum is sequential by definition, so its last column is the
    # strict left-to-right sum -- and because the zero padding is exact
    # (the values are non-negative, so no ``-0.0`` can appear and every
    # ``+0.0`` is the identity), the masked-out positions need not even
    # be packed to the right for this regime.
    seq = np.cumsum(zeroed, axis=1)[:, -1]
    if n < 8 or not (counts >= 8).any():
        return seq
    # Some row selected >= 8 elements: left-justify and replay the
    # unrolled-by-8 combine tree ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    # with three stride-2 slice adds, then the sequential remainder.
    order = np.argsort(~mask, axis=1, kind="stable")
    packed = np.take_along_axis(zeroed, order, axis=1)
    head = packed[:, :8]
    pairs = head[:, 0::2] + head[:, 1::2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    comb = quads[:, 0] + quads[:, 1]
    for j in range(8, n):
        comb = comb + packed[:, j]
    return np.where(counts < 8, seq, comb)


#: Below this active width the stacked iteration costs more than the
#: scalar loop (its per-iteration overhead is ~constant in B), so the
#: group finishes member-by-member via :func:`_finish_single`.
_MIN_STACK_WIDTH = 3


def _finish_single(member: _Member, lam: np.ndarray, start_t: int) -> None:
    """Scalar continuation of one member from iteration ``start_t``.

    A statement-for-statement twin of the scalar solver's accelerated
    inner loop (``repro.core.dual.DualDecompositionSolver.solve``),
    operating on the member's hoisted arrays: batch rows never interact,
    so running one member forward alone is bit-identical to keeping it
    in the stack -- and to the scalar solver itself.  Used for width-1
    groups (``start_t == 0`` replays the whole solve) and for the last
    members of a draining group, which would otherwise pay the stacked
    iteration's fixed overhead for a nearly-empty stack.
    """
    w, s_mbs, s_fbs = member.w, member.s_mbs, member.s_fbs
    r_mbs, r_fbs_eff = member.r_mbs, member.r_fbs_eff
    cost0, cost1 = member.cost0, member.cost1
    dead0, dead1 = member.dead0, member.dead1
    fbs_pos = member.fbs_pos
    n_stations = len(member.stations)
    step = member.step
    decay_after = member.decay_after
    choose_mbs = member.choose_mbs
    t = start_t
    with np.errstate(over="ignore"):
        for t in range(start_t + 1, member.max_iterations + 1):
            lam0 = lam[0]
            lam_user = lam[fbs_pos]
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
            util0 = s_mbs * np.log1p(rho0 * r_mbs / w) - lam0 * rho0
            util1 = s_fbs * np.log1p(rho1 * r_fbs_eff / w) - lam_user * rho1
            choose_mbs = util0 > util1
            usage = np.zeros(n_stations)
            usage[0] = rho0[choose_mbs].sum()
            np.add.at(usage, fbs_pos[~choose_mbs], rho1[~choose_mbs])
            effective_step = (step if t <= decay_after
                              else step * decay_after / t)
            new_lam = np.maximum(0.0, lam - effective_step * (1.0 - usage))
            movement = float(np.square(new_lam - lam).sum())
            lam = new_lam
            if movement <= member.stop_sq:
                member.converged = True
                break
            if t % _STALL_CHECK_EVERY == 0 and t > decay_after:
                assignment = {member.users[j].user_id
                              for j in range(member.n) if choose_mbs[j]}
                candidate = solve_given_assignment(member.problem,
                                                   assignment)
                if member.best_recovered is None or (
                        candidate.objective
                        > member.best_recovered.objective + 1e-12):
                    member.best_recovered = candidate
                    member.stagnant_checks = 0
                else:
                    member.stagnant_checks += 1
                    if member.stagnant_checks >= _STALL_PATIENCE:
                        break
    member.iterations = t
    member.choose_mbs = choose_mbs
    member.final_lam = lam


def solve_requests(requests: Sequence[SolveRequest]) -> List[DualSolution]:
    """Answer a batch of solve requests with the stacked kernel.

    Requests are grouped by problem shape ``(n_users, n_stations)`` --
    members of a group share their array stack; groups iterate
    independently.  Returns one :class:`DualSolution` per request, in
    request order, bit-identical to answering each request with
    :func:`answer_request` (asserted by
    ``tests/core/test_batched_allocation.py``).
    """
    results: List[Optional[DualSolution]] = [None] * len(requests)
    groups: Dict[tuple, List[tuple]] = {}
    for index, request in enumerate(requests):
        member = _Member(request)
        groups.setdefault((member.n, len(member.stations)), []).append(
            (index, member))
    for (_, n_stations), entries in groups.items():
        _solve_group([member for _, member in entries], n_stations)
        for index, member in entries:
            results[index] = member.finalize()
    return results


def _solve_group(members: List[_Member], n_stations: int) -> None:
    """Run the masked stacked iteration for one same-shape group.

    All members start at iteration 1 together and only ever *freeze*
    (converge, stall out, or exhaust their budget), so the global
    iteration counter ``t`` equals every active member's own iteration
    count -- the step-decay schedule and the stall-check cadence need no
    per-member clock.  The hot loop is fully stacked (see the module
    docstring for the reduction-order argument); Python-level per-member
    work happens only on the slow path -- a convergence, a budget
    exhaustion, or a stall-check tick every ``_STALL_CHECK_EVERY``
    iterations.  Frozen rows are compressed out of the stack (fancy
    indexing copies values exactly), never recomputed.
    """
    # Stack the per-member constants; row b of each array is member b's
    # (N,) vector, so elementwise ops per row match the scalar path.
    w = np.stack([m.w for m in members])
    s_mbs = np.stack([m.s_mbs for m in members])
    s_fbs = np.stack([m.s_fbs for m in members])
    r_mbs = np.stack([m.r_mbs for m in members])
    r_fbs_eff = np.stack([m.r_fbs_eff for m in members])
    cost0 = np.stack([m.cost0 for m in members])
    cost1 = np.stack([m.cost1 for m in members])
    dead0 = np.stack([m.dead0 for m in members])
    dead1 = np.stack([m.dead1 for m in members])
    fbs_pos = np.stack([m.fbs_pos for m in members])
    lam = np.stack([m.lam for m in members])
    steps = np.array([m.step for m in members])
    decays = np.array([float(m.decay_after) for m in members])
    stop_sqs = np.array([m.stop_sq for m in members])
    active = list(members)
    row_offsets = np.arange(len(active))[:, None] * n_stations
    flat_pos = row_offsets + fbs_pos
    min_budget = min(m.max_iterations for m in active)
    min_decay = float(decays.min())
    t = 0
    with np.errstate(over="ignore"):
        while active:
            if len(active) < _MIN_STACK_WIDTH:
                # Too narrow for the stack's fixed per-iteration cost:
                # finish the remaining members one by one on the scalar
                # loop (rows are independent, so this is exact).
                for row, member in enumerate(active):
                    _finish_single(member, lam[row], t)
                return
            t += 1
            # Elementwise stage, stacked: shares and branch choices.
            lam0 = lam[:, 0:1]
            lam_user = np.take_along_axis(lam, fbs_pos, axis=1)
            # The multipliers are projected non-negative, so the scalar
            # path's epsilon guard (``x if x > eps else eps``) is exactly
            # one ``maximum`` here.
            safe_lam0 = np.maximum(lam0, _LAMBDA_EPS)
            safe_lam1 = np.maximum(lam_user, _LAMBDA_EPS)
            rho0, rho1, choose_mbs = _iteration_stage(
                lam0, lam_user, safe_lam0, safe_lam1, s_mbs, s_fbs,
                cost0, cost1, dead0, dead1, r_mbs, r_fbs_eff, w)
            # Reduction stage, also stacked, but with the scalar operand
            # order preserved per row: the MBS usage replays numpy's
            # compressed-sum association (_masked_row_sums), the FBS
            # usage runs one flattened ``np.add.at`` whose row-major
            # element order is each row's scalar order (rows touch
            # disjoint buckets), and the movement norm reduces along the
            # contiguous last axis -- the same per-row kernel the scalar
            # ``.sum()`` uses.
            not_choose = ~choose_mbs
            usage = np.zeros((len(active), n_stations))
            usage[:, 0] = _masked_row_sums(rho0, choose_mbs)
            np.add.at(usage.reshape(-1), flat_pos[not_choose],
                      rho1[not_choose])
            if t <= min_decay:
                effective_step = steps
            else:
                effective_step = np.where(t <= decays, steps,
                                          steps * decays / t)
            new_lam = np.maximum(
                0.0, lam - effective_step[:, None] * (1.0 - usage))
            movement = np.square(new_lam - lam).sum(axis=1)
            lam = new_lam
            converged = movement <= stop_sqs
            stall_tick = t % _STALL_CHECK_EVERY == 0
            if not (stall_tick or t >= min_budget or converged.any()):
                continue
            # Slow path: at least one member converged, hit its budget,
            # or reached a stall-check tick.
            finished: List[int] = []
            for row, member in enumerate(active):
                done = False
                if converged[row]:
                    member.converged = True
                    done = True
                elif stall_tick and t > member.decay_after:
                    # Limit-cycle exit, per member (scalar semantics:
                    # recover the primal, stop after three stagnant
                    # recoveries).
                    choose = choose_mbs[row]
                    assignment = {member.users[j].user_id
                                  for j in range(member.n) if choose[j]}
                    candidate = solve_given_assignment(member.problem,
                                                       assignment)
                    if member.best_recovered is None or (
                            candidate.objective
                            > member.best_recovered.objective + 1e-12):
                        member.best_recovered = candidate
                        member.stagnant_checks = 0
                    else:
                        member.stagnant_checks += 1
                        if member.stagnant_checks >= _STALL_PATIENCE:
                            done = True
                if not done and t >= member.max_iterations:
                    done = True
                if done:
                    member.iterations = t
                    member.choose_mbs = choose_mbs[row].copy()
                    member.final_lam = lam[row].copy()
                    finished.append(row)
            if finished:
                keep = np.ones(len(active), dtype=bool)
                keep[finished] = False
                active = [m for row, m in enumerate(active) if keep[row]]
                if not active:
                    break
                w = w[keep]
                s_mbs = s_mbs[keep]
                s_fbs = s_fbs[keep]
                r_mbs = r_mbs[keep]
                r_fbs_eff = r_fbs_eff[keep]
                cost0 = cost0[keep]
                cost1 = cost1[keep]
                dead0 = dead0[keep]
                dead1 = dead1[keep]
                fbs_pos = fbs_pos[keep]
                lam = lam[keep]
                steps = steps[keep]
                decays = decays[keep]
                stop_sqs = stop_sqs[keep]
                row_offsets = np.arange(len(active))[:, None] * n_stations
                flat_pos = row_offsets + fbs_pos
                min_budget = min(m.max_iterations for m in active)
                min_decay = float(decays.min())
