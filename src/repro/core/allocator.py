"""Built-in allocation schemes and their registry entries.

The simulation engine is scheme-agnostic -- it hands each slot's
:class:`~repro.core.problem.SlotProblem` to an *allocator* and applies the
returned :class:`~repro.core.problem.Allocation`.  This module defines the
paper's allocators and registers them with the process-wide
:class:`~repro.registry.schemes.SchemeRegistry`:

* ``"proposed"`` -- the paper's algorithm (dual decomposition; combined
  with greedy channel allocation by the engine when FBSs interfere).
* ``"proposed-fast"`` -- the same per-slot problem solved to its exact
  optimum by the star-structure solver (:mod:`repro.core.exact`), used
  for large sweeps.
* ``"heuristic1"`` / ``"heuristic2"`` -- the comparison schemes.

The ``"graph-coloring"`` scheme lives in :mod:`repro.core.coloring`,
imported at the bottom of this module so one import completes the
built-in set.
"""

from __future__ import annotations

from typing import Dict

from repro.core.batch import SolveRequest
from repro.core.dual import DualDecompositionSolver, fast_solve
from repro.core.heuristics import EqualAllocationHeuristic, MultiuserDiversityHeuristic
from repro.core.problem import Allocation, SlotProblem
from repro.registry.schemes import SchemeInfo, register_scheme, scheme_registry


class ProposedAllocator:
    """The paper's optimum-achieving allocator (Tables I/II).

    Parameters
    ----------
    fast:
        Use the exact star-structure solver (:func:`~repro.core.dual.fast_solve`)
        instead of the literal subgradient iteration.  Both target the
        same program; the subgradient version is the faithful distributed
        protocol, the exact version reaches the optimum in closed form and
        is preferable inside parameter sweeps.
    warm_start:
        Seed each subgradient solve with the previous call's final
        multipliers (consecutive slot problems drift slowly, so the warm
        dual point is near-optimal).  Changes the iterate path --
        solutions are equal-or-better in objective, not bit-identical to
        cold solves.  The exact solver has no iterate to seed, so
        ``fast=True`` ignores it.
    solver_kwargs:
        Forwarded to :class:`DualDecompositionSolver` when ``fast=False``.
    """

    def __init__(self, *, fast: bool = False, warm_start: bool = False,
                 **solver_kwargs) -> None:
        self.fast = bool(fast)
        self.warm_start = bool(warm_start)
        self._warm: Dict[int, float] = {}
        self._solver = None if self.fast else DualDecompositionSolver(**solver_kwargs)

    @property
    def name(self) -> str:
        """Registry name of this allocator."""
        return "proposed-fast" if self.fast else "proposed"

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Solve one slot problem to (near-)optimality."""
        if self.fast:
            return fast_solve(problem)
        solution = self._solver.solve(
            problem,
            initial_multipliers=dict(self._warm) or None if self.warm_start else None)
        if self.warm_start:
            self._warm.clear()
            self._warm.update(solution.multipliers)
        return solution.allocation

    def allocate_iter(self, problem: SlotProblem):
        """Generator form of :meth:`allocate` for the lockstep driver.

        Yields the subgradient solve as a
        :class:`~repro.core.batch.SolveRequest` and returns the
        :class:`~repro.core.problem.Allocation`.  The exact solver
        (``fast=True``), strict solvers and trace-recording solvers run
        inline instead -- the last two need the solver instance's own
        bookkeeping (raising :class:`~repro.utils.errors.ConvergenceError`,
        multiplier traces), which a batched answer does not carry.
        """
        if self.fast:
            return fast_solve(problem)
        solver = self._solver
        if solver.strict or solver.record_trace:
            return self.allocate(problem)
        solution = yield SolveRequest(
            problem=problem,
            max_iterations=solver.max_iterations,
            step_size=solver.step_size,
            threshold=solver.threshold,
            decay_after=solver.decay_after,
            initial_multipliers=(dict(self._warm) or None
                                 if self.warm_start else None))
        if self.warm_start:
            self._warm.clear()
            self._warm.update(solution.multipliers)
        return solution.allocation


def _proposed_factory(**kwargs):
    return ProposedAllocator(fast=False, **kwargs)


def _proposed_fast_factory(**kwargs):
    return ProposedAllocator(fast=True, **kwargs)


register_scheme(SchemeInfo(
    name="proposed",
    factory=_proposed_factory,
    batchable=True,
    warm_startable=True,
    greedy_channels=True,
    accepts_options=True,
    description="Dual-decomposition optimum (Tables I/II) with greedy "
                "channel allocation under interference.",
))
register_scheme(SchemeInfo(
    name="proposed-fast",
    factory=_proposed_fast_factory,
    greedy_channels=True,
    accepts_options=True,
    description="Same per-slot program solved exactly by the star-structure "
                "solver; allocations differ from proposed's where its "
                "subgradient stops short. Preferred for large sweeps.",
))
register_scheme(SchemeInfo(
    name="heuristic1",
    factory=EqualAllocationHeuristic,
    fallback_eligible=True,
    description="Equal-share comparison heuristic; closed-form, so it "
                "terminates every fallback chain.",
))
register_scheme(SchemeInfo(
    name="heuristic2",
    factory=MultiuserDiversityHeuristic,
    description="Multiuser-diversity comparison heuristic.",
))

# Complete the built-in set before freezing SCHEMES: the graph-coloring
# scheme registers itself at import.  Must be a direct submodule import
# (this module runs during ``repro.core`` package init).
import repro.core.coloring  # noqa: E402,F401

#: Names of all registered schemes, in registration order.  Kept as a
#: module attribute for backward compatibility; the registry is the
#: source of truth.
SCHEMES = scheme_registry().names()


def get_allocator(scheme: str, **kwargs):
    """Instantiate an allocator by registered scheme name.

    Parameters
    ----------
    scheme:
        Any name in :func:`~repro.registry.schemes.scheme_registry`.
    kwargs:
        Forwarded to the allocator factory; schemes without the
        ``accepts_options`` capability reject any options.
    """
    return scheme_registry().create(scheme, **kwargs)
