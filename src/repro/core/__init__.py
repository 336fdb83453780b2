"""Resource-allocation core: the paper's primary contribution.

* :mod:`repro.core.problem` -- the per-slot convex program (problems (12)
  and (17)) decomposed from the multistage stochastic program (10).
* :mod:`repro.core.dual` -- the optimum-achieving distributed algorithm
  (Tables I and II) via dual decomposition and projected subgradients.
* :mod:`repro.core.exact` -- the exact star-structure solve of problem
  (17) behind ``proposed-fast``, the greedy's ``Q(c)`` and the eq. (23)
  relaxation bound.
* :mod:`repro.core.greedy` -- the greedy FBS-channel allocation for
  interfering FBSs (Table III).
* :mod:`repro.core.bounds` -- Theorem 2's ``1/(1+D_max)`` guarantee and the
  tighter data-dependent upper bound of eq. (23).
* :mod:`repro.core.heuristics` -- the paper's two comparison schemes.
* :mod:`repro.core.reference` -- exact oracle solver (exhaustive partition
  + water-filling) used to validate the distributed algorithm in tests.
* :mod:`repro.core.allocator` -- scheme registry / facade used by the
  simulation engine.
"""

from repro.core.allocator import SCHEMES, get_allocator
from repro.core.bounds import GreedyTrace, theorem2_factor, tighter_upper_bound
from repro.core.dual import DualDecompositionSolver, DualSolution, fast_solve, flip_polish
from repro.core.exact import exact_solve
from repro.core.greedy import GreedyChannelAllocator, GreedyResult
from repro.core.heuristics import EqualAllocationHeuristic, MultiuserDiversityHeuristic
from repro.core.problem import Allocation, SlotProblem, UserDemand
from repro.core.reference import exhaustive_reference_solution, water_filling

__all__ = [
    "Allocation",
    "DualDecompositionSolver",
    "DualSolution",
    "EqualAllocationHeuristic",
    "GreedyChannelAllocator",
    "GreedyResult",
    "GreedyTrace",
    "MultiuserDiversityHeuristic",
    "SCHEMES",
    "SlotProblem",
    "UserDemand",
    "exact_solve",
    "exhaustive_reference_solution",
    "fast_solve",
    "flip_polish",
    "get_allocator",
    "theorem2_factor",
    "tighter_upper_bound",
    "water_filling",
]
