"""Exact per-slot solver for problem (17), using its star structure.

Problem (17) couples the users only through the station simplices: the
MBS slot is shared by everyone, each FBS slot only by the users of that
FBS.  Dualising just the MBS constraint with one multiplier ``mu_0``
splits the slot into independent per-FBS choices:

* a user sent to the MBS earns its closed-form water-filling term
  ``f_j(mu_0) = max_rho [sP0_j log(1 + rho R0_j / W_j) - mu_0 rho]``;
* the users that stay on FBS ``i`` earn the exact water-filling value of
  that subset on the FBS slot, ``V_i(T)``.

An FBS has at most :data:`MAX_USERS_PER_FBS` users, so ``V_i`` is
tabulated for every subset once per ``(FBS, G_i)`` and cached on the
:class:`~repro.core.reference.CompiledSlotProblem`: the ~17 ``Q(c)``
variants the greedy evaluates in one slot share the tables.  For a given
``mu_0`` every FBS then picks its best subset with one table scan.

The solve is a fixed-point iteration on ``mu_0``.  Take the users the
per-FBS best responses send to the MBS, set ``mu_0`` to the exact MBS
water level of that set (the minimiser of the set's piece of the dual
function, where the piece equals the set's primal value), and repeat
until an assignment comes back.  An assignment that is its own best
response is optimal: its primal value meets the dual bound.  Otherwise
(a duality gap) the best assignment seen goes through vectorised exact
single-flip passes that reuse the tables.  The chosen assignment is
water-filled exactly by :func:`~repro.core.reference.solve_given_assignment`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.problem import Allocation, SlotProblem
from repro.core.reference import compile_slot_problem, solve_given_assignment
from repro.obs.metrics import global_registry, metrics_enabled
from repro.utils.errors import ConfigurationError

#: Largest FBS the subset tables cover (``2^12`` entries per table).
MAX_USERS_PER_FBS = 12

#: Bucket edges of the ``repro_exact_fixed_point_steps`` histogram.
STEP_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 32)

#: Fixed-point step budget; an assignment comes back long before it.
_MAX_STEPS = 64

#: Range costs are clipped to (see :func:`_costs`).
_COST_RANGE = (1e-300, 1e300)

#: Relative gain a flip needs to count as an improvement (the vectorised
#: values carry a few ulps of rounding).
_FLIP_TOL = 1e-12


def _costs(bases: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Water-filling costs ``W_j / slope_j``, clipped to finite values.

    Subnormal slopes (or ``G_i``) overflow the quotient; such a user's
    utility is nil either way, and a finite cost keeps ``0 * cost``
    terms of the masked sums at zero instead of NaN.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return np.clip(bases / slopes, _COST_RANGE[0], _COST_RANGE[1])


def _group_values(member: np.ndarray, weight: np.ndarray,
                  cost: np.ndarray) -> np.ndarray:
    """Exact water-filling value of each row's member set.

    ``weight``/``cost`` (``W_j / slope_j``) describe the live users
    sorted by breakpoint ``weight/cost``, and ``member`` flags each
    row's set.  A set's water level is its largest prefix quotient
    ``sum(w) / (1 + sum(c))`` (the KKT level dominates the quotient of
    every subset and equals the active prefix's), and its value is
    ``sum_j w_j log1p(rho_j / c_j)`` with ``rho_j = (w_j / level - c_j)^+``.
    Rows without members have level 0 and value 0.
    """
    if not weight.size:
        return np.zeros(member.shape[0])
    levels = (np.cumsum(member * weight, axis=1)
              / (1.0 + np.cumsum(member * cost, axis=1))).max(axis=1)
    # Clipping the level keeps 1/level finite when subnormal weights
    # underflow it; that only lowers rho, whose true value is <= 1.
    inverse = np.where(levels > 0.0,
                       1.0 / np.maximum(levels, _COST_RANGE[0]), 0.0)
    rho = np.maximum(weight * inverse[:, None] - cost, 0.0) * member
    return (weight * np.log1p(rho / cost)).sum(axis=1)


class ExactLayout:
    """Constants of the exact solve for one user set, built once per slot.

    Users are indexed in problem order (``K`` of them) and FBSs in
    ascending id order (``N`` rows).  ``pos`` maps each FBS's local users
    to their global index, padded with ``K``; vectors over users carry a
    trailing zero at index ``K`` so the padding reads as "no user".
    A mask of an FBS is the set of its local users sent to the MBS.
    """

    def __init__(self, compiled) -> None:
        w = compiled._w_prev
        n = w.size
        self.n_users = n
        self.fbs_ids = list(compiled._fbs_ids)
        self.members = [compiled._members[i] for i in self.fbs_ids]
        sizes = [len(local) for local in self.members]
        width = max(sizes)
        if width > MAX_USERS_PER_FBS:
            raise ConfigurationError(
                f"FBS {self.fbs_ids[sizes.index(width)]} has {width} users; "
                f"the exact solver (scheme 'proposed-fast' and the greedy "
                f"channel allocation) handles at most {MAX_USERS_PER_FBS} "
                f"per FBS -- use scheme 'proposed' on a non-interfering "
                f"deployment instead")
        self.rows = np.arange(len(self.members))
        self.pos = np.full((len(self.members), width), n, dtype=np.intp)
        self.user_row = np.zeros(n + 1, dtype=np.intp)
        self.user_bit = np.zeros(n + 1, dtype=np.intp)
        for row, local in enumerate(self.members):
            self.pos[row, :len(local)] = local
            self.user_row[local] = row
            self.user_bit[local] = 1 << np.arange(len(local))
        masks = np.arange(1 << width)
        #: bits[mask, b] = 1.0 when local user b is in the mask.
        self.bits = ((masks[:, None] >> np.arange(width)) & 1).astype(float)
        self.bits_t = self.bits.T.copy()
        #: A single-flip pass scores row j (flip user j) and row K (no flip).
        self.flips = np.eye(n + 1, dtype=bool)

        # MBS branch: live users sorted by water-filling breakpoint.
        s0, r0 = compiled._success_mbs, compiled._r_mbs
        live = np.flatnonzero((s0 > 0) & (r0 > 0))
        cost = _costs(w[live], r0[live])
        order = np.argsort(-(s0[live] / cost), kind="stable")
        self.mbs_live = live[order]
        self.mbs_weight = s0[self.mbs_live]
        self.mbs_cost = cost[order]

        # FBS branch: the breakpoint order s1 G r1 / W does not depend on
        # G > 0, so each FBS's sorted live users and the "stays on the
        # FBS" flags of every mask are fixed; only the costs scale by 1/G.
        s1, r1 = compiled._success_fbs, compiled._r_fbs
        self._fbs = []
        for local in self.members:
            local = np.asarray(local, dtype=np.intp)
            live = np.flatnonzero((s1[local] > 0) & (r1[local] > 0))
            cols = live[np.argsort(-(s1[local[live]] * r1[local[live]]
                                     / w[local[live]]), kind="stable")]
            users = local[cols]
            stays = 1.0 - self.bits[:1 << local.size][:, cols]
            self._fbs.append((local.size, stays, s1[users],
                              _costs(w[users], r1[users])))

    def fbs_table(self, row: int, g: float) -> np.ndarray:
        """``V_i`` of FBS ``row`` at ``G_i = g``, indexed by mask.

        Masks naming padding bits beyond the FBS's own users score
        ``-inf`` so no best response can pick them.
        """
        size, stays, weight, base_cost = self._fbs[row]
        table = np.full(len(self.bits), -np.inf)
        if g > 0.0:
            table[:1 << size] = _group_values(
                stays, weight, _costs(base_cost, np.float64(g)))
        else:
            table[:1 << size] = 0.0
        return table

    def mbs_terms(self, mu: float) -> np.ndarray:
        """``f_j(mu)`` of every user (0 off the live MBS set), padded."""
        f = np.zeros(self.n_users + 1)
        weight, cost = self.mbs_weight, self.mbs_cost
        if mu > 0.0:
            # A Python-float reciprocal turns a subnormal mu into inf
            # quietly; weights are probabilities, so the product is safe.
            rho = np.clip(weight * (1.0 / mu) - cost, 0.0, 1.0)
            f[self.mbs_live] = weight * np.log1p(rho / cost) - mu * rho
        else:
            # A free MBS slot: every live user takes all of it.
            f[self.mbs_live] = weight * np.log1p(1.0 / cost)
        return f

    def mbs_level(self, on_mbs: np.ndarray) -> float:
        """Exact MBS water level of the users flagged in ``on_mbs``."""
        if not self.mbs_live.size:
            return 0.0
        sel = on_mbs[self.mbs_live]
        return float((np.cumsum(sel * self.mbs_weight)
                      / (1.0 + np.cumsum(sel * self.mbs_cost))).max())

    def on_mbs(self, masks: np.ndarray) -> np.ndarray:
        """Per-user 0/1 flags (padded) of the assignment ``masks``."""
        flags = np.zeros(self.n_users + 1)
        flags[self.pos] = self.bits[masks]
        flags[-1] = 0.0
        return flags


def _layout(compiled) -> ExactLayout:
    if compiled.exact_layout is None:
        compiled.exact_layout = ExactLayout(compiled)
    return compiled.exact_layout


def _tables(compiled, layout: ExactLayout,
            expected_channels: Dict[int, float]) -> np.ndarray:
    """Stacked ``(N, masks)`` subset tables for one ``G`` vector."""
    cache = compiled.fbs_tables
    rows = []
    for row, fbs_id in enumerate(layout.fbs_ids):
        key = (fbs_id, expected_channels[fbs_id])
        table = cache.get(key)
        if table is None:
            table = cache[key] = layout.fbs_table(row, key[1])
        rows.append(table)
    return np.stack(rows)


def _relax(layout: ExactLayout,
           tables: np.ndarray) -> Tuple[np.ndarray, float, int, bool]:
    """Fixed-point iteration on ``mu_0``.

    Returns ``(masks, value, steps, certified)``: the best assignment
    seen (one mask per FBS) with its primal value, the number of best
    responses computed, and whether the assignment is its own best
    response -- in which case it is optimal.
    """
    seen = set()
    best_masks, best_value = None, -np.inf
    previous = None  # (key, masks, flags, table sum) of the last response
    mu = layout.mbs_level(np.ones(layout.n_users + 1))
    steps = 0
    while True:
        f = layout.mbs_terms(mu)
        if previous is not None:
            # mu is the previous assignment's own MBS water level, where
            # its piece of the dual function equals its primal value.
            _, masks, flags, table_sum = previous
            value = mu + float(f @ flags) + table_sum
            if best_masks is None or value > best_value:
                best_masks, best_value = masks, value
        if steps == _MAX_STEPS:
            return best_masks, best_value, steps, False
        steps += 1
        masks = (tables + f[layout.pos] @ layout.bits_t).argmax(axis=1)
        key = masks.tobytes()
        if key in seen:
            return best_masks, best_value, steps, key == previous[0]
        seen.add(key)
        flags = layout.on_mbs(masks)
        previous = (key, masks, flags,
                    float(tables[layout.rows, masks].sum()))
        mu = layout.mbs_level(flags)


def _flip(layout: ExactLayout, tables: np.ndarray,
          masks: np.ndarray) -> Tuple[np.ndarray, float, bool]:
    """Best-improvement single-user flips until none gains.

    One pass scores every flip and the unflipped assignment at once: the
    MBS part by one batched water-filling over the flipped sets, the FBS
    part by table lookups.  Returns ``(masks, value, improved)``.
    """
    user_row, user_bit = layout.user_row, layout.user_bit
    improved = False
    while True:
        flags = layout.on_mbs(masks) > 0.0
        trial = (flags ^ layout.flips)[:, layout.mbs_live]
        scores = _group_values(trial, layout.mbs_weight, layout.mbs_cost)
        own = masks[user_row]
        table_sum = float(tables[layout.rows, masks].sum())
        scores[:-1] += (table_sum - tables[user_row, own]
                        + tables[user_row, own ^ user_bit])[:-1]
        scores[-1] += table_sum
        value = float(scores[-1])
        best = int(scores[:-1].argmax())
        if not scores[best] > value + _FLIP_TOL * max(1.0, abs(value)):
            return masks, value, improved
        masks = masks.copy()
        masks[user_row[best]] ^= user_bit[best]
        improved = True


def _solve(problem: SlotProblem):
    """Optimal assignment of ``problem``: ``(compiled, layout, masks, value)``."""
    compiled = compile_slot_problem(problem)
    layout = _layout(compiled)
    tables = _tables(compiled, layout, problem.expected_channels)
    masks, value, steps, certified = _relax(layout, tables)
    improved = False
    if not certified:
        masks, value, improved = _flip(layout, tables, masks)
    if metrics_enabled():
        registry = global_registry()
        registry.counter("repro_exact_solves_total").inc()
        registry.histogram("repro_exact_fixed_point_steps",
                           buckets=STEP_BUCKETS).observe(steps)
        if improved:
            registry.counter("repro_exact_flip_improvements_total").inc()
    return compiled, layout, masks, value


def exact_objective(problem: SlotProblem) -> float:
    """``Q``: the optimal value of problem (17), without the allocation."""
    return _solve(problem)[3]


def exact_solve(problem: SlotProblem) -> Allocation:
    """Optimal allocation of problem (17) by the exact star-structure solve.

    Raises
    ------
    ConfigurationError
        If an FBS has more than :data:`MAX_USERS_PER_FBS` users.
    """
    compiled, layout, masks, _ = _solve(problem)
    user_ids = compiled.user_ids
    mbs_user_ids = {user_ids[j] for row, local in enumerate(layout.members)
                    for bit, j in enumerate(local) if masks[row] >> bit & 1}
    return solve_given_assignment(problem, mbs_user_ids)
