"""Incremental re-layout under a data-movement budget (Section 2.3).

The paper's incrementality constraint bounds the fraction of the
database that may move when the advisor is re-run against a drifted
workload.  This module turns that constraint from something the repo
could only *validate* (ALR015) into something it can *search under*:

* the search is seeded from the **current** layout (TS-GREEDY step 1 is
  skipped — the current placement is the starting point, exactly the
  incremental mode the paper sketches);
* every candidate move is checked against the cumulative movement
  budget ``Δ * total_blocks``; a candidate that would overshoot is not
  discarded but **projected back onto the budget** — its fraction row is
  blended toward the current row (``(1-t)·current + t·candidate``) with
  the largest ``t`` the remaining budget provably allows, so partial
  versions of good moves still compete;
* when the budget is generous enough that a from-scratch re-layout fits
  inside it, the engine **falls back to full TS-GREEDY** and keeps
  whichever result costs less — so ``Δ = 1`` degenerates to the
  unconstrained search, and a hopeless budget degenerates to "keep the
  current layout" (cost never exceeds the current layout's).

Projection safety: movement is measured per object as half the L1
distance between fraction rows times the object size.  For the blend
row ``x(t) = (1-t)·x_cur + t·x_cand``, convexity of the L1 norm gives
``moved(x(t)) ≤ (1-t)·moved(x_cur) + t·moved(x_cand)``, so choosing
``t`` from the linear bound can only under-use the budget, never
violate it.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import ConstraintSet, MaxDataMovement
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.greedy import (
    SearchResult,
    TsGreedySearch,
    _Frontiers,
    _moved_blocks,
)
from repro.core.layout import Layout
from repro.core.tolerance import EPS_CAPACITY, EPS_COST
from repro.errors import LayoutError
from repro.obs import NULL_TELEMETRY
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph


class _BudgetedFrontiers(_Frontiers):
    """Frontiers whose over-budget moves are projected, not dropped.

    Before the capacity and movement checks, every frontier move that
    would overshoot the remaining budget is replaced by its largest
    feasible blend toward each member's current row, so the search can
    keep harvesting the improving direction of a move it can no longer
    afford in full.  Movement is measured as the movement constraint
    measures it: :func:`_moved_blocks` per row and the parent class's
    running ``_moved`` tally.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self._projected = 0

    def candidates(self, group: tuple[str, ...]) -> np.ndarray | None:
        rows = self._frontier(group)
        moved = sum(_moved_blocks(*self._baseline[name], rows[:, g])
                    for g, name in enumerate(group))
        used_others = sum(self._moved[name] for name in self.current
                          if name not in group)
        budget = self._constraints.movement.max_blocks - used_others
        over = moved > budget + EPS_CAPACITY
        if not over.any():
            return self._feasible(group, rows)
        moved_now = sum(self._moved[name] for name in group)
        headroom = budget - moved_now
        blend = over & (moved > moved_now) & (headroom > EPS_CAPACITY)
        t = (headroom / (moved[blend] - moved_now))[:, None, None]
        current = np.array([self.current[name] for name in group])
        blended = rows.copy()
        blended[blend] = (1.0 - t) * current + t * rows[blend]
        self._projected += int(blend.sum())
        return self._feasible(group, blended[~over | blend])

    def extras(self) -> dict[str, float]:
        return {"projected_moves": float(self._projected)}


class _BudgetedGreedySearch(TsGreedySearch):
    """TS-GREEDY whose over-budget candidates are projected, not dropped
    (see :class:`_BudgetedFrontiers`); its result's extras carry
    ``projected_moves``."""

    def _frontiers(self, layout: Layout, narrow: bool) -> _Frontiers:
        return _BudgetedFrontiers(self._farm, self._sizes, self._names,
                                  self._constraints, self._k, layout,
                                  narrow)


class IncrementalSearch:
    """Movement-budget-bounded re-layout seeded from the current layout.

    Args:
        farm: Available disk drives.
        evaluator: Precompiled workload cost evaluator (built from the
            *drifted* workload — the one the layout should now serve).
        object_sizes: Object name -> size in blocks.
        constraints: Optional manageability/availability constraints.
            Must not itself carry a movement constraint — the budget is
            this engine's to manage (pass ``movement_budget`` instead).
        k: TS-GREEDY's widening parameter.
        telemetry: Optional :class:`repro.obs.Telemetry`; opens an
            ``incremental`` span with ``incremental/seeded`` and
            ``incremental/full-relayout`` children, records
            ``incremental.*`` instruments, and is handed to the inner
            greedy searches (their spans, ``greedy-iteration`` /
            ``kl-pass`` events and ``greedy.*`` counters).
    """

    def __init__(self, farm: DiskFarm, evaluator: WorkloadCostEvaluator,
                 object_sizes: dict[str, int],
                 constraints: ConstraintSet | None = None,
                 k: int = 1, telemetry=NULL_TELEMETRY):
        self._farm = farm
        self._evaluator = evaluator
        self._sizes = dict(object_sizes)
        self._constraints = constraints or ConstraintSet()
        if self._constraints.movement is not None:
            raise LayoutError(
                "IncrementalSearch manages the movement budget itself; "
                "pass movement_budget instead of a MaxDataMovement "
                "constraint")
        self._k = k
        self._telemetry = telemetry

    def search(self, graph: AccessGraph, current_layout: Layout,
               movement_budget: float) -> SearchResult:
        """Find the best layout reachable within the movement budget.

        Args:
            graph: Access graph of the (drifted) workload.
            current_layout: The layout the data is in now; the search
                seed, the movement baseline, and the quality floor.
            movement_budget: Δ — the maximum fraction of the database's
                total blocks that may change disks, in ``[0, 1]``.

        Returns:
            A :class:`SearchResult` whose layout moves at most
            ``Δ * total_blocks`` blocks from ``current_layout`` and
            whose cost never exceeds the current layout's.  Extras
            carry ``moved_blocks`` / ``moved_fraction`` /
            ``movement_budget`` / ``projected_moves`` /
            ``full_relayout`` telemetry.
        """
        if not 0.0 <= movement_budget <= 1.0:
            raise LayoutError(
                f"movement budget must be a fraction in [0, 1], got "
                f"{movement_budget}")
        total_blocks = sum(self._sizes.values())
        max_blocks = movement_budget * total_blocks
        with self._telemetry.span("incremental",
                                  budget=movement_budget) as span:
            budgeted = ConstraintSet(
                co_located=self._constraints.co_located,
                availability=self._constraints.availability,
                movement=MaxDataMovement(current_layout, max_blocks))
            with self._telemetry.span("incremental/seeded"):
                seeded = _BudgetedGreedySearch(
                    self._farm, self._evaluator, self._sizes,
                    constraints=budgeted, k=self._k,
                    telemetry=self._telemetry)
                result = seeded.search(graph,
                                       initial_layout=current_layout)
            projected = int(result.extras["projected_moves"])
            # Fall back to a from-scratch re-layout when the budget can
            # afford it: seeding from the current layout is a local
            # refinement and cannot re-partition, so Δ -> 1 must
            # converge to the unconstrained TS-GREEDY result.
            with self._telemetry.span("incremental/full-relayout"):
                full = TsGreedySearch(
                    self._farm, self._evaluator, self._sizes,
                    constraints=self._constraints, k=self._k,
                    telemetry=self._telemetry).search(graph)
            full_moved = current_layout.data_movement_blocks(full.layout)
            used_full = (full_moved <= max_blocks + EPS_CAPACITY
                         and full.cost < result.cost - EPS_COST)
            if used_full:
                evaluations = result.evaluations + full.evaluations
                result = full
                result.evaluations = evaluations
            # The current layout (zero movement) is always feasible:
            # never return something the model scores worse than it.
            current_cost = self._evaluator.cost(current_layout)
            if result.cost >= current_cost - EPS_COST:
                result = result.with_layout(current_layout,
                                            current_cost)
            moved = current_layout.data_movement_blocks(result.layout)
            result.extras["moved_blocks"] = moved
            result.extras["moved_fraction"] = \
                moved / total_blocks if total_blocks else 0.0
            result.extras["movement_budget"] = movement_budget
            result.extras["projected_moves"] = float(projected)
            result.extras["full_relayout"] = float(used_full)
            span.set("moved_blocks", round(moved, 3))
            span.set("full_relayout", used_full)
            self._telemetry.set_gauge("incremental.moved_fraction",
                                      result.extras["moved_fraction"])
            self._telemetry.inc("incremental.projected_moves", projected)
            if used_full:
                self._telemetry.inc("incremental.full_relayout_fallbacks")
        return result
