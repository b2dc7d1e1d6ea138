"""TS-GREEDY: the paper's two-step greedy search (Section 6.2, Figure 9).

Step 1 (minimize co-location): partition the access graph into ``m``
partitions maximizing the cut weight, then pack partitions — in
descending total-node-weight order — onto the smallest disjoint sets of
fast disks that can hold them, merging a partition with its least
co-accessed predecessor when disjoint disks run out.

Step 2 (increase parallelism): starting from the step-1 layout, repeat-
edly try widening each object by at most ``k`` additional disks (striped
proportionally to transfer rates); apply the single best cost-improving
widening per iteration; stop when none improves the workload cost.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.layout import Layout, stripe_fractions
from repro.core.partitioning import PartitionStats, partition_access_graph
from repro.core.tolerance import EPS_CAPACITY, EPS_ZERO
from repro.errors import LayoutError
from repro.obs import NULL_TELEMETRY
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph


logger = logging.getLogger("repro.core.greedy")


@dataclass
class GreedyStep:
    """Telemetry of one step-2 greedy iteration.

    Attributes:
        iteration: 1-based iteration number.
        candidates: Candidate layouts costed this iteration.
        best_cost: Workload cost after the iteration (unchanged when no
            improving move was found).
        accepted: Whether an improving move was applied.
        changed: Objects whose placement the applied move changed.
    """

    iteration: int
    candidates: int
    best_cost: float
    accepted: bool
    changed: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"iteration": self.iteration,
                "candidates": self.candidates,
                "best_cost": float(self.best_cost),
                "accepted": self.accepted,
                "changed": list(self.changed)}


@dataclass(frozen=True)
class TrajectoryFailure:
    """Record of one portfolio trajectory that produced no result.

    Attributes:
        index: The trajectory's position in the portfolio spec list.
        label: Its display label (``TrajectorySpec.describe()``).
        cause: ``"timeout"``, ``"crash"`` (worker process died) or
            ``"error"`` (the trajectory raised).
        attempts: Total attempts made (including serial re-runs after
            a worker failure).
        message: The final error message, for diagnostics.
    """

    index: int
    label: str
    cause: str
    attempts: int = 1
    message: str = ""

    def to_dict(self) -> dict:
        return {"index": self.index, "label": self.label,
                "cause": self.cause, "attempts": self.attempts,
                "message": self.message}

    def describe(self) -> str:
        """One-line rendering for logs and reports."""
        noun = "attempt" if self.attempts == 1 else "attempts"
        text = (f"trajectory {self.index} ({self.label}): {self.cause} "
                f"after {self.attempts} {noun}")
        if self.message:
            text += f" — {self.message}"
        return text


@dataclass
class SearchResult:
    """Outcome and telemetry of one search run.

    Attributes:
        layout: The recommended layout.
        cost: Its estimated workload cost (seconds of I/O response time).
        initial_cost: Cost of the step-1 (pre-greedy) layout.
        iterations: Greedy iterations executed (accepted moves + final
            no-improvement round).
        evaluations: Candidate layouts costed.
        elapsed_s: Wall-clock search time.
        steps: Per-iteration step-2 telemetry, in execution order.
        kl_cut_weights: Cut weight after each KL pass of step 1 (empty
            when step 1 was skipped, e.g. incremental mode).
        extras: Method-specific scalar telemetry (e.g. annealing
            accept/reject counts).
        failures: One :class:`TrajectoryFailure` per lost portfolio
            trajectory.
    """

    layout: Layout
    cost: float
    initial_cost: float
    iterations: int = 0
    evaluations: int = 0
    elapsed_s: float = 0.0
    steps: list[GreedyStep] = field(default_factory=list)
    kl_cut_weights: tuple[float, ...] = ()
    extras: dict[str, float] = field(default_factory=dict)
    failures: list[TrajectoryFailure] = field(default_factory=list)

    @property
    def kl_passes(self) -> int:
        """KL partitioning passes executed in step 1."""
        return len(self.kl_cut_weights)

    @property
    def degraded(self) -> bool:
        """``True`` when some portfolio trajectories failed and the
        result is the exact best over the *completed* ones."""
        return bool(self.failures)

    def telemetry_dict(self) -> dict:
        """JSON-ready telemetry (everything except the layout itself)."""
        out = {
            "cost": float(self.cost),
            "initial_cost": float(self.initial_cost),
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "elapsed_s": float(self.elapsed_s),
            "steps": [step.to_dict() for step in self.steps],
            "kl_passes": self.kl_passes,
            "kl_cut_weights": [float(w) for w in self.kl_cut_weights],
            "extras": {k: float(v) for k, v in self.extras.items()},
        }
        if self.failures:
            out["degraded"] = True
            out["failures"] = [f.to_dict() for f in self.failures]
        return out

    def with_layout(self, layout: Layout, cost: float) -> "SearchResult":
        """A copy recommending ``layout`` but keeping the telemetry.

        Used when the advisor overrides the search outcome (e.g. the
        current layout scores better): the search's diagnostics should
        survive the substitution.
        """
        return SearchResult(layout=layout, cost=cost,
                            initial_cost=self.initial_cost,
                            iterations=self.iterations,
                            evaluations=self.evaluations,
                            elapsed_s=self.elapsed_s,
                            steps=list(self.steps),
                            kl_cut_weights=tuple(self.kl_cut_weights),
                            extras=dict(self.extras),
                            failures=list(self.failures))


class TsGreedySearch:
    """The TS-GREEDY search algorithm.

    Args:
        farm: Available disk drives.
        evaluator: Precompiled workload cost evaluator (shared across
            candidate layouts).
        object_sizes: Object name -> size in blocks.
        constraints: Optional manageability/availability constraints.
        k: Max disks added to one object per greedy move (paper uses 1).
        telemetry: Optional :class:`repro.obs.Telemetry`; opens a
            ``ts-greedy`` span with ``ts-greedy/step1`` (under the
            caller's span when :meth:`step1` ran ahead) and
            ``ts-greedy/step2`` children, emits one ``greedy-iteration``
            event per step-2 iteration and one ``kl-pass`` event per
            converged KL pass, and records ``greedy.*`` and
            ``partition.*`` instruments.
        partition_seed: ``None`` runs the canonical deterministic KL
            partitioning; an integer shuffles its processing order
            (deterministically per seed), yielding a different step-1
            starting point — the portfolio engine's multi-start lever.
        prune: Skip full evaluation of candidate moves whose transfer-
            only lower bound already exceeds the iteration's best cost.
            While every subplan weight is non-negative the bound is a
            provable underestimate, so the search result is
            bit-identical with pruning on or off; only the number of
            full evaluations changes.  A concurrency-expanded workload
            (``repro.workload.concurrency``) can carry negative
            weights, and there the two can differ.
    """

    def __init__(self, farm: DiskFarm, evaluator: WorkloadCostEvaluator,
                 object_sizes: dict[str, int],
                 constraints: ConstraintSet | None = None,
                 k: int = 1, telemetry=NULL_TELEMETRY,
                 partition_seed: int | None = None,
                 prune: bool = True):
        if k < 1:
            raise LayoutError("k must be at least 1")
        self._farm = farm
        self._evaluator = evaluator
        self._sizes = dict(object_sizes)
        self._constraints = constraints or ConstraintSet()
        self._k = k
        self._telemetry = telemetry
        self._partition_seed = partition_seed
        self._prune = prune
        self._names = evaluator.object_names
        missing = set(self._names) - set(self._sizes)
        if missing:
            raise LayoutError(f"no sizes for objects: {sorted(missing)}")
        # (graph, layout, KL stats, seconds) of the last step1() run.
        self._step1: tuple | None = None

    # -- public API ---------------------------------------------------------

    def step1(self, graph: AccessGraph) -> Layout:
        """Run step 1 alone and return its layout.

        The next :meth:`search` of the same ``graph`` without an
        initial layout refines this layout instead of partitioning
        again, so a caller can look at the starting point before it
        pays for step 2 and still pays for step 1 once.
        """
        start = time.perf_counter()
        kl_stats = PartitionStats()
        with self._telemetry.span("ts-greedy/step1"):
            layout = self._initial_layout(graph, kl_stats)
        self._step1 = (graph, layout, kl_stats,
                       time.perf_counter() - start)
        return layout

    def search(self, graph: AccessGraph,
               initial_layout: Layout | None = None) -> SearchResult:
        """Run both steps and return the best layout found.

        Args:
            graph: The workload's access graph (drives step 1).
            initial_layout: Skip step 1 and refine this layout instead —
                used for incremental mode under a data-movement
                constraint.
        """
        with self._telemetry.span("ts-greedy", k=self._k) as span:
            if initial_layout is None:
                if self._step1 is None or self._step1[0] is not graph:
                    self.step1(graph)
                _, layout, kl_stats, step1_s = self._step1
                self._step1 = None
            else:
                layout, kl_stats, step1_s = \
                    initial_layout, PartitionStats(), 0.0
            start = time.perf_counter()
            with self._telemetry.span("ts-greedy/step2"):
                # Incremental mode: refining an arbitrary starting layout
                # (e.g. full striping) also needs *narrowing* moves, or a
                # fully-striped start would be a trivial fixed point.
                result = self._greedy(layout,
                                      narrow=initial_layout is not None)
            result.elapsed_s = step1_s + time.perf_counter() - start
            result.kl_cut_weights = tuple(kl_stats.cut_weights)
            for index, weight in enumerate(result.kl_cut_weights):
                self._telemetry.emit("kl-pass", pass_index=index + 1,
                                     cut_weight=float(weight))
            span.set("iterations", result.iterations)
            span.set("evaluations", result.evaluations)
        logger.info(
            "ts-greedy: cost %.3f -> %.3f (%d iterations, %d layouts "
            "costed, %d KL passes, %.3fs)", result.initial_cost,
            result.cost, result.iterations, result.evaluations,
            result.kl_passes, result.elapsed_s)
        return result

    # -- step 1: partition & pack ------------------------------------------------

    def _initial_layout(self, graph: AccessGraph,
                        kl_stats: PartitionStats | None = None) -> Layout:
        m = len(self._farm)
        partitions = [p for p in
                      partition_access_graph(graph, m, nodes=self._names,
                                             stats=kl_stats,
                                             telemetry=self._telemetry,
                                             seed=self._partition_seed)
                      if p]
        partitions = self._apply_co_location(partitions)
        partitions.sort(key=lambda p: (-sum(graph.node_weight(o)
                                            for o in p), p[0]))
        rate_order = self._farm.indices_by_read_rate()
        free = [0.0] * m  # blocks already promised per disk
        used_disks: set[int] = set()
        assignment: dict[int, tuple[int, ...]] = {}  # partition -> disks
        disk_sets: list[tuple[int, ...]] = []
        for index, part in enumerate(partitions):
            size = sum(self._sizes[o] for o in part)
            allowed = self._allowed_for(part)
            chosen = self._pick_disjoint(size, allowed, used_disks, free,
                                         rate_order)
            if chosen is None:
                chosen = self._merge_target(graph, part, partitions,
                                            assignment, size, free)
            if chosen is None:
                raise LayoutError(
                    "step 1 could not place partition within capacity")
            assignment[index] = chosen
            used_disks.update(chosen)
            for j in chosen:
                free[j] += size * self._stripe_share(chosen, j)
            disk_sets.append(chosen)
        fractions = {}
        for part, disks in zip(partitions, disk_sets):
            row = stripe_fractions(disks, self._farm)
            for name in part:
                fractions[name] = row
        layout = Layout(self._farm, self._sizes, fractions)
        self._constraints.check(layout)
        return layout

    def _apply_co_location(self,
                           partitions: list[list[str]]) -> list[list[str]]:
        """Pull each co-location group into one partition."""
        groups = self._constraints.groups()
        if not groups:
            return partitions
        part_of = {name: i for i, part in enumerate(partitions)
                   for name in part}
        for group in groups:
            members = sorted(n for n in group if n in part_of)
            if not members:
                continue
            target = part_of[max(members, key=lambda n: self._sizes[n])]
            for name in members:
                part_of[name] = target
        rebuilt: list[list[str]] = [[] for _ in partitions]
        for name, index in part_of.items():
            rebuilt[index].append(name)
        return [sorted(p) for p in rebuilt if p]

    def _allowed_for(self, part: list[str]) -> list[int]:
        allowed = set(range(len(self._farm)))
        for name in part:
            allowed &= set(self._constraints.allowed_disks(name,
                                                           self._farm))
        if not allowed:
            raise LayoutError(
                f"no disk satisfies all constraints of partition {part}")
        return sorted(allowed)

    def _stripe_share(self, disks: tuple[int, ...], j: int) -> float:
        total = sum(self._farm[d].read_mb_s for d in disks)
        return self._farm[j].read_mb_s / total

    def _pick_disjoint(self, size: float, allowed: list[int],
                       used: set[int], free: list[float],
                       rate_order: list[int]) -> tuple[int, ...] | None:
        """Smallest prefix of unused fast disks that can hold ``size``."""
        candidates = [j for j in rate_order
                      if j in set(allowed) and j not in used]
        chosen: list[int] = []
        capacity = 0.0
        for j in candidates:
            chosen.append(j)
            capacity += self._farm[j].capacity_blocks - free[j]
            if capacity >= size:
                return tuple(sorted(chosen))
        return None

    def _merge_target(self, graph: AccessGraph, part: list[str],
                      partitions: list[list[str]],
                      assignment: dict[int, tuple[int, ...]],
                      size: float,
                      free: list[float]) -> tuple[int, ...] | None:
        """Disk set of the least co-accessed, capacity-feasible
        previously-assigned partition."""
        best: tuple[float, int] | None = None
        allowed = set(self._allowed_for(part))
        for index, disks in assignment.items():
            if not set(disks) <= allowed:
                continue
            headroom = sum(self._farm[j].capacity_blocks - free[j]
                           for j in disks)
            if headroom < size:
                continue
            weight = graph.group_edge_weight(part, partitions[index])
            if best is None or (weight, index) < best:
                best = (weight, index)
        if best is None:
            return None
        return assignment[best[1]]

    # -- step 2: greedy widening -----------------------------------------------------

    def _greedy(self, layout: Layout, narrow: bool) -> SearchResult:
        cost = self._evaluator.set_base(self._evaluator.matrix_of(layout))
        result = SearchResult(layout=layout, cost=cost, initial_cost=cost)
        frontiers = self._frontiers(layout, narrow)
        groups = list(dict.fromkeys(
            tuple(sorted(self._constraints.group_of(name)))
            for name in self._names))
        pruned_total = 0
        while True:
            result.iterations += 1
            iteration_evals = 0
            best_cost = cost
            best_change: dict[str, np.ndarray] | None = None
            for group in groups:
                rows = frontiers.candidates(group)
                if rows is None:
                    continue
                # One fused prune+evaluate call per move: bounds for
                # every candidate, full costs for the survivors,
                # selection inside the kernel.
                candidate_cost, index, pruned = \
                    self._evaluator.best_for_rows(
                        group, rows, best_cost, prune=self._prune)
                pruned_total += pruned
                evaluated = len(rows) - pruned
                result.evaluations += evaluated
                iteration_evals += evaluated
                if index >= 0:
                    best_cost = candidate_cost
                    best_change = dict(zip(group, rows[index]))
            if best_change is not None:
                frontiers.commit(best_change)
                # O(Δ) adoption: only the subplans touching the moved
                # objects are re-costed (bit-identical to a full
                # set_base).
                cost = self._evaluator.commit_rows(best_change)
            step = GreedyStep(
                iteration=result.iterations, candidates=iteration_evals,
                best_cost=float(cost), accepted=best_change is not None,
                changed=tuple(sorted(best_change or ())))
            result.steps.append(step)
            self._telemetry.emit("greedy-iteration", **step.to_dict())
            if best_change is None:
                break
            logger.debug(
                "greedy iteration %d: widened %s, cost %.3f "
                "(%d candidates)", result.iterations,
                ",".join(sorted(best_change)), cost, iteration_evals)
        self._telemetry.inc("greedy.iterations", result.iterations)
        self._telemetry.inc("greedy.evaluations", result.evaluations)
        self._telemetry.inc("greedy.pruned_candidates", pruned_total)
        self._telemetry.inc("greedy.accepted_moves",
                            sum(1 for s in result.steps if s.accepted))
        result.extras["pruned_candidates"] = float(pruned_total)
        result.extras.update(frontiers.extras())
        for step in result.steps:
            self._telemetry.observe("greedy.candidates_per_iteration",
                                    step.candidates)
        final = Layout(self._farm, self._sizes, frontiers.current)
        if self._constraints.movement is not None \
                and not self._constraints.is_satisfied(final):
            # Should not happen: moves are filtered; fail loudly if so.
            raise LayoutError("greedy produced a constraint-violating "
                              "layout")
        result.layout = final
        result.cost = cost
        return result

    def _frontiers(self, layout: Layout, narrow: bool) -> "_Frontiers":
        """The candidate source of one step-2 run starting at ``layout``."""
        return _Frontiers(self._farm, self._sizes, self._names,
                          self._constraints, self._k, layout, narrow)


def _subset_masks(disks: list[int], size: int, m: int) -> np.ndarray:
    """``(C, m)`` masks of every ``size``-subset of ``disks``, one row
    per subset in ``itertools.combinations`` order."""
    combos = np.array(list(itertools.combinations(disks, size)),
                      dtype=np.intp).reshape(-1, size)
    masks = np.zeros((len(combos), m), dtype=bool)
    masks[np.arange(len(combos))[:, None], combos] = True
    return masks


def _moved_blocks(size: float, base: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """Blocks an object of ``size`` moves from row ``base`` to each of
    ``rows``: :meth:`Layout.data_movement_blocks`' per-object term, with
    the L1 distance accumulated in the same ascending disk order."""
    return size * np.cumsum(np.abs(base - rows), axis=-1)[..., -1] / 2.0


class _Frontiers:
    """Step 2's candidate moves and their feasibility, for one run.

    Holds the run's mutable state: each object's current row and the
    blocks used on each disk.  A *move* widens or narrows one object, or
    a co-location group whose members move as one.  A group's
    *frontier* is every move one step can make, as one ``(C, G, m)``
    array in move order (``[c, g]`` is member ``g``'s row in move
    ``c``; ``G = 1`` for a lone object): widen by 1..k allowed disks,
    then (``narrow``, seeded runs) drop 1..k of its disks, each in
    ``itertools.combinations`` order.  It is built from boolean disk
    masks and the read-rate vector, and depends only on the lead
    object's disk set, so it is cached until the group itself moves.
    Row totals accumulate in ascending disk order, as
    :func:`stripe_fractions` sums them, so every row is bit-identical
    to that function's.

    Capacity and the movement constraint are then checked for the whole
    frontier at once, with the same floating-point operations per row as
    a per-candidate check, so the surviving rows and their order are
    exactly those of a per-candidate search.
    """

    def __init__(self, farm: DiskFarm, sizes: dict[str, int],
                 names: list[str], constraints: ConstraintSet, k: int,
                 layout: Layout, narrow: bool):
        self._farm = farm
        self._sizes = sizes
        self._constraints = constraints
        self._k = k
        self._narrow = narrow
        self._rates = np.array([d.read_mb_s for d in farm], dtype=float)
        self._limit = np.array([d.capacity_blocks for d in farm]) \
            + EPS_CAPACITY
        self.current = {name: np.asarray(layout.fractions_of(name),
                                         dtype=float)
                        for name in names}
        self.disk_used = np.array([layout.disk_used_blocks(j)
                                   for j in range(len(farm))])
        self._rows: dict[tuple[str, ...], np.ndarray] = {}
        movement = constraints.movement
        # Baseline size and row per object, in the baseline's order.
        self._baseline: dict[str, tuple[float, np.ndarray]] = {}
        if movement is not None:
            baseline = movement.baseline
            if set(baseline.object_names) != set(self.current) \
                    or len(baseline.farm) != len(farm):
                raise LayoutError("movement baseline covers different "
                                  "objects or disks")
            self._baseline = {
                name: (baseline.size_of(name),
                       np.asarray(baseline.fractions_of(name),
                                  dtype=float))
                for name in baseline.object_names}
            self._max_moved = movement.max_blocks + EPS_CAPACITY
            # Each object's movement at its current row, kept up to
            # date by commit().
            self._moved = {name: _moved_blocks(size, base,
                                               self.current[name])
                           for name, (size, base) in self._baseline.items()}

    def candidates(self, group: tuple[str, ...]) -> np.ndarray | None:
        """The group's feasible moves, in move order, as ``(C, G, m)``.

        Returns ``None`` when the group has no feasible move.
        """
        return self._feasible(group, self._frontier(group))

    def commit(self, change: dict[str, np.ndarray]) -> None:
        """Adopt one group's move (``change`` keys are the group, in
        order)."""
        for name, row in change.items():
            self.disk_used += self._sizes[name] * (row - self.current[name])
            self.current[name] = row
            if self._baseline:
                self._moved[name] = _moved_blocks(*self._baseline[name], row)
        self._rows.pop(tuple(change), None)

    def extras(self) -> dict[str, float]:
        """Run telemetry for :attr:`SearchResult.extras`."""
        return {}

    def _frontier(self, group: tuple[str, ...]) -> np.ndarray:
        rows = self._rows.get(group)
        if rows is None:
            lead = self._build(group[0])
            # Every member takes the lead's row: a read-only view.
            rows = self._rows[group] = np.broadcast_to(
                lead[:, None, :], (len(lead), len(group), lead.shape[1]))
        return rows

    def _build(self, lead: str) -> np.ndarray:
        m = len(self._farm)
        now = self.current[lead] > EPS_ZERO
        held = np.flatnonzero(now).tolist()
        allowed = self._constraints.allowed_disks(lead, self._farm)
        spare = [j for j in allowed if not now[j]]
        # Widening stops at the spare disks: a larger k adds no row.
        # The leading empty block keeps an object already on every
        # allowed disk at an empty (0, m) frontier.
        masks = [np.zeros((0, m), dtype=bool)]
        masks += [now | _subset_masks(spare, size, m)
                  for size in range(1, min(self._k, len(spare)) + 1)]
        if self._narrow:
            masks += [now & ~_subset_masks(held, size, m)
                      for size in range(1, min(self._k, len(held) - 1) + 1)]
        rated = np.where(np.concatenate(masks), self._rates, 0.0)
        # Sequential ascending-disk totals (cumsum), not numpy's
        # pairwise sum(axis=1), which changes the low bits of some rows.
        return rated / np.cumsum(rated, axis=1)[:, -1:]

    def _feasible(self, group: tuple[str, ...],
                  rows: np.ndarray) -> np.ndarray | None:
        """The moves of ``rows`` (``(C, G, m)``) that fit capacity and
        the movement constraint."""
        delta = sum(self._sizes[name] * (rows[:, g] - self.current[name])
                    for g, name in enumerate(group))
        fits = ~(self.disk_used + delta > self._limit).any(axis=1)
        if self._baseline:
            # Summed in the baseline's object order, as
            # Layout.data_movement_blocks does.
            moved = 0.0
            for name, (size, base) in self._baseline.items():
                moved = moved + (
                    _moved_blocks(size, base, rows[:, group.index(name)])
                    if name in group else self._moved[name])
            fits &= ~(moved > self._max_moved)
        if not fits.any():
            return None
        if fits.all():
            return rows
        return rows[fits]
