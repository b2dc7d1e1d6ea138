"""TS-GREEDY step 2's candidate frontiers against the per-candidate
search they replaced.

Step 2 builds each co-location group's candidate moves as one row
array and checks capacity, the movement constraint and the movement
budget for the whole frontier at once.  The reference below is the
per-candidate step 2 it replaced: one ``stripe_fractions`` call, one
dict and one ``_fits`` check per candidate, a ``Layout`` per candidate
under a movement constraint, and one projection per over-budget
candidate.  Two parts follow the current definitions rather than the
old code: a co-location group's candidates are costed as one move
through ``best_for_rows``, pruning included, and the movement budget is
measured as the movement constraint measures it (half the L1 distance
summed in ascending disk order).  Results, counters and events must be
identical — compared bit for bit, not approximately.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchdb.synth import synthetic_workload
from repro.benchdb.tpch import tpch_database
from repro.core import greedy, incremental
from repro.core.constraints import (
    AvailabilityRequirement,
    CoLocated,
    ConstraintSet,
    MaxDataMovement,
)
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.greedy import (
    GreedyStep,
    SearchResult,
    TsGreedySearch,
    _Frontiers,
    _moved_blocks,
)
from repro.core.incremental import IncrementalSearch
from repro.core.layout import Layout, stripe_fractions
from repro.core.random_layout import random_layout
from repro.core.tolerance import EPS_CAPACITY, EPS_ZERO
from repro.errors import LayoutError, ReproError
from repro.obs import Telemetry
from repro.obs.events import canonical_lines
from repro.storage.disk import Availability, DiskFarm, winbench_farm
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph

_HARNESS = settings(deadline=None, max_examples=12, derandomize=True)


# -- the reference: per-candidate step 2 -----------------------------------


class ReferenceGreedy(TsGreedySearch):
    """TS-GREEDY with the per-candidate step 2 of earlier releases."""

    def _greedy(self, layout: Layout, narrow: bool) -> SearchResult:
        self._allow_removals = narrow
        matrix = self._evaluator.matrix_of(layout)
        cost = self._evaluator.set_base(matrix)
        initial_cost = cost
        disk_used = np.array([layout.disk_used_blocks(j)
                              for j in range(len(self._farm))])
        capacity = np.array([d.capacity_blocks for d in self._farm])
        groups = {name: sorted(self._constraints.group_of(name))
                  for name in self._names}
        result = SearchResult(layout=layout, cost=cost,
                              initial_cost=initial_cost)
        current = {name: np.asarray(layout.fractions_of(name),
                                    dtype=float)
                   for name in self._names}
        pruned_total = 0
        while True:
            result.iterations += 1
            iteration_evals = 0
            best_cost = cost
            best_change = None
            seen_groups = set()
            for name in self._names:
                group = tuple(groups[name])
                if group in seen_groups:
                    continue
                seen_groups.add(group)
                feasible = [change for change in
                            self._moves(group, current)
                            if self._fits(change, current, disk_used,
                                          capacity)]
                if not feasible:
                    continue
                if len(group) == 1:
                    rows = np.array([change[name]
                                     for change in feasible])
                    move = name
                else:
                    # A group is costed as one move: (C, G, m) rows
                    # through the same kernel, pruning included.
                    rows = np.array([[change[member] for member in group]
                                     for change in feasible])
                    move = group
                candidate_cost, index, pruned = \
                    self._evaluator.best_for_rows(
                        move, rows, best_cost, prune=self._prune)
                pruned_total += pruned
                evaluated = len(feasible) - pruned
                result.evaluations += evaluated
                iteration_evals += evaluated
                if index >= 0:
                    best_cost = candidate_cost
                    best_change = feasible[index]
            if best_change is None:
                result.steps.append(GreedyStep(
                    iteration=result.iterations,
                    candidates=iteration_evals, best_cost=float(cost),
                    accepted=False))
                self._telemetry.emit(
                    "greedy-iteration", iteration=result.iterations,
                    candidates=iteration_evals, best_cost=float(cost),
                    accepted=False, changed=[])
                break
            for name, row in best_change.items():
                disk_used += self._sizes[name] * (row - current[name])
                current[name] = row
            cost = self._evaluator.commit_rows(dict(best_change))
            result.steps.append(GreedyStep(
                iteration=result.iterations, candidates=iteration_evals,
                best_cost=float(cost), accepted=True,
                changed=tuple(sorted(best_change))))
            self._telemetry.emit(
                "greedy-iteration", iteration=result.iterations,
                candidates=iteration_evals, best_cost=float(cost),
                accepted=True, changed=sorted(best_change))
        self._telemetry.inc("greedy.iterations", result.iterations)
        self._telemetry.inc("greedy.evaluations", result.evaluations)
        self._telemetry.inc("greedy.pruned_candidates", pruned_total)
        self._telemetry.inc("greedy.accepted_moves",
                            sum(1 for s in result.steps if s.accepted))
        result.extras["pruned_candidates"] = float(pruned_total)
        result.extras.update(self._reference_extras())
        for step in result.steps:
            self._telemetry.observe("greedy.candidates_per_iteration",
                                    step.candidates)
        final = Layout(self._farm, self._sizes, current)
        if self._constraints.movement is not None \
                and not self._constraints.is_satisfied(final):
            raise LayoutError("greedy produced a constraint-violating "
                              "layout")
        result.layout = final
        result.cost = cost
        return result

    def _reference_extras(self) -> dict[str, float]:
        return {}

    def _moves(self, group, current):
        lead = group[0]
        disks_now = tuple(j for j, f in enumerate(current[lead])
                          if f > EPS_ZERO)
        allowed = self._constraints.allowed_disks(lead, self._farm)
        remaining = [j for j in allowed if j not in set(disks_now)]
        for size in range(1, self._k + 1):
            for combo in itertools.combinations(remaining, size):
                row = np.array(stripe_fractions(disks_now + combo,
                                                self._farm))
                yield {name: row for name in group}
        if self._allow_removals:
            for size in range(1, min(self._k, len(disks_now) - 1) + 1):
                for combo in itertools.combinations(disks_now, size):
                    kept = tuple(j for j in disks_now
                                 if j not in set(combo))
                    row = np.array(stripe_fractions(kept, self._farm))
                    yield {name: row for name in group}

    def _fits(self, change, current, disk_used, capacity) -> bool:
        delta = np.zeros(len(self._farm))
        for name, row in change.items():
            delta += self._sizes[name] * (row - current[name])
        if np.any(disk_used + delta > capacity + EPS_CAPACITY):
            return False
        movement = self._constraints.movement
        if movement is not None:
            trial = dict(current)
            trial.update(change)
            layout = Layout(self._farm, self._sizes, trial,
                            check_capacity=False)
            if movement.baseline.data_movement_blocks(layout) \
                    > movement.max_blocks + EPS_CAPACITY:
                return False
        return True


class ReferenceBudgeted(ReferenceGreedy):
    """The budgeted search's per-candidate projection."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        movement = self._constraints.movement
        self._baseline_rows = {
            name: np.asarray(movement.baseline.fractions_of(name),
                             dtype=float)
            for name in self._names}
        self._max_blocks = movement.max_blocks
        self.projected_moves = 0

    def _reference_extras(self) -> dict[str, float]:
        return {"projected_moves": float(self.projected_moves)}

    def _movement_of(self, name, row) -> np.float64:
        """The movement constraint's measure: half the L1 distance,
        summed in ascending disk order, times the object's size.

        A numpy scalar, so ``sum()`` adds these in order on every
        Python version (3.12's ``sum()`` compensates Python floats), as
        the search does.
        """
        base = self._baseline_rows[name]
        distance = 0.0
        for value in np.abs(row - base):
            distance += float(value)
        return np.float64(self._sizes[name] * distance / 2.0)

    def _moves(self, group, current):
        used_others = sum(
            self._movement_of(name, current[name])
            for name in self._names if name not in set(group))
        budget = self._max_blocks - used_others
        moved_now = sum(self._movement_of(name, current[name])
                        for name in group)
        for change in super()._moves(group, current):
            moved_cand = sum(self._movement_of(name, change[name])
                             for name in group)
            if moved_cand <= budget + EPS_CAPACITY:
                yield change
                continue
            headroom = budget - moved_now
            if headroom <= EPS_CAPACITY or moved_cand <= moved_now:
                continue
            t = headroom / (moved_cand - moved_now)
            projected = {
                name: (1.0 - t) * current[name] + t * change[name]
                for name in change}
            self.projected_moves += 1
            yield projected


# -- cases -------------------------------------------------------------------

_DB = tpch_database()
_SIZES = _DB.object_sizes()
_NAMES = sorted(_SIZES)
_TOTAL = sum(_SIZES.values())


@dataclasses.dataclass
class Case:
    farm: DiskFarm
    analyzed: object
    graph: object
    constraints: ConstraintSet
    k: int
    prune: bool
    seed: int

    def evaluator(self, telemetry) -> WorkloadCostEvaluator:
        return WorkloadCostEvaluator(self.analyzed, self.farm, _NAMES,
                                     telemetry=telemetry)

    def layout(self) -> Layout:
        """A seeded random layout that satisfies the case's
        constraints: each co-location group striped over a random
        subset of the disks it may use."""
        rng = random.Random(self.seed)
        groups = {name: sorted(self.constraints.group_of(name))
                  for name in _NAMES}
        for _ in range(200):
            fractions = {}
            for name in _NAMES:
                if name in fractions:
                    continue
                allowed = self.constraints.allowed_disks(name, self.farm)
                row = stripe_fractions(
                    rng.sample(allowed, rng.randint(1, len(allowed))),
                    self.farm)
                fractions.update(dict.fromkeys(groups[name], row))
            try:
                return Layout(self.farm, _SIZES, fractions)
            except LayoutError:
                continue
        raise LayoutError("no capacity-feasible random layout")


@st.composite
def cases(draw, co_location: bool | None = None) -> Case:
    m = draw(st.integers(4, 12))
    # Capacity from 1.6x to 6x the database: from binding to ample.
    slack = draw(st.floats(1.6, 6.0))
    farm = winbench_farm(m, capacity_gb=_TOTAL * slack / m / 16384,
                         seed=draw(st.integers(0, 10_000)))
    mirrored = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    if mirrored:
        farm = DiskFarm([dataclasses.replace(
            d, availability=Availability.MIRRORING)
            if j in mirrored else d for j, d in enumerate(farm)])
    names = st.sampled_from(_NAMES)
    availability = [AvailabilityRequirement(name, Availability.MIRRORING)
                    for name in draw(st.sets(names, max_size=3))] \
        if mirrored else []
    if co_location is None:
        co_location = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(names, names).filter(
        lambda p: p[0] != p[1]), min_size=1, max_size=2)) \
        if co_location else []
    seed = draw(st.integers(0, 10_000))
    workload = synthetic_workload(draw(st.integers(4, 9)), seed)
    analyzed = analyze_workload(workload, _DB)
    return Case(farm=farm, analyzed=analyzed,
                graph=build_access_graph(analyzed, _DB),
                constraints=ConstraintSet(
                    co_located=[CoLocated(a, b) for a, b in pairs],
                    availability=availability),
                k=draw(st.sampled_from([1, 2])), prune=draw(st.booleans()),
                seed=seed)


def _run(run) -> tuple:
    """Run one search with fresh telemetry; capture everything."""
    telemetry = Telemetry(run_id="harness", clock=lambda: 0.0)
    try:
        result = run(telemetry)
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc)), None, None
    return (result, telemetry.metrics.to_dict(),
            canonical_lines(telemetry.events))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_identical(new, reference) -> None:
    new_result, new_metrics, new_events = new
    ref_result, ref_metrics, ref_events = reference
    if isinstance(ref_result, tuple):
        assert new_result == ref_result
        return
    assert isinstance(new_result, SearchResult)
    assert _bits(new_result.cost) == _bits(ref_result.cost)
    assert _bits(new_result.initial_cost) == _bits(ref_result.initial_cost)
    assert new_result.layout.object_names == ref_result.layout.object_names
    for name in ref_result.layout.object_names:
        assert _bits(new_result.layout.fractions_of(name)) \
            == _bits(ref_result.layout.fractions_of(name)), name
    assert new_result.iterations == ref_result.iterations
    assert new_result.evaluations == ref_result.evaluations
    assert [s.to_dict() for s in new_result.steps] \
        == [s.to_dict() for s in ref_result.steps]
    assert new_result.extras == ref_result.extras
    assert new_result.kl_cut_weights == ref_result.kl_cut_weights
    assert new_metrics["counters"] == ref_metrics["counters"]
    assert new_metrics["gauges"] == ref_metrics["gauges"]
    assert new_events == ref_events


def _greedy(case: Case, cls, initial=None, constraints=None):
    def run(telemetry):
        search = cls(case.farm, case.evaluator(telemetry), _SIZES,
                     constraints=constraints or case.constraints,
                     k=case.k, telemetry=telemetry, prune=case.prune)
        return search.search(case.graph, initial_layout=initial)
    return _run(run)


def _incremental(case: Case, budget: float, reference: bool):
    def run(telemetry):
        return IncrementalSearch(
            case.farm, case.evaluator(telemetry), _SIZES,
            constraints=case.constraints, k=case.k,
            telemetry=telemetry).search(case.graph, case.layout(),
                                        budget)
    if not reference:
        return _run(run)
    with mock.patch.object(incremental, "_BudgetedGreedySearch",
                           ReferenceBudgeted), \
            mock.patch.object(incremental, "TsGreedySearch",
                              ReferenceGreedy):
        return _run(run)


# -- equivalence -------------------------------------------------------------


class TestFrontierMatchesPerCandidateSearch:
    @_HARNESS
    @given(case=cases())
    def test_fresh_search(self, case):
        _assert_identical(_greedy(case, TsGreedySearch),
                          _greedy(case, ReferenceGreedy))

    @_HARNESS
    @given(case=cases(co_location=True))
    def test_fresh_search_with_co_location(self, case):
        _assert_identical(_greedy(case, TsGreedySearch),
                          _greedy(case, ReferenceGreedy))

    @_HARNESS
    @given(case=cases(), budget=st.floats(0.02, 0.6))
    def test_seeded_search_under_movement_constraint(self, case, budget):
        start = case.layout()
        constraints = ConstraintSet(
            co_located=case.constraints.co_located,
            availability=case.constraints.availability,
            movement=MaxDataMovement(start, budget * _TOTAL))
        _assert_identical(
            _greedy(case, TsGreedySearch, start, constraints),
            _greedy(case, ReferenceGreedy, start, constraints))

    @_HARNESS
    @given(case=cases(), budget=st.floats(0.05, 0.6))
    def test_incremental_search(self, case, budget):
        _assert_identical(_incremental(case, budget, reference=False),
                          _incremental(case, budget, reference=True))


# -- the frontier rows themselves ------------------------------------------


def _frontier(farm: DiskFarm, disks, allowed, k: int,
              narrow: bool) -> np.ndarray:
    """The frontier rows of one object striped over ``disks`` that may
    only widen onto ``allowed``."""
    farm = DiskFarm([dataclasses.replace(
        d, availability=Availability.MIRRORING if j in allowed
        else Availability.NONE) for j, d in enumerate(farm)])
    sizes = {"t": 1}
    start = Layout(farm, sizes, {"t": stripe_fractions(disks, farm)})
    constraints = ConstraintSet(availability=[
        AvailabilityRequirement("t", Availability.MIRRORING)])
    rows = _Frontiers(farm, sizes, ["t"], constraints, k, start,
                      narrow).candidates(("t",))
    return np.empty((0, len(farm))) if rows is None else rows[:, 0]


def _expected(disks, allowed, k: int,
              narrow: bool) -> list[tuple[int, ...]]:
    """The disk sets of every move, in per-candidate search order."""
    now = tuple(sorted(disks))
    spare = [j for j in sorted(allowed) if j not in now]
    sets = [now + combo for size in range(1, k + 1)
            for combo in itertools.combinations(spare, size)]
    if narrow:
        sets += [tuple(j for j in now if j not in combo)
                 for size in range(1, min(k, len(now) - 1) + 1)
                 for combo in itertools.combinations(now, size)]
    return sets


class TestFrontierRows:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(data=st.data())
    def test_rows_equal_stripe_fractions_in_move_order(self, data):
        m = data.draw(st.integers(4, 12))
        farm = winbench_farm(m, seed=data.draw(st.integers(0, 10_000)))
        disks = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
        allowed = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
        k = data.draw(st.integers(1, 3))
        narrow = data.draw(st.booleans())
        rows = _frontier(farm, disks, allowed, k, narrow)
        sets = _expected(disks, allowed, k, narrow)
        assert len(rows) == len(sets)
        for row, disk_set in zip(rows, sets):
            assert _bits(row) == _bits(stripe_fractions(disk_set, farm))

    def test_every_disk_set_of_a_12_disk_farm(self):
        # Narrowing a fully striped object by 1..11 disks reaches every
        # proper non-empty disk set; numpy's pairwise row sums would
        # change the low bits of hundreds of them.
        farm = winbench_farm(12)
        rows = _frontier(farm, range(12), range(12), 11, narrow=True)
        sets = _expected(range(12), range(12), 11, narrow=True)
        assert len(rows) == 2 ** 12 - 2
        expected = np.array([stripe_fractions(s, farm) for s in sets])
        assert _bits(rows) == _bits(expected)

    def test_widening_stops_at_the_spare_disks(self):
        # A k past the spare disks adds no row: the frontier at
        # k = 10**4 is k = m - 1's, built with at most m widen calls,
        # and an object already on every disk keeps an empty frontier.
        farm = winbench_farm(8)
        m = len(farm)
        sizes = {"t": 1}

        def build(disks, k):
            start = Layout(farm, sizes,
                           {"t": stripe_fractions(disks, farm)})
            return _Frontiers(farm, sizes, ["t"], ConstraintSet(), k,
                              start, narrow=False)._build("t")

        with mock.patch.object(greedy, "_subset_masks",
                               wraps=greedy._subset_masks) as masks:
            wide = build((2, 5), 10 ** 4)
            assert masks.call_count <= m
            masks.reset_mock()
            everywhere = build(range(m), 10 ** 4)
            assert masks.call_count == 0
        assert _bits(wide) == _bits(build((2, 5), m - 1))
        assert everywhere.shape == (0, m)
        assert everywhere.dtype == np.float64

    @pytest.mark.parametrize("m", [4, 9, 12])
    def test_movement_terms_add_up_to_layout_distance(self, m):
        farm = winbench_farm(m)
        baseline = random_layout(_SIZES, farm, seed=m)
        for seed in range(20):
            target = random_layout(_SIZES, farm, seed=1000 + seed)
            moved = 0.0
            for name in baseline.object_names:
                moved = moved + _moved_blocks(
                    baseline.size_of(name),
                    np.asarray(baseline.fractions_of(name)),
                    np.asarray([target.fractions_of(name)]))[0]
            assert _bits(moved) \
                == _bits(baseline.data_movement_blocks(target))
