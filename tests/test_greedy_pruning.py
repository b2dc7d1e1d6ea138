"""Bound-based pruning: parity with unpruned search, bound soundness.

The transfer-only lower bound drops the (non-negative) seek term from
the Figure-7 per-disk cost, so ``bound(x) <= cost(x)`` must hold for
*every* layout — that inequality is the whole correctness argument for
skipping full evaluation of candidates whose bound already exceeds the
incumbent (see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.layout import stripe_fractions
from repro.core.random_layout import random_layout
from repro.errors import LayoutError
from repro.obs import Telemetry
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph


def lower_bound_matrix(evaluator: WorkloadCostEvaluator,
                       matrix: np.ndarray) -> float:
    """Transfer-only lower bound on a fraction matrix's cost.

    Drops the Figure-7 seek term: for every subplan the bound is
    ``max_j sum_i x_ij * B_i / T_j``.  Since the seek term is
    non-negative, this never exceeds the true cost — the oracle for the
    evaluator's per-candidate bounds.
    """
    sub = matrix[evaluator._idx] * evaluator._blocks[:, :, None] \
        * evaluator._mask[:, :, None]
    transfer = (sub * evaluator._inv).sum(axis=1)        # (S, m)
    if transfer.shape[0] == 0:
        return 0.0
    return float(transfer.max(axis=1) @ evaluator._weights)


@pytest.fixture
def case(mini_db, join_workload, farm8):
    analyzed = analyze_workload(join_workload, mini_db)
    sizes = mini_db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
    graph = build_access_graph(analyzed, mini_db)
    return evaluator, graph, sizes, farm8


class TestPruningParity:
    def test_pruned_search_is_bit_identical(self, case):
        evaluator, graph, sizes, farm = case
        plain = TsGreedySearch(farm, evaluator, sizes,
                               prune=False).search(graph)
        pruned = TsGreedySearch(farm, evaluator, sizes,
                                prune=True).search(graph)
        assert pruned.cost == plain.cost
        for name in plain.layout.object_names:
            assert pruned.layout.fractions_of(name) \
                == plain.layout.fractions_of(name)
        # Same decisions step by step, not just the same endpoint.
        assert [s.best_cost for s in pruned.steps] \
            == [s.best_cost for s in plain.steps]
        assert [s.changed for s in pruned.steps] \
            == [s.changed for s in plain.steps]

    def test_pruning_skips_work(self, case):
        evaluator, graph, sizes, farm = case
        plain = TsGreedySearch(farm, evaluator, sizes,
                               prune=False).search(graph)
        pruned = TsGreedySearch(farm, evaluator, sizes,
                                prune=True).search(graph)
        assert pruned.evaluations < plain.evaluations
        assert pruned.extras["pruned_candidates"] > 0
        assert plain.extras["pruned_candidates"] == 0

    def test_pruned_counter_reported(self, case):
        evaluator, graph, sizes, farm = case
        telemetry = Telemetry()
        result = TsGreedySearch(farm, evaluator, sizes, prune=True,
                                telemetry=telemetry).search(graph)
        assert telemetry.value("greedy.pruned_candidates") \
            == result.extras["pruned_candidates"]

    def test_parity_with_wider_k(self, case):
        evaluator, graph, sizes, farm = case
        plain = TsGreedySearch(farm, evaluator, sizes, k=2,
                               prune=False).search(graph)
        pruned = TsGreedySearch(farm, evaluator, sizes, k=2,
                                prune=True).search(graph)
        assert pruned.cost == plain.cost


class TestLowerBoundSoundness:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bound_never_exceeds_cost(self, case, seed):
        # The fixture is read-only here (the bound path never mutates
        # evaluator state), so reuse across examples is safe.
        evaluator, _, sizes, farm = case
        layout = random_layout(sizes, farm, seed)
        matrix = np.array([layout.fractions_of(name)
                           for name in evaluator.object_names])
        bound = lower_bound_matrix(evaluator, matrix)
        cost = evaluator.cost(layout)
        assert bound <= cost + 1e-9

    def test_bound_tight_when_no_colocation(self, case):
        """With one object per disk set the seek term vanishes and the
        bound equals the true cost for single-object subplans."""
        evaluator, _, sizes, farm = case
        layout = full_striping(sizes, farm)
        matrix = np.array([layout.fractions_of(name)
                           for name in evaluator.object_names])
        bound = lower_bound_matrix(evaluator, matrix)
        assert bound <= evaluator.cost(layout) + 1e-9
        assert bound > 0.0

    def test_bounds_for_rows_match_matrix_bound(self, case):
        evaluator, _, sizes, farm = case
        base = full_striping(sizes, farm)
        matrix = np.array([base.fractions_of(name)
                           for name in evaluator.object_names])
        evaluator.set_base(matrix)
        name = evaluator.object_names[0]
        index = evaluator.object_names.index(name)
        rows = np.array([stripe_fractions(list(disks), farm)
                         for disks in ([0], [0, 1], [2, 3, 4],
                                       list(range(len(farm))))])
        batched = evaluator.bounds_for_rows(name, rows)
        for row, bound in zip(rows, batched):
            changed = matrix.copy()
            changed[index] = row
            assert bound == pytest.approx(
                lower_bound_matrix(evaluator, changed), abs=1e-9)

    def test_bounds_for_rows_lower_bound_true_cost(self, case):
        evaluator, _, sizes, farm = case
        base = full_striping(sizes, farm)
        matrix = np.array([base.fractions_of(name)
                           for name in evaluator.object_names])
        evaluator.set_base(matrix)
        for name in evaluator.object_names[:3]:
            rows = np.array([stripe_fractions([j], farm)
                             for j in range(len(farm))])
            bounds = evaluator.bounds_for_rows(name, rows)
            costs = evaluator.costs_for_rows(name, rows)
            assert np.all(bounds <= costs + 1e-9)

    def test_bounds_require_a_base(self, case):
        evaluator, _, sizes, farm = case
        rows = np.array([stripe_fractions([0], farm)])
        with pytest.raises(LayoutError):
            evaluator.bounds_for_rows(evaluator.object_names[0], rows)

    def test_bound_evaluations_counted(self, case):
        evaluator, _, sizes, farm = case
        telemetry = Telemetry()
        previous = evaluator.bind_telemetry(telemetry)
        try:
            base = full_striping(sizes, farm)
            evaluator.set_base(np.array(
                [base.fractions_of(name)
                 for name in evaluator.object_names]))
            rows = np.array([stripe_fractions([0], farm),
                             stripe_fractions([0, 1], farm)])
            evaluator.bounds_for_rows(evaluator.object_names[0], rows)
        finally:
            evaluator.bind_telemetry(previous)
        assert telemetry.value("costmodel.bound_evaluations") == 2.0
