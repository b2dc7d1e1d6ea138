"""Tests for the Figure-7 cost model and the vectorized evaluator."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.costmodel import CostModel, WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.layout import Layout, stripe_fractions
from repro.core.random_layout import random_layout
from repro.errors import LayoutError
from repro.optimizer.operators import ObjectAccess, TableScanOp
from repro.storage.disk import uniform_farm, winbench_farm
from repro.workload.access import (
    AnalyzedStatement,
    AnalyzedWorkload,
    SubplanAccess,
    analyze_workload,
)
from repro.workload.workload import Statement, Workload


def _subplan(*accesses):
    return SubplanAccess(list(accesses))


def _stmt(subplans, weight=1.0):
    plan = TableScanOp("dummy", "dummy", blocks=0.0, rows_out=0.0)
    plan.accesses.clear()
    return AnalyzedStatement(
        statement=Statement("SELECT 1 FROM t", weight=weight),
        plan=plan, subplans=subplans)


class TestFigure7Semantics:
    """Closed-form checks of the Figure-7 formulas."""

    def setup_method(self):
        self.farm = uniform_farm(3, read_mb_s=10.0, seek_ms=10.0)
        self.T = self.farm[0].read_blocks_s
        self.S = self.farm[0].avg_seek_s
        self.model = CostModel(self.farm)
        self.sizes = {"A": 300, "B": 150}

    def _layout(self, a_disks, b_disks):
        return Layout(self.farm, self.sizes, {
            "A": stripe_fractions(a_disks, self.farm),
            "B": stripe_fractions(b_disks, self.farm)})

    def test_example5_l1(self):
        cost = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300), ObjectAccess("B", 150)),
            self._layout([0, 1, 2], [0, 1, 2]))
        assert cost == pytest.approx(150 / self.T + 100 * self.S)

    def test_example5_l2(self):
        cost = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300), ObjectAccess("B", 150)),
            self._layout([0, 1], [1, 2]))
        assert cost == pytest.approx(225 / self.T + 150 * self.S)

    def test_example5_l3(self):
        cost = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300), ObjectAccess("B", 150)),
            self._layout([0, 1], [2]))
        assert cost == pytest.approx(150 / self.T)

    def test_single_object_no_seek(self):
        cost = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300)),
            self._layout([0], [1]))
        assert cost == pytest.approx(300 / self.T)

    def test_max_over_disks_is_bottleneck(self):
        # A on one disk: that disk bounds the subplan.
        layout = self._layout([0], [1, 2])
        cost = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300), ObjectAccess("B", 150)),
            layout)
        assert cost == pytest.approx(300 / self.T)

    def test_write_uses_write_rate(self):
        layout = self._layout([0], [1])
        read = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300)), layout)
        write = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300, write=True)), layout)
        assert write > read  # write rate is 90% of read rate

    def test_statement_cost_sums_subplans(self):
        layout = self._layout([0], [1])
        stmt = _stmt([_subplan(ObjectAccess("A", 300)),
                      _subplan(ObjectAccess("B", 150))])
        expected = 300 / self.T + 150 / self.T
        assert self.model.statement_cost(stmt, layout) == \
            pytest.approx(expected)

    def test_workload_cost_weights_statements(self):
        layout = self._layout([0], [1])
        stmt = _stmt([_subplan(ObjectAccess("A", 300))], weight=4.0)
        workload = AnalyzedWorkload([stmt])
        assert self.model.workload_cost(workload, layout) == \
            pytest.approx(4.0 * 300 / self.T)

    def test_temp_accesses_ignored(self):
        layout = self._layout([0], [1])
        with_temp = _subplan(ObjectAccess("A", 300),
                             ObjectAccess("tempdb", 1e6, write=True))
        without = _subplan(ObjectAccess("A", 300))
        assert self.model.subplan_cost(with_temp, layout) == \
            pytest.approx(self.model.subplan_cost(without, layout))

    def test_empty_subplan_costs_nothing(self):
        assert self.model.subplan_cost(_subplan(),
                                       self._layout([0], [1])) == 0.0

    def test_seek_formula_three_streams(self):
        """k streams: seek = k * S * min(stream blocks on disk)."""
        sizes = {"A": 300, "B": 150, "C": 30}
        layout = Layout(self.farm, sizes, {
            "A": stripe_fractions([0], self.farm),
            "B": stripe_fractions([0], self.farm),
            "C": stripe_fractions([0], self.farm)})
        cost = self.model.subplan_cost(
            _subplan(ObjectAccess("A", 300), ObjectAccess("B", 150),
                     ObjectAccess("C", 30)), layout)
        expected = (300 + 150 + 30) / self.T + 3 * self.S * 30
        assert cost == pytest.approx(expected)


class TestEvaluatorAgainstReference:
    """The vectorized evaluator must match the readable model exactly."""

    def _analyzed(self, mini_db, join_workload):
        return analyze_workload(join_workload, mini_db)

    def test_full_striping_agrees(self, mini_db, join_workload, farm8):
        analyzed = self._analyzed(mini_db, join_workload)
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(mini_db.object_sizes()))
        model = CostModel(farm8)
        layout = full_striping(mini_db.object_sizes(), farm8)
        assert evaluator.cost(layout) == \
            pytest.approx(model.workload_cost(analyzed, layout))

    # The fixtures are read-only, so sharing them across examples is
    # safe; suppress the function-scoped-fixture health check.
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_random_layouts_agree(self, mini_db, join_workload,
                                           seed):
        farm = winbench_farm(5)
        analyzed = self._analyzed(mini_db, join_workload)
        evaluator = WorkloadCostEvaluator(analyzed, farm,
                                          sorted(mini_db.object_sizes()))
        model = CostModel(farm)
        layout = random_layout(mini_db.object_sizes(), farm, seed=seed)
        assert evaluator.cost(layout) == \
            pytest.approx(model.workload_cost(analyzed, layout))

    def test_delta_evaluation_matches_full(self, mini_db, join_workload,
                                           farm8):
        import numpy as np
        analyzed = self._analyzed(mini_db, join_workload)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        base = full_striping(sizes, farm8)
        evaluator.set_base(evaluator.matrix_of(base))
        candidate = base.with_fractions(
            "big", stripe_fractions([0, 1, 2], farm8))
        delta_cost = evaluator.costs_for_rows(
            "big", np.array([candidate.fractions_of("big")]))[0]
        assert delta_cost == pytest.approx(evaluator.cost(candidate))

    def test_delta_does_not_mutate_base(self, mini_db, join_workload,
                                        farm8):
        import numpy as np
        analyzed = self._analyzed(mini_db, join_workload)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        base = full_striping(sizes, farm8)
        base_cost = evaluator.set_base(evaluator.matrix_of(base))
        evaluator.costs_for_rows("big",
                                 np.array([stripe_fractions([0], farm8)]))
        # Re-evaluating the unchanged base gives the same cost.
        assert evaluator.cost_with_rows({}) == pytest.approx(base_cost)
        assert evaluator.cost(base) == pytest.approx(base_cost)

    def test_delta_requires_set_base(self, mini_db, join_workload,
                                     farm8):
        analyzed = self._analyzed(mini_db, join_workload)
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(mini_db.object_sizes()))
        with pytest.raises(LayoutError):
            evaluator.cost_with_rows(
                {"big": list(stripe_fractions([0], farm8))})

    def test_untouched_object_delta_is_free(self, mini_db, farm8):
        import numpy as np
        workload = Workload()
        workload.add("SELECT COUNT(*) FROM big b")
        analyzed = analyze_workload(workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        base_cost = evaluator.set_base(
            evaluator.matrix_of(full_striping(sizes, farm8)))
        moved = evaluator.costs_for_rows(
            "small", np.array([stripe_fractions([0], farm8)]))[0]
        assert moved == base_cost

    def test_batched_costs_match_scalar_deltas(self, mini_db,
                                               join_workload, farm8,
                                               monkeypatch):
        import numpy as np
        analyzed = self._analyzed(mini_db, join_workload)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        evaluator.set_base(evaluator.matrix_of(
            full_striping(sizes, farm8)))
        rows = np.array(
            [stripe_fractions([j], farm8) for j in range(8)]
            + [stripe_fractions([0, j], farm8) for j in range(1, 8)])
        scalar = [evaluator.costs_for_rows("big", row[None])[0]
                  for row in rows]
        # Four candidates per pass: the 15 rows span several chunks.
        monkeypatch.setattr(evaluator, "_auto_chunk", lambda n: 4)
        batched = evaluator.costs_for_rows("big", rows)
        assert batched == pytest.approx(scalar)

    def test_batched_costs_untouched_object(self, mini_db, farm8):
        import numpy as np
        workload = Workload()
        workload.add("SELECT COUNT(*) FROM big b")
        analyzed = analyze_workload(workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
        base_cost = evaluator.set_base(evaluator.matrix_of(
            full_striping(sizes, farm8)))
        rows = np.array([stripe_fractions([0], farm8),
                         stripe_fractions([1, 2], farm8)])
        assert list(evaluator.costs_for_rows("small", rows)) == \
            pytest.approx([base_cost, base_cost])

    def test_batched_costs_require_set_base(self, mini_db,
                                            join_workload, farm8):
        import numpy as np
        analyzed = self._analyzed(mini_db, join_workload)
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(mini_db.object_sizes()))
        with pytest.raises(LayoutError):
            evaluator.costs_for_rows(
                "big", np.array([stripe_fractions([0], farm8)]))

    def test_compression_merges_identical_statements(self, mini_db,
                                                     farm8):
        workload = Workload()
        for _ in range(10):
            workload.add("SELECT COUNT(*) FROM big b")
        analyzed = analyze_workload(workload, mini_db)
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(mini_db.object_sizes()))
        assert evaluator.n_subplans == 1
        # ... but the cost still counts all ten statements.
        model = CostModel(farm8)
        layout = full_striping(mini_db.object_sizes(), farm8)
        assert evaluator.cost(layout) == \
            pytest.approx(model.workload_cost(analyzed, layout))
