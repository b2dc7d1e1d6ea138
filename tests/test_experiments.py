"""Smoke tests for the experiment harness (fast configurations).

The benchmarks run the full paper-scale experiments; these tests ensure
each harness stays runnable and structurally sane using reduced
configurations.
"""

import pytest

from repro.benchdb import ctrl
from repro.experiments import common
from repro.experiments.ablations import (
    run_greedy_vs_exhaustive,
    run_k_sweep,
)
from repro.experiments.example5 import run_example5
from repro.experiments.figure11 import run_figure11
from repro.experiments.figure12 import run_figure12
from repro.experiments.validation import (
    run_validation,
    validation_layouts,
    validation_workload_set,
)


class TestCommon:
    def test_paper_farm_shape(self):
        farm = common.paper_farm()
        assert len(farm) == 8

    def test_separated_layout_is_disjoint(self):
        from repro.benchdb import tpch
        db = tpch.tpch_database()
        farm = common.paper_farm()
        layout = common.separated_lineitem_orders(db, farm)
        lineitem = set(layout.disks_of("lineitem"))
        orders = set(layout.disks_of("orders"))
        assert not lineitem & orders
        assert len(lineitem) == 5 and len(orders) == 3

    @pytest.mark.parametrize("overlap", [0, 1, 2, 3])
    def test_controlled_overlap_layouts(self, overlap):
        from repro.benchdb import tpch
        db = tpch.tpch_database()
        farm = common.paper_farm()
        layout = common.controlled_overlap_layout(db, farm, overlap)
        lineitem = set(layout.disks_of("lineitem"))
        orders = set(layout.disks_of("orders"))
        assert len(lineitem & orders) == overlap

    def test_controlled_overlap_bounds(self):
        from repro.benchdb import tpch
        db = tpch.tpch_database()
        with pytest.raises(ValueError):
            common.controlled_overlap_layout(db, common.paper_farm(), 4)

    def test_format_table_aligns(self):
        text = common.format_table(["a", "bee"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_improvement_pct(self):
        assert common.improvement_pct(100, 75) == pytest.approx(25.0)
        assert common.improvement_pct(0, 10) == 0.0


class TestHarnesses:
    def test_example5_defaults(self):
        result = run_example5()
        assert result.ordering_holds

    def test_validation_small(self):
        result = run_validation(workloads=[ctrl.wk_ctrl1()],
                                n_random_layouts=1)
        assert result.agreement_pct >= 60
        # 1 random + 4 overlap + separated + striping = 7 layouts
        agreed, total = result.per_workload["WK-CTRL1"]
        assert total == 21  # C(7, 2)

    def test_validation_layout_set_shape(self):
        from repro.benchdb import tpch
        db = tpch.tpch_database()
        layouts = validation_layouts(db, common.paper_farm())
        assert len(layouts) == 10
        names = [name for name, _ in layouts]
        assert "full-striping" in names

    def test_validation_workload_set_shape(self):
        workloads = validation_workload_set(n_synthetic=2,
                                            synthetic_queries=5)
        assert len(workloads) == 5  # ctrl1, ctrl2, tpch22 + 2 synth

    def test_figure11_tiny(self):
        from repro.benchdb import tpch
        cases = [(tpch.tpch_database(), ctrl.wk_ctrl1())]
        # 8 disks, not 4: the runs take a few ms each, and 2 vs 4
        # disks (about 1.8x apart) is within a busy host's noise,
        # while 2 vs 8 is about 3.4x apart.
        result = run_figure11(disk_counts=(2, 8), cases=cases)
        ratios = result.ratios("WK-CTRL1")
        assert ratios[0] == 1.0
        assert ratios[1] > 1.0

    def test_figure12_tiny(self):
        result = run_figure12(factors=(1, 2))
        assert len(result.seconds) == 2
        assert result.n_objects == [8, 16]

    def test_greedy_vs_exhaustive_optimality(self):
        result = run_greedy_vs_exhaustive(n_tables=3, m_disks=2)
        assert result.quality_ratio <= 1.05

    def test_k_sweep_rows(self):
        result = run_k_sweep(k_values=(1, 2), workload=ctrl.wk_ctrl1())
        assert [row[0] for row in result.rows] == [1, 2]

    def test_migration_study_smoke(self):
        from repro.experiments.migration import run_migration_study
        result = run_migration_study(throttles=(None,))
        assert result.plan_steps > 0
        assert result.moved_blocks > 0
        # The separated target must beat striping on this workload,
        # so the single unthrottled window pays back eventually.
        assert result.target_s < result.baseline_s
        row = result.rows[0]
        assert row.windows == 1
        assert row.peak_degradation > 1.0
        assert row.time_to_benefit_s is not None
