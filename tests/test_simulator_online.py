"""Tests for the online-migration simulator: live-traffic degradation,
throttling, and time-to-benefit accounting."""

from __future__ import annotations

import pytest

from repro.core.fullstripe import full_striping
from repro.core.layout import Layout, stripe_fractions
from repro.errors import SimulationError
from repro.obs import Telemetry
from repro.simulator.concurrent import (
    MigrationWindow,
    OnlineMigrationReport,
    OnlineMigrationSimulator,
)
from repro.storage.executor import FarmState
from repro.storage.migration import plan_migration
from repro.workload.access import analyze_workload
from repro.workload.workload import Workload


@pytest.fixture
def scan_pair(mini_db):
    workload = Workload()
    workload.add("SELECT COUNT(*) FROM big b", name="scan_big")
    workload.add("SELECT COUNT(*) FROM mid m", name="scan_mid")
    return analyze_workload(workload, mini_db)


@pytest.fixture
def layouts(mini_db, farm8):
    """A striped source and a big/mid-separated target."""
    sizes = mini_db.object_sizes()
    source = full_striping(sizes, farm8)
    fractions = {name: stripe_fractions(range(len(farm8)), farm8)
                 for name in sizes}
    fractions["big"] = stripe_fractions([0, 1, 2, 3], farm8)
    fractions["mid"] = stripe_fractions([4, 5, 6], farm8)
    target = Layout(farm8, sizes, fractions)
    return source, target


class TestOnlineMigration:
    def test_unthrottled_finishes_in_one_window(self, scan_pair,
                                                layouts):
        source, target = layouts
        plan = plan_migration(source, target)
        sim = OnlineMigrationSimulator()
        report = sim.run_online(scan_pair, source, plan, target=target)
        assert len(report.windows) == 1
        assert report.windows[0].migration_blocks == \
            pytest.approx(plan.moved_blocks)
        # Sharing the disks with migration traffic cannot be faster
        # than the undisturbed baseline pass.
        assert report.windows[0].foreground_s > report.baseline_s
        assert report.peak_degradation > 1.0

    def test_target_defaults_to_plan_endpoint(self, scan_pair,
                                              layouts):
        source, target = layouts
        plan = plan_migration(source, target)
        sim = OnlineMigrationSimulator()
        derived = sim.run_online(scan_pair, source, plan)
        explicit = sim.run_online(scan_pair, source, plan,
                                  target=target)
        assert derived.target_s == pytest.approx(explicit.target_s)

    def test_throttle_spreads_migration_over_windows(self, scan_pair,
                                                     layouts):
        source, target = layouts
        plan = plan_migration(source, target)
        sim = OnlineMigrationSimulator()
        free = sim.run_online(scan_pair, source, plan, target=target)
        capped = sim.run_online(scan_pair, source, plan, target=target,
                                throttle_mb_s=20.0, max_windows=512)
        assert len(capped.windows) > len(free.windows)
        total = sum(w.migration_blocks for w in capped.windows)
        assert total == pytest.approx(plan.moved_blocks)
        # Throttling trades duration for gentler per-window impact.
        assert capped.peak_degradation <= free.peak_degradation \
            + 1e-9

    def test_too_low_throttle_raises(self, scan_pair, layouts):
        source, target = layouts
        plan = plan_migration(source, target)
        sim = OnlineMigrationSimulator()
        with pytest.raises(SimulationError, match="max_windows|too low"):
            sim.run_online(scan_pair, source, plan, target=target,
                           throttle_mb_s=20.0, max_windows=2)

    def test_events_and_metrics_are_catalogued(self, scan_pair,
                                               layouts):
        source, target = layouts
        plan = plan_migration(source, target)
        telemetry = Telemetry(strict=True)
        sim = OnlineMigrationSimulator(telemetry=telemetry)
        report = sim.run_online(scan_pair, source, plan, target=target)
        windows = [e for e in telemetry.events
                   if e["type"] == "migration-window"]
        assert len(windows) == len(report.windows)
        assert windows[0]["data"]["window"] == 0
        assert telemetry.value("migration.windows") == \
            len(report.windows)
        assert telemetry.value("migration.foreground_degradation") == \
            pytest.approx(report.mean_degradation)

    def test_migrating_away_from_hot_pair_pays_back(self, scan_pair,
                                                    layouts):
        """Separating the two concurrently-scanned tables must beat
        full striping under concurrent execution, so the migration has
        a finite time-to-benefit."""
        source, target = layouts
        plan = plan_migration(source, target)
        sim = OnlineMigrationSimulator()
        report = sim.run_online(scan_pair, source, plan, target=target)
        assert report.per_pass_saving_s > 0
        assert report.time_to_benefit_s is not None
        assert report.time_to_benefit_s > 0

    def test_plan_endpoint_matches_farmstate_arith(self, layouts):
        source, target = layouts
        plan = plan_migration(source, target)
        state = FarmState.from_layout(source)
        for step in plan.steps:
            state.apply(step.obj, step.src, step.dst,
                        float(step.blocks))
        assert state.matches(FarmState.from_layout(target))


class TestReportArithmetic:
    def _report(self, baseline, target, windows):
        return OnlineMigrationReport(
            baseline_s=baseline, target_s=target,
            windows=[MigrationWindow(index=i, foreground_s=s,
                                     migration_blocks=0.0)
                     for i, s in enumerate(windows)])

    def test_degradation_and_overhead(self):
        report = self._report(2.0, 1.0, [3.0, 2.5])
        assert report.degradation == [1.5, 1.25]
        assert report.mean_degradation == pytest.approx(1.375)
        assert report.peak_degradation == pytest.approx(1.5)
        assert report.overhead_s == pytest.approx(1.5)

    def test_time_to_benefit(self):
        report = self._report(2.0, 1.0, [3.0, 2.5])
        # 1.5s overhead repaid at 1s saving per 1s-long target pass.
        assert report.time_to_benefit_s == pytest.approx(1.5)

    def test_never_pays_back_when_target_no_faster(self):
        report = self._report(2.0, 2.5, [3.0])
        assert report.per_pass_saving_s < 0
        assert report.time_to_benefit_s is None

    def test_empty_windows_degenerate(self):
        report = self._report(2.0, 1.0, [])
        assert report.mean_degradation == 1.0
        assert report.peak_degradation == 1.0
        assert report.overhead_s == 0.0
