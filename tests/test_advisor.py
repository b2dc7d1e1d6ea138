"""Tests for the end-to-end LayoutAdvisor facade."""

import json

import pytest

from repro.core.advisor import LayoutAdvisor, SearchOptions
from repro.obs import Telemetry
from repro.core.constraints import (
    CoLocated,
    ConstraintSet,
    MaxDataMovement,
)
from repro.core.fullstripe import full_striping
from repro.core.layout import Layout, stripe_fractions
from repro.errors import LayoutError


class TestRecommend:
    def test_default_compares_to_full_striping(self, mini_db,
                                               join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload)
        assert rec.improvement_pct > 0
        assert rec.estimated_cost < rec.current_cost

    def test_accepts_pre_analyzed_workload(self, mini_db, join_workload,
                                           farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        analyzed = advisor.analyze(join_workload)
        rec_a = advisor.recommend(analyzed)
        rec_b = advisor.recommend(join_workload)
        assert rec_a.estimated_cost == pytest.approx(rec_b.estimated_cost)

    def test_per_statement_breakdown(self, mini_db, join_workload,
                                     farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload)
        names = [name for name, _, _ in rec.per_statement]
        assert names == ["J1", "S1"]
        j1_current, j1_new = rec.per_statement[0][1:]
        assert j1_new < j1_current  # the join is what improves

    def test_full_striping_method_is_identity(self, mini_db,
                                              join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload, method="full-striping")
        assert rec.improvement_pct == pytest.approx(0.0)

    def test_explicit_current_layout(self, mini_db, join_workload,
                                     farm8):
        sizes = mini_db.object_sizes()
        # A terrible current layout: everything on disk 0.
        current = Layout(farm8, sizes, {
            name: stripe_fractions([0], farm8) for name in sizes})
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload, current_layout=current)
        assert rec.improvement_pct > 50

    def test_unknown_method_rejected(self, mini_db, join_workload,
                                     farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.raises(LayoutError, match="unknown search method"):
            advisor.recommend(join_workload, method="quantum")

    def test_exhaustive_method_on_small_farm(self, mini_db,
                                             join_workload):
        from repro.storage.disk import uniform_farm
        farm = uniform_farm(2, capacity_gb=4.0)
        advisor = LayoutAdvisor(mini_db, farm)
        rec_exhaustive = advisor.recommend(join_workload,
                                           method="exhaustive")
        rec_greedy = advisor.recommend(join_workload)
        assert rec_exhaustive.estimated_cost <= \
            rec_greedy.estimated_cost + 1e-9

    def test_data_movement_reported(self, mini_db, join_workload,
                                    farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload)
        # The recommendation differs from full striping, so blocks move.
        assert rec.data_movement_blocks is not None
        assert rec.data_movement_blocks > 0
        from repro.core.report import render_report
        assert "moves" in render_report(rec)

    def test_search_telemetry_exposed(self, mini_db, join_workload,
                                      farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload)
        assert rec.search is not None
        assert rec.search.evaluations > 0

    def test_improvement_pct_zero_when_current_free(self, mini_db,
                                                    farm8):
        from repro.core.advisor import Recommendation
        rec = Recommendation(
            layout=full_striping(mini_db.object_sizes(), farm8),
            estimated_cost=0.0, current_cost=0.0)
        assert rec.improvement_pct == 0.0


class TestConcurrentAdvisor:
    def test_recommend_concurrent_separates_overlapping_scans(
            self, mini_db, farm8):
        from repro.workload.concurrency import ConcurrencySpec
        from repro.workload.workload import Workload
        workload = Workload()
        workload.add("SELECT COUNT(*) FROM big b", name="a")
        workload.add("SELECT COUNT(*) FROM mid m", name="b")
        advisor = LayoutAdvisor(mini_db, farm8)
        spec = ConcurrencySpec.from_groups([[0, 1]],
                                           overlap_factor=1.0)
        rec = advisor.recommend(workload, concurrency=spec)
        big = set(rec.layout.disks_of("big"))
        mid = set(rec.layout.disks_of("mid"))
        assert not big & mid
        assert rec.improvement_pct > 0

    def test_recommend_concurrent_empty_spec_matches_sequential(
            self, mini_db, join_workload, farm8):
        from repro.workload.concurrency import ConcurrencySpec
        advisor = LayoutAdvisor(mini_db, farm8)
        sequential = advisor.recommend(join_workload)
        concurrent = advisor.recommend(
            join_workload, concurrency=ConcurrencySpec.from_groups([]))
        assert concurrent.estimated_cost == \
            pytest.approx(sequential.estimated_cost)

    @staticmethod
    def _overlapping_scans():
        from repro.workload.concurrency import ConcurrencySpec
        from repro.workload.workload import Workload
        workload = Workload()
        workload.add("SELECT COUNT(*) FROM big b", name="a")
        workload.add("SELECT COUNT(*) FROM mid m", name="b")
        return workload, ConcurrencySpec.from_groups([[0, 1]],
                                                     overlap_factor=1.0)

    def test_incremental_takes_concurrency(self, mini_db, farm8):
        workload, spec = self._overlapping_scans()
        rec = LayoutAdvisor(mini_db, farm8).recommend(
            workload, method="incremental", movement_budget=1.0,
            concurrency=spec)
        big = set(rec.layout.disks_of("big"))
        mid = set(rec.layout.disks_of("mid"))
        assert not big & mid
        # per_statement prices each statement on its own.
        assert [name for name, _, _ in rec.per_statement] == ["a", "b"]
        assert rec.migration.steps
        assert rec.migration.is_capacity_safe(rec.current_layout)
        assert rec.movement_budget == 1.0

    @pytest.mark.parametrize("method",
                             ["portfolio", "exhaustive", "full-striping"])
    def test_concurrency_refuses_other_methods(self, mini_db, farm8,
                                               method):
        # The concurrency-expanded cost is not bounded below, and a
        # search without TS-GREEDY's pruning (annealing, exhaustive
        # enumeration) reports layouts whose expanded cost is negative.
        workload, spec = self._overlapping_scans()
        with pytest.raises(LayoutError, match="ts-greedy or incremental"):
            LayoutAdvisor(mini_db, farm8).recommend(
                workload, method=method, concurrency=spec)


class TestConstrainedAdvisor:
    def test_co_location_flows_through(self, mini_db, join_workload,
                                       farm8):
        constraints = ConstraintSet(co_located=[CoLocated("big", "mid")])
        advisor = LayoutAdvisor(mini_db, farm8, constraints=constraints)
        rec = advisor.recommend(join_workload)
        assert rec.layout.disks_of("big") == rec.layout.disks_of("mid")

    def test_movement_constraint_switches_to_incremental(self, mini_db,
                                                         join_workload,
                                                         farm8):
        sizes = mini_db.object_sizes()
        current = full_striping(sizes, farm8)
        constraints = ConstraintSet(
            movement=MaxDataMovement(current, max_blocks=1.0))
        advisor = LayoutAdvisor(mini_db, farm8, constraints=constraints)
        rec = advisor.recommend(join_workload, current_layout=current)
        # Nothing may move, so the recommendation is the current layout.
        assert current.data_movement_blocks(rec.layout) <= 1.0


class TestObservedAdvisor:
    def test_traced_recommend_emits_the_pipeline_phases(
            self, mini_db, join_workload, farm8):
        telemetry = Telemetry()
        advisor = LayoutAdvisor(mini_db, farm8, telemetry=telemetry)
        rec = advisor.recommend(join_workload)
        root = telemetry.find("recommend")
        assert root is not None
        phases = [child.name for child in root.children]
        for expected in ["analyze-workload", "baseline-layout",
                         "build-evaluator", "build-access-graph",
                         "ts-greedy"]:
            assert expected in phases
        greedy = root.find("ts-greedy")
        assert greedy.find("ts-greedy/step1") is not None
        assert greedy.find("ts-greedy/step2") is not None
        # Leaf spans must cover (nearly) all of the root's wall time.
        leaf_time = sum(s.duration_s for s in root.leaves())
        assert leaf_time >= 0.9 * root.duration_s
        # Search telemetry: the cost model ran, KL partitioning ran.
        assert rec.search.evaluations > 0
        assert rec.search.kl_passes >= 1
        assert telemetry.value("costmodel.full_evaluations") > 0

    def test_tracing_does_not_change_the_recommendation(
            self, mini_db, join_workload, farm8):
        plain = LayoutAdvisor(mini_db, farm8).recommend(join_workload)
        traced = LayoutAdvisor(
            mini_db, farm8,
            telemetry=Telemetry()).recommend(join_workload)
        assert traced.estimated_cost == plain.estimated_cost
        assert traced.current_cost == plain.current_cost
        for name in plain.layout.object_names:
            assert traced.layout.fractions_of(name) == \
                plain.layout.fractions_of(name)

    def test_untraced_search_still_carries_telemetry(
            self, mini_db, join_workload, farm8):
        rec = LayoutAdvisor(mini_db, farm8).recommend(join_workload)
        assert rec.search.kl_passes >= 1
        assert rec.search.evaluations > 0
        assert any(step.accepted for step in rec.search.steps)
        payload = rec.search.telemetry_dict()
        json.dumps(payload)  # must be JSON-clean end to end
        assert payload["kl_passes"] == rec.search.kl_passes


class TestSearchOptions:
    @pytest.mark.parametrize("bad", [
        {"method": "quantum"}, {"k": 0}, {"jobs": -1}, {"portfolio": 0},
        {"deadline": -1.0}, {"retries": -1},
        {"deadline": "30"}, {"faults": "kill_worker=1"},
        {"movement_budget": 1.5}, {"portfolio": [1, 2]}])
    def test_bad_value_raises_layout_error(self, bad):
        with pytest.raises(LayoutError):
            SearchOptions(**bad)

    def test_keywords_fold_into_the_options(self, mini_db,
                                            join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        by_keywords = advisor.recommend(join_workload,
                                        method="portfolio", portfolio=2)
        by_options = advisor.recommend(
            join_workload,
            options=SearchOptions(method="portfolio", portfolio=2))
        overridden = advisor.recommend(
            join_workload,
            options=SearchOptions(method="portfolio", portfolio=3),
            portfolio=2)
        for rec in (by_options, overridden):
            assert rec.estimated_cost == by_keywords.estimated_cost
            assert rec.search.extras["trajectories"] == 2.0
        with pytest.raises(TypeError):
            advisor.recommend(join_workload, backend="thread")
