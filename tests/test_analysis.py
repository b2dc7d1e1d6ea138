"""Tests for repro.analysis: rules, engine, advisor wiring."""

import pytest

from repro.analysis import (
    REGISTRY,
    AnalysisReport,
    Severity,
    analyze_inputs,
    audit_recommendation,
    check_constraints,
    check_layout,
    check_recommendation,
    check_workload,
    constraint_construction_diagnostic,
    preflight,
    rules_by_category,
)
from repro.core.advisor import LayoutAdvisor
from repro.core.constraints import (
    AvailabilityRequirement,
    CoLocated,
    ConstraintSet,
    MaxDataMovement,
)
from repro.core.fullstripe import full_striping
from repro.core.layout import Layout
from repro.errors import AnalysisError, ConstraintError
from repro.obs import Telemetry
from repro.optimizer import operators as ops
from repro.storage.disk import Availability, DiskFarm, DiskSpec
from repro.workload.access import (
    AnalyzedStatement,
    AnalyzedWorkload,
    SubplanAccess,
    analyze_workload,
)
from repro.workload.access_graph import build_access_graph
from repro.workload.workload import Statement


def rule_ids(diagnostics):
    return [d.rule_id for d in diagnostics]


def mixed_farm() -> DiskFarm:
    """Three disks, one per availability level."""
    def disk(name, availability):
        return DiskSpec(name=name, capacity_blocks=100_000,
                        avg_seek_s=0.009, read_mb_s=20.0,
                        write_mb_s=20.0, availability=availability)
    return DiskFarm([disk("P1", Availability.NONE),
                     disk("M1", Availability.MIRRORING),
                     disk("R1", Availability.PARITY)])


class TestRegistry:
    def test_ids_are_stable_and_unique(self):
        expected = {
            "ALR000",
            "ALR001", "ALR002", "ALR003", "ALR004", "ALR005", "ALR006",
            "ALR010", "ALR011", "ALR012", "ALR013", "ALR014", "ALR015",
            "ALR020", "ALR021", "ALR022", "ALR023", "ALR024",
            "ALR030", "ALR031", "ALR032", "ALR033", "ALR034",
            "ALR035",
            # The RPC0xx code-contract rules (docs/static-analysis.md).
            "RPC001", "RPC002", "RPC003",
            "RPC101", "RPC102", "RPC103", "RPC104", "RPC105",
            "RPC201", "RPC202", "RPC203",
            "RPC301", "RPC302", "RPC303", "RPC304",
            "RPC401",
        }
        assert set(REGISTRY) == expected

    def test_categories(self):
        assert {r.category for r in REGISTRY.values()} == {
            "engine", "layout", "constraints", "workload", "audit",
            "code"}
        assert all(r.category == "layout"
                   for r in rules_by_category("layout"))

    def test_severity_ordering(self):
        assert Severity.INFO.rank < Severity.WARNING.rank \
            < Severity.ERROR.rank


class TestReport:
    def test_exit_codes(self):
        rule = REGISTRY["ALR001"]
        clean = AnalysisReport()
        assert clean.exit_code == 0 and not clean
        info = AnalysisReport([rule.diagnostic(
            "x", severity=Severity.INFO)])
        assert info.exit_code == 0
        warn = AnalysisReport([rule.diagnostic(
            "x", severity=Severity.WARNING)])
        assert warn.exit_code == 1
        err = AnalysisReport([rule.diagnostic("x")])
        assert err.exit_code == 2
        assert err.max_severity is Severity.ERROR

    def test_render_and_dict(self):
        report = AnalysisReport([REGISTRY["ALR004"].diagnostic(
            "disk D8 holds no data", location="disk:D8",
            suggestion="remove it")])
        text = report.render_text()
        assert "ALR004" in text and "[disk:D8]" in text
        assert "fix: remove it" in text
        assert "1 diagnostic(s)" in text
        payload = report.to_dict()
        assert payload["diagnostics"][0]["rule"] == "ALR004"
        assert payload["summary"]["max_severity"] == "warning"


class TestLayoutRules:
    def test_clean_full_striping(self, mini_db, farm8):
        layout = full_striping(mini_db.object_sizes(), farm8)
        found = list(check_layout(
            farm8, layout.object_sizes,
            {n: layout.fractions_of(n) for n in layout.object_names}))
        assert found == []

    def test_alr001_bad_sum(self, farm8):
        found = list(check_layout(
            farm8, {"t": 100}, {"t": [0.5, 0.4, 0, 0, 0, 0, 0, 0]}))
        assert rule_ids(found) == ["ALR001"]
        assert "t" in found[0].message

    def test_alr002_negative_fraction(self, farm8):
        found = list(check_layout(
            farm8, {"t": 100}, {"t": [1.5, -0.5, 0, 0, 0, 0, 0, 0]}))
        assert rule_ids(found) == ["ALR002"]

    def test_alr003_over_capacity(self):
        farm = DiskFarm([DiskSpec(name="D1", capacity_blocks=50,
                                  avg_seek_s=0.009, read_mb_s=20.0,
                                  write_mb_s=20.0)])
        found = list(check_layout(farm, {"t": 100}, {"t": [1.0]}))
        assert rule_ids(found) == ["ALR003"]

    def test_alr004_idle_disk(self, farm8):
        fractions = {"t": [1.0] + [0.0] * 7}
        found = list(check_layout(farm8, {"t": 100}, fractions))
        assert rule_ids(found).count("ALR004") == 7
        assert all(d.severity is Severity.WARNING for d in found)

    def test_alr005_mixed_availability(self):
        farm = mixed_farm()
        found = list(check_layout(
            farm, {"t": 100}, {"t": [0.5, 0.5, 0.0]}))
        assert "ALR005" in rule_ids(found)
        mixed = [d for d in found if d.rule_id == "ALR005"][0]
        assert "mirroring" in mixed.message and "none" in mixed.message

    def test_alr006_catalog_mismatch(self, farm8):
        found = list(check_layout(
            farm8, {"extra": 10},
            {"extra": [1.0] + [0.0] * 7},
            catalog_objects=["missing"]))
        ids = rule_ids(found)
        assert ids.count("ALR006") == 2  # one missing row, one extra


class TestConstraintRules:
    def test_alr010_unknown_object(self, farm8):
        constraints = ConstraintSet(
            co_located=[CoLocated("big", "order_archive")])
        found = list(check_constraints(constraints, farm8,
                                       ["big", "mid"]))
        assert rule_ids(found) == ["ALR010"]
        assert "order_archive" in found[0].message

    def test_alr011_contradictory_colocation_pair(self):
        farm = mixed_farm()
        constraints = ConstraintSet(
            co_located=[CoLocated("a", "b")],
            availability=[
                AvailabilityRequirement("a", Availability.MIRRORING),
                AvailabilityRequirement("b", Availability.PARITY)])
        found = list(check_constraints(constraints, farm, ["a", "b"]))
        assert rule_ids(found) == ["ALR011"]
        assert "a requires mirroring" in found[0].message

    def test_alr011_via_transitive_chain(self):
        """a~b and b~c puts a and c in one group; their disjoint
        availability requirements contradict through the closure."""
        farm = mixed_farm()
        constraints = ConstraintSet(
            co_located=[CoLocated("a", "b"), CoLocated("b", "c")],
            availability=[
                AvailabilityRequirement("a", Availability.MIRRORING),
                AvailabilityRequirement("c", Availability.PARITY)])
        found = list(check_constraints(constraints, farm,
                                       ["a", "b", "c"]))
        assert rule_ids(found) == ["ALR011"]
        assert "{a, b, c}" in found[0].location

    def test_alr012_unsatisfiable_level(self, farm8):
        # winbench disks are all Availability.NONE.
        constraints = ConstraintSet(availability=[
            AvailabilityRequirement("big", Availability.MIRRORING)])
        found = list(check_constraints(constraints, farm8, ["big"]))
        assert rule_ids(found) == ["ALR012"]
        assert "mirroring" in found[0].message

    def test_alr013_redundant_pair(self, farm8):
        constraints = ConstraintSet(co_located=[
            CoLocated("a", "b"), CoLocated("b", "c"),
            CoLocated("a", "c")])
        found = list(check_constraints(constraints, farm8,
                                       ["a", "b", "c"]))
        assert rule_ids(found) == ["ALR013"]
        assert "CoLocated(a, c)" in found[0].location

    def test_alr014_negative_budget(self, mini_db, farm8):
        sizes = mini_db.object_sizes()
        baseline = full_striping(sizes, farm8)
        constraints = ConstraintSet(
            movement=MaxDataMovement(baseline, max_blocks=-1))
        found = list(check_constraints(constraints, farm8, sizes))
        assert "ALR014" in rule_ids(found)
        assert "negative" in found[-1].message

    def test_alr014_zero_budget_is_a_warning(self, mini_db, farm8):
        sizes = mini_db.object_sizes()
        baseline = full_striping(sizes, farm8)
        constraints = ConstraintSet(
            movement=MaxDataMovement(baseline, max_blocks=0))
        found = [d for d in check_constraints(constraints, farm8, sizes)
                 if d.rule_id == "ALR014"]
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_alr014_zero_budget_vs_colocation_is_an_error(
            self, mini_db, farm8):
        """Budget 0 pins the baseline, but the baseline (one object per
        disk) violates the co-location pair: nothing is feasible."""
        from repro.core.layout import stripe_fractions
        sizes = mini_db.object_sizes()
        names = sorted(sizes)
        baseline = Layout(farm8, sizes, {
            name: stripe_fractions([i % 8], farm8)
            for i, name in enumerate(names)})
        constraints = ConstraintSet(
            co_located=[CoLocated(names[0], names[1])],
            movement=MaxDataMovement(baseline, max_blocks=0))
        found = [d for d in check_constraints(constraints, farm8, sizes)
                 if d.rule_id == "ALR014"]
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "Co-Located" in found[0].message

    def test_alr014_availability_forces_movement(self, mini_db):
        """The mirrored-disk requirement strands the baseline's blocks
        on disallowed plain disks; the budget cannot cover the move."""
        farm = mixed_farm()
        sizes = mini_db.object_sizes()
        baseline = full_striping(sizes, farm)
        constraints = ConstraintSet(
            availability=[AvailabilityRequirement(
                "big", Availability.MIRRORING)],
            movement=MaxDataMovement(baseline, max_blocks=1))
        found = [d for d in check_constraints(constraints, farm, sizes)
                 if d.rule_id == "ALR014"]
        assert len(found) == 1
        assert "force moving at least" in found[0].message

    def test_alr015_unbuildable_constraint_set(self):
        with pytest.raises(ConstraintError) as excinfo:
            ConstraintSet(availability=[
                AvailabilityRequirement("a", Availability.MIRRORING),
                AvailabilityRequirement("a", Availability.PARITY)])
        report = constraint_construction_diagnostic(
            excinfo.value, source="c.json")
        assert rule_ids(report) == ["ALR015"]
        assert report.exit_code == 2
        assert "c.json" in report.diagnostics[0].location


def synthetic_statement(name, objects, weight_override=None):
    subplan = SubplanAccess([ops.ObjectAccess(obj, 10.0)
                             for obj in objects])
    plan = ops.PlanOp(accesses=list(subplan.accesses), rows_out=1.0)
    return AnalyzedStatement(
        statement=Statement("SELECT 1", name=name),
        plan=plan, subplans=[subplan],
        weight_override=weight_override)


class TestWorkloadRules:
    def test_clean_analyzed_workload(self, mini_db, join_workload):
        analyzed = analyze_workload(join_workload, mini_db)
        found = [d for d in check_workload(analyzed)
                 if d.rule_id != "ALR023"]
        assert found == []

    def test_alr020_cyclic_plan(self, mini_db, join_workload):
        analyzed = analyze_workload(join_workload, mini_db)
        plan = analyzed.statements[0].plan
        # Introduce a back-edge from a leaf to the root.
        leaf = plan
        while leaf.children:
            leaf = leaf.children[0]
        leaf.children = (plan,)
        found = list(check_workload(analyzed))
        assert "ALR020" in rule_ids(found)
        cycle = [d for d in found if d.rule_id == "ALR020"][0]
        assert cycle.severity is Severity.ERROR
        assert "cycle" in cycle.message

    def test_alr020_shared_subtree_is_a_warning(self):
        scan = ops.TableScanOp("t", "t", blocks=10.0, rows_out=10.0)
        shared = ops.PlanOp(children=[scan, scan], rows_out=1.0)
        item = AnalyzedStatement(
            statement=Statement("SELECT 1", name="S"),
            plan=shared,
            subplans=[SubplanAccess([ops.ObjectAccess("t", 10.0)])])
        found = list(check_workload(AnalyzedWorkload([item])))
        shared_diags = [d for d in found if d.rule_id == "ALR020"]
        assert len(shared_diags) == 1
        assert shared_diags[0].severity is Severity.WARNING

    def test_alr022_non_positive_weight(self):
        analyzed = AnalyzedWorkload([
            synthetic_statement("neg", ["t"], weight_override=-2.0)])
        found = list(check_workload(analyzed))
        assert rule_ids(found) == ["ALR022"]
        assert "-2" in found[0].message

    def test_alr024_no_stored_objects(self):
        item = AnalyzedStatement(
            statement=Statement("SELECT 1", name="empty"),
            plan=ops.PlanOp(rows_out=1.0), subplans=[])
        found = list(check_workload(AnalyzedWorkload([item])))
        assert rule_ids(found) == ["ALR024"]

    def test_alr021_unwitnessed_edge(self, mini_db, join_workload):
        analyzed = analyze_workload(join_workload, mini_db)
        graph = build_access_graph(analyzed, mini_db)
        graph.add_edge_weight("big", "small", 123.0)  # stale edge
        found = [d for d in check_workload(analyzed, graph=graph)
                 if d.rule_id == "ALR021"]
        assert len(found) == 1
        assert "big -- small" in found[0].message

    def test_alr023_never_accessed_object(self, mini_db,
                                          join_workload):
        analyzed = analyze_workload(join_workload, mini_db)
        found = [d for d in check_workload(analyzed, db=mini_db)
                 if d.rule_id == "ALR023"]
        # join_workload never touches `small` or the secondary indexes.
        assert {d.location for d in found} >= {"object:small"}
        assert all(d.severity is Severity.INFO for d in found)


class TestAuditRules:
    def _packed_layout(self, mini_db):
        """Everything on disk A; disk B idle."""
        sizes = mini_db.object_sizes()
        total = sum(sizes.values())
        farm = DiskFarm([
            DiskSpec(name="A", capacity_blocks=total + 100,
                     avg_seek_s=0.009, read_mb_s=20.0, write_mb_s=20.0),
            DiskSpec(name="B", capacity_blocks=total + 100,
                     avg_seek_s=0.009, read_mb_s=20.0,
                     write_mb_s=20.0)])
        layout = Layout(farm, sizes,
                        {name: [1.0, 0.0] for name in sizes})
        return farm, layout

    def test_alr030_seek_blowup(self, mini_db, join_workload):
        farm, layout = self._packed_layout(mini_db)
        analyzed = analyze_workload(join_workload, mini_db)
        graph = build_access_graph(analyzed, mini_db)
        found = list(check_recommendation(layout, graph))
        blowups = [d for d in found if d.rule_id == "ALR030"]
        assert len(blowups) == 1
        assert "big" in blowups[0].message
        assert "mid" in blowups[0].message

    def test_spread_layout_is_clean(self, mini_db, join_workload,
                                    farm8):
        layout = full_striping(mini_db.object_sizes(), farm8)
        analyzed = analyze_workload(join_workload, mini_db)
        graph = build_access_graph(analyzed, mini_db)
        assert list(check_recommendation(layout, graph)) == []


class TestEngine:
    def test_analyze_inputs_accepts_raw_invalid_layout(self, mini_db,
                                                       farm8):
        report = analyze_inputs(
            db=mini_db, farm=farm8,
            layout={"object_sizes": {"t": 100},
                    "fractions": {"t": [0.5] + [0.0] * 7}})
        ids = rule_ids(report)
        assert "ALR001" in ids
        assert all(d == "ALR001" or d == "ALR006" for d in ids)

    def test_analyze_inputs_unplannable_workload(self, mini_db, farm8):
        from repro.workload.workload import Workload
        bad = Workload(name="bad")
        bad.add("SELECT * FROM no_such_table", name="B1")
        report = analyze_inputs(db=mini_db, farm=farm8, workload=bad)
        assert rule_ids(report) == ["ALR000"]
        assert report.exit_code == 2

    def test_preflight_raises_with_rule_id(self, mini_db, farm8):
        constraints = ConstraintSet(
            co_located=[CoLocated("big", "order_archive")])
        with pytest.raises(AnalysisError) as excinfo:
            preflight(mini_db, farm8, constraints=constraints)
        assert "ALR010" in str(excinfo.value)
        assert rule_ids(excinfo.value.diagnostics) == ["ALR010"]

    def test_preflight_records_metrics(self, mini_db, farm8,
                                       join_workload):
        telemetry = Telemetry()
        analyzed = analyze_workload(join_workload, mini_db)
        report = preflight(mini_db, farm8, analyzed=analyzed,
                           telemetry=telemetry)
        assert report.exit_code == 0
        summary = telemetry.metrics.render()
        assert "analysis.info" in summary
        assert "preflight" in telemetry.render_tree()

    def test_audit_recommendation_counts_findings(self, mini_db,
                                                  join_workload):
        farm, layout = TestAuditRules()._packed_layout(mini_db)
        analyzed = analyze_workload(join_workload, mini_db)
        graph = build_access_graph(analyzed, mini_db)
        telemetry = Telemetry()
        report = audit_recommendation(layout, graph, telemetry=telemetry)
        assert "ALR030" in rule_ids(report)
        assert "ALR004" in rule_ids(report)
        assert "analysis.audit_findings" in telemetry.metrics.render()


class TestAdvisorWiring:
    def test_recommend_fails_preflight_on_bad_constraints(
            self, mini_db, farm8, join_workload):
        advisor = LayoutAdvisor(mini_db, farm8, constraints=ConstraintSet(
            co_located=[CoLocated("big", "order_archive")]))
        with pytest.raises(AnalysisError, match="ALR010"):
            advisor.recommend(join_workload)

    def test_recommendation_carries_diagnostics(self, mini_db, farm8,
                                                join_workload):
        rec = LayoutAdvisor(mini_db, farm8).recommend(join_workload)
        # mini_db has objects the join workload never touches.
        assert "ALR023" in rule_ids(rec.diagnostics)

    def test_report_renders_audit_section(self, mini_db, farm8,
                                          join_workload):
        from repro.core.report import render_report
        rec = LayoutAdvisor(mini_db, farm8).recommend(join_workload)
        text = render_report(rec)
        assert "layout audit (static analysis)" in text
        assert "ALR023" in text

    def test_recommendation_diagnostics_round_trip(
            self, tmp_path, mini_db, farm8, join_workload):
        from repro.catalog.io import (
            load_recommendation,
            save_recommendation,
        )
        rec = LayoutAdvisor(mini_db, farm8).recommend(join_workload)
        save_recommendation(rec, tmp_path / "rec.json")
        loaded = load_recommendation(tmp_path / "rec.json", farm8)
        assert rule_ids(loaded.diagnostics) == rule_ids(rec.diagnostics)
        assert loaded.diagnostics[0].severity \
            is rec.diagnostics[0].severity

    def test_recommend_concurrent_preflights_unexpanded(
            self, mini_db, farm8, join_workload):
        """The concurrency expansion's negative correction weights must
        not trip ALR022 — pre-flight runs before the expansion."""
        from repro.workload.concurrency import ConcurrencySpec
        spec = ConcurrencySpec.from_groups([[0, 1]],
                                           overlap_factor=0.5)
        rec = LayoutAdvisor(mini_db, farm8).recommend(
            join_workload, concurrency=spec)
        assert "ALR022" not in rule_ids(rec.diagnostics)
