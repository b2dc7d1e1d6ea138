"""The telemetry contracts: one catalog, no undeclared emissions.

The source-wide scan is the AST contract checker (``RPC301``–``RPC304``
in :mod:`repro.analysis.code.telemetry`), which replaced the regex
scrape this file used to run: string literals in comments/docstrings no
longer count, multi-line calls resolve, the method must agree with the
declared kind, and the same pass covers ``Telemetry.emit`` against
``EVENT_TYPES``.  The adversarial cases prove each rule still catches
a planted violation; the strict-registry tests remain the runtime
backstop for dynamic names the static pass cannot resolve.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.code import analyze_paths
from repro.core.advisor import LayoutAdvisor
from repro.obs import METRIC_CATALOG, MetricsRegistry, Telemetry
from repro.obs.events import EVENT_TYPES
from repro.obs.names import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    metric_help,
    metric_kind,
)

SRC = Path(__file__).parent.parent / "src" / "repro"


def telemetry_findings(path: Path):
    return analyze_paths([path], select=["RPC30"]).report.diagnostics


class TestCatalog:
    def test_catalog_entries_are_well_formed(self):
        for name, (kind, help_text) in METRIC_CATALOG.items():
            assert kind in (COUNTER, GAUGE, HISTOGRAM), name
            assert help_text, f"{name} has no help text"
            assert re.fullmatch(r"[a-z0-9_.]+", name), name

    def test_event_types_are_well_formed(self):
        for name, description in EVENT_TYPES.items():
            assert description, f"{name} has no description"
            assert re.fullmatch(r"[a-z0-9-]+", name), name

    def test_helpers_answer_for_every_entry(self):
        for name in METRIC_CATALOG:
            assert metric_kind(name)
            assert metric_help(name)


class TestStaticContract:
    """The RPC3xx AST pass over the real tree plus planted violations."""

    def test_source_tree_has_no_telemetry_violations(self):
        findings = telemetry_findings(SRC)
        rendered = "\n".join(d.render() for d in findings)
        assert not findings, \
            f"telemetry contract violations in src/:\n{rendered}"

    def test_undeclared_metric_caught(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text("def f(m):\n    m.inc('made.up.counter')\n")
        (finding,) = telemetry_findings(planted)
        assert finding.rule_id == "RPC301"

    def test_kind_mismatch_caught(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "def f(m):\n"
            "    m.set_gauge('greedy.evaluations', 1.0)\n")
        (finding,) = telemetry_findings(planted)
        assert finding.rule_id == "RPC302"

    def test_undeclared_event_caught(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "def f(r):\n    r.emit('made-up-event', n=1)\n")
        (finding,) = telemetry_findings(planted)
        assert finding.rule_id == "RPC303"

    def test_dynamic_name_reported(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text("def f(m, name):\n    m.inc(name)\n")
        (finding,) = telemetry_findings(planted)
        assert finding.rule_id == "RPC304"

    def test_multiline_emission_resolves(self, tmp_path):
        # The old regex scrape missed these; the AST pass must not.
        planted = tmp_path / "planted.py"
        planted.write_text(
            "def f(m):\n"
            "    m.inc(\n"
            "        'made.up.counter',\n"
            "        2)\n")
        (finding,) = telemetry_findings(planted)
        assert finding.rule_id == "RPC301"

    def test_docstring_mention_is_not_an_emission(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            '"""Docs quoting m.inc("made.up.counter") literally."""\n'
            "# comment: m.observe('also.not.real')\n")
        assert not telemetry_findings(planted)


class TestStrictRegistry:
    def test_undeclared_name_rejected(self):
        metrics = MetricsRegistry(strict=True)
        with pytest.raises(ValueError, match="not declared"):
            metrics.inc("made.up.counter")

    def test_kind_mismatch_rejected(self):
        metrics = MetricsRegistry(strict=True)
        with pytest.raises(ValueError, match="declared as"):
            metrics.set_gauge("greedy.evaluations", 1.0)

    def test_declared_names_accepted(self):
        metrics = MetricsRegistry(strict=True)
        metrics.inc("greedy.evaluations")
        metrics.set_gauge("drift.score", 0.5)
        metrics.observe("greedy.candidates_per_iteration", 3)

    def test_full_advisor_run_emits_only_declared_metrics(
            self, mini_db, farm8, join_workload):
        # The integration backstop: a real recommendation under a
        # strict registry — any undeclared emission raises.
        telemetry = Telemetry(strict=True)
        advisor = LayoutAdvisor(mini_db, farm8, telemetry=telemetry)
        recommendation = advisor.recommend(join_workload)
        assert recommendation.estimated_cost > 0
        snapshot = telemetry.metrics.to_dict()
        emitted = (set(snapshot["counters"]) | set(snapshot["gauges"])
                   | set(snapshot["histograms"]))
        assert emitted <= set(METRIC_CATALOG)

    def test_portfolio_run_emits_only_declared_metrics(
            self, mini_db, farm8, join_workload):
        telemetry = Telemetry(strict=True)
        advisor = LayoutAdvisor(mini_db, farm8, telemetry=telemetry)
        advisor.recommend(join_workload, method="portfolio", jobs=2)
        snapshot = telemetry.metrics.to_dict()
        emitted = (set(snapshot["counters"]) | set(snapshot["gauges"])
                   | set(snapshot["histograms"]))
        assert emitted <= set(METRIC_CATALOG)
