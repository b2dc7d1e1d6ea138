"""Tests for the Prometheus and OTLP exporters (repro.obs.export)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.obs.export import (
    main as export_main,
    parse_prometheus,
    self_test,
    to_otlp,
    to_prometheus,
    write_otlp,
    write_prometheus,
)


def _registry():
    metrics = MetricsRegistry(strict=True)
    metrics.inc("greedy.evaluations", 7)
    metrics.set_gauge("drift.score", 0.25)
    for value in (2, 4, 6, 8, 10):
        metrics.observe("greedy.candidates_per_iteration", value)
    return metrics


class TestPrometheus:
    def test_counter_gets_total_suffix_and_help(self):
        text = to_prometheus(_registry())
        assert "# TYPE repro_greedy_evaluations_total counter" in text
        assert "# HELP repro_greedy_evaluations_total" in text
        assert "repro_greedy_evaluations_total 7" in text

    def test_histogram_exports_three_quantiles(self):
        series = parse_prometheus(to_prometheus(_registry()))
        samples = series["repro_greedy_candidates_per_iteration"]
        quantiles = {labels["quantile"] for labels, _ in samples}
        assert quantiles == {"0.5", "0.95", "0.99"}
        [(_, count)] = \
            series["repro_greedy_candidates_per_iteration_count"]
        [(_, total)] = \
            series["repro_greedy_candidates_per_iteration_sum"]
        assert (count, total) == (5.0, 30.0)

    def test_round_trip_preserves_values(self):
        series = parse_prometheus(to_prometheus(_registry()))
        [(_, value)] = series["repro_greedy_evaluations_total"]
        assert value == 7.0
        [(_, score)] = series["repro_drift_score"]
        assert score == 0.25

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}

    def test_write_prometheus_is_parseable(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(_registry(), path)
        assert parse_prometheus(path.read_text())

    @pytest.mark.parametrize("bad, message", [
        ("not a metric line at all!", "unparsable sample"),
        ("metric{label=unquoted} 1", "malformed label"),
        ("metric notanumber", "non-numeric value"),
        ("# TYPE valid_name sometype", "unknown metric type"),
        ("# HELP 0bad help text", "invalid metric name"),
    ])
    def test_malformed_lines_rejected_with_line_number(self, bad,
                                                       message):
        text = "repro_ok_total 1\n" + bad + "\n"
        with pytest.raises(ValueError, match=message) as error:
            parse_prometheus(text)
        assert "line 2" in str(error.value)

    def test_self_test_round_trips(self):
        assert "self-test ok" in self_test()

    def test_module_main_self_test(self, capsys):
        assert export_main(["--self-test"]) == 0
        assert "self-test ok" in capsys.readouterr().out

    def test_module_runs_without_a_runtime_warning(self):
        # Were the package to import the module, ``-m`` would run it a
        # second time as __main__ and runpy would warn about it.
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (
            src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.obs.export", "--self-test"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "self-test ok" in proc.stdout

    def test_module_main_check_file(self, tmp_path, capsys):
        good = tmp_path / "good.prom"
        write_prometheus(_registry(), good)
        assert export_main(["--check", str(good)]) == 0
        assert "valid:" in capsys.readouterr().out
        bad = tmp_path / "bad.prom"
        bad.write_text("this is { not } exposition format\n")
        assert export_main(["--check", str(bad)]) == 1
        assert "invalid:" in capsys.readouterr().err


class TestOtlp:
    def _telemetry(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 0.5
            return clock_value[0]

        telemetry = Telemetry(clock=clock, cpu_clock=clock)
        with telemetry.span("recommend", statements=2):
            with telemetry.span("ts-greedy", accepted=True):
                pass
        return telemetry

    def test_structure_and_parenting(self):
        doc = to_otlp(self._telemetry(), run_id="abc123")
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert [s["name"] for s in spans] == ["recommend", "ts-greedy"]
        root, child = spans
        assert "parentSpanId" not in root
        assert child["parentSpanId"] == root["spanId"]
        assert all(s["traceId"] == root["traceId"] for s in spans)

    def test_export_is_deterministic(self):
        first = to_otlp(self._telemetry(), run_id="abc123")
        second = to_otlp(self._telemetry(), run_id="abc123")
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)

    def test_span_ids_are_sequential_preorder(self):
        doc = to_otlp(self._telemetry(), run_id="x")
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert [s["spanId"] for s in spans] == \
            [f"{n:016x}" for n in (1, 2)]

    def test_attributes_carry_span_attrs_and_cpu(self):
        doc = to_otlp(self._telemetry(), run_id="x")
        root = doc["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        keys = {a["key"] for a in root["attributes"]}
        assert {"statements", "cpu_s"} <= keys

    def test_run_id_lands_in_resource_attributes(self):
        doc = to_otlp(self._telemetry(), run_id="run-42")
        resource = doc["resourceSpans"][0]["resource"]["attributes"]
        values = {a["key"]: a["value"] for a in resource}
        assert values["run.id"] == {"stringValue": "run-42"}

    def test_write_otlp_is_valid_json(self, tmp_path):
        path = tmp_path / "spans.json"
        write_otlp(self._telemetry(), path, run_id="abc")
        assert "resourceSpans" in json.loads(path.read_text())
