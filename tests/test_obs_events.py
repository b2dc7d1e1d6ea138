"""Tests for the flight recorder: events, determinism, CLI round-trip."""

from __future__ import annotations

import json
import time
import warnings

import pytest

from repro.cli import main
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.greedy import TsGreedySearch
from repro.errors import DegradedResult, EventLogFormatError
from repro.obs import (
    EVENT_TYPES,
    NULL_TELEMETRY,
    Telemetry,
    canonical_lines,
    read_events,
    render_timeline,
    validate_events,
)
from repro.parallel import PortfolioSearch, default_portfolio
from repro.resilience import FaultPlan
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph


@pytest.fixture
def case(mini_db, join_workload, farm8):
    analyzed = analyze_workload(join_workload, mini_db)
    sizes = mini_db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
    graph = build_access_graph(analyzed, mini_db)
    return evaluator, graph, sizes, farm8


class TestRecorderApi:
    def test_emit_assigns_total_order(self):
        recorder = Telemetry()
        first = recorder.emit("run-start", command="test")
        second = recorder.emit("note", message="hi")
        assert first["seq"] == 0 and second["seq"] == 1
        assert second["ts_s"] >= first["ts_s"] >= 0.0
        assert first["run_id"] == second["run_id"] == recorder.run_id
        assert validate_events(recorder.events) == []

    def test_undeclared_type_rejected_at_emit(self):
        recorder = Telemetry()
        with pytest.raises(ValueError, match="undeclared event type"):
            recorder.emit("made-up-type", x=1)
        assert recorder.events == []

    def test_every_declared_type_has_a_description(self):
        for type_, description in EVENT_TYPES.items():
            assert type_ and description

    def test_snapshot_is_a_deep_copy(self):
        recorder = Telemetry()
        recorder.emit("note", message="original")
        snap = recorder.snapshot()["events"]
        snap[0]["data"]["message"] = "mutated"
        assert recorder.events[0]["data"]["message"] == "original"

    def test_ingest_resequences_and_restamps_run_id(self):
        worker = Telemetry(source="trajectory-3")
        worker.emit("kl-pass", pass_index=1, cut_weight=10.0)
        worker.emit("greedy-iteration", iteration=1, candidates=4,
                    best_cost=1.0, accepted=True, changed=["big"])
        parent = Telemetry()
        parent.emit("run-start", command="test")
        parent.merge(worker.snapshot())
        relayed = parent.events[1:]
        assert [e["seq"] for e in relayed] == [1, 2]
        assert all(e["run_id"] == parent.run_id for e in relayed)
        assert all(e["source"] == "trajectory-3" for e in relayed)
        assert validate_events(parent.events) == []

    def test_ingest_rejects_undeclared_types(self):
        parent = Telemetry()
        with pytest.raises(ValueError, match="undeclared event type"):
            parent.merge({"events": [{"type": "bogus", "data": {}}],
                          "metrics": {}})

    def test_streaming_sink_flushes_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = Telemetry(path=path)
        recorder.emit("run-start", command="test")
        # Before close: the event is already on disk (crash safety).
        assert len(read_events(path)) == 1
        recorder.emit("run-end", status="ok")
        recorder.close()
        events = read_events(path)
        assert [e["type"] for e in events] == ["run-start", "run-end"]
        assert validate_events(events) == []

    def test_null_recorder_records_nothing(self):
        NULL_TELEMETRY.emit("note", message="dropped")
        with NULL_TELEMETRY.span("dropped"):
            pass
        assert NULL_TELEMETRY.events == []

    def test_read_events_names_file_and_line_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"seq": 0, "type": "note"}\n{oops\n')
        with pytest.raises(EventLogFormatError, match="line 2"):
            read_events(path)

    def test_validate_catches_broken_sequence(self):
        recorder = Telemetry()
        recorder.emit("note", message="a")
        events = recorder.snapshot()["events"]
        events[0]["seq"] = 7
        assert any("total order" in p for p in validate_events(events))

    def test_validate_catches_mixed_run_ids(self):
        a, b = Telemetry(), Telemetry()
        a.emit("note", message="a")
        b.emit("note", message="b")
        mixed = a.snapshot()["events"] + b.snapshot()["events"]
        mixed[1]["seq"] = 1
        assert any("multiple run_ids" in p
                   for p in validate_events(mixed))


class TestDeterminism:
    def test_two_seeded_runs_are_canonically_identical(self, case):
        evaluator, graph, sizes, farm = case

        def run():
            telemetry = Telemetry()
            TsGreedySearch(farm, evaluator, sizes, partition_seed=7,
                           telemetry=telemetry).search(graph)
            return canonical_lines(telemetry.events)

        assert run() == run()

    def test_serial_and_pooled_portfolio_share_one_timeline(
            self, case, force_pool):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)

        def run(jobs):
            telemetry = Telemetry()
            result = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                     jobs=jobs,
                                     telemetry=telemetry).search(graph)
            assert result.extras["workers"] == jobs
            return canonical_lines(telemetry.events)

        assert run(1) == run(2)


class TestResilienceTimeline:
    def test_killed_worker_run_yields_wellformed_timeline(
            self, case, tmp_path, force_pool):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        path = tmp_path / "events.jsonl"
        telemetry = Telemetry(path=path)
        faults = FaultPlan.from_spec("kill_worker=1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResult)
            result = PortfolioSearch(
                farm, evaluator, sizes, specs=specs, jobs=2,
                faults=faults, telemetry=telemetry).search(graph)
        telemetry.close()
        assert result.extras["workers"] == 2.0
        assert result.degraded
        events = read_events(path)
        assert validate_events(events) == []
        types = {e["type"] for e in events}
        # The lost trajectory leaves resilience events in the timeline;
        # the surviving trajectories still open and close normally.
        assert "trajectory-start" in types
        assert "trajectory-end" in types
        assert types & {"worker-crash", "serial-fallback",
                        "trajectory-failed", "retry"}
        rendered = render_timeline(events)
        assert "flight recorder" in rendered


class TestNoopOverhead:
    def test_disabled_observability_emits_zero_events(self, case):
        evaluator, graph, sizes, farm = case
        TsGreedySearch(farm, evaluator, sizes).search(graph)
        assert NULL_TELEMETRY.events == []

    def test_noop_recorder_cost_is_under_two_percent(self, case):
        # Bound the cost of the no-op instrumentation: the events a
        # real recorder would capture, replayed against the no-op
        # recorder, must cost under 2% of the search's own wall time.
        evaluator, graph, sizes, farm = case
        probe = Telemetry()
        TsGreedySearch(farm, evaluator, sizes,
                       telemetry=probe).search(graph)
        emitted = [(e["type"], e["data"]) for e in probe.events]
        assert emitted, "instrumented search emitted no events"

        wall = min(_timed(lambda: TsGreedySearch(
            farm, evaluator, sizes).search(graph)) for _ in range(3))
        rounds = 50
        start = time.perf_counter()
        for _ in range(rounds):
            for type_, data in emitted:
                NULL_TELEMETRY.emit(type_, **data)
        per_run = (time.perf_counter() - start) / rounds
        assert per_run <= 0.02 * wall, \
            f"no-op emit cost {per_run:.6f}s vs search {wall:.4f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestCliRoundTrip:
    def _inputs(self, tmp_path, mini_db, farm8, join_workload):
        from repro.catalog.io import save_database, save_farm
        save_database(mini_db, tmp_path / "db.json")
        save_farm(farm8, tmp_path / "disks.json")
        (tmp_path / "w.sql").write_text(
            "\n".join(f"-- name: {s.name}\n{s.sql};"
                      for s in join_workload))
        return ["--database", str(tmp_path / "db.json"),
                "--disks", str(tmp_path / "disks.json"),
                "--workload", str(tmp_path / "w.sql")]

    def test_degraded_portfolio_round_trips_through_inspect(
            self, tmp_path, mini_db, farm8, join_workload, capsys):
        events = tmp_path / "events.jsonl"
        prom = tmp_path / "metrics.prom"
        rc = main(["recommend",
                   *self._inputs(tmp_path, mini_db, farm8,
                                 join_workload),
                   "--method", "portfolio", "--portfolio", "4",
                   "--jobs", "4", "--faults", "kill_worker=1",
                   "--events", str(events), "--prom", str(prom)])
        assert rc == 0
        capsys.readouterr()
        loaded = read_events(events)
        assert validate_events(loaded) == []
        assert loaded[0]["type"] == "run-start"
        assert loaded[-1]["type"] == "run-end"
        rc = main(["inspect", str(events)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flight recorder" in out
        assert "trajectory" in out
        assert "hotspots" in out
        # Prometheus dump exists and is non-trivial.
        assert "repro_" in prom.read_text()

    def test_inspect_json_summarizes_the_run(
            self, tmp_path, mini_db, farm8, join_workload, capsys):
        events = tmp_path / "events.jsonl"
        rc = main(["recommend",
                   *self._inputs(tmp_path, mini_db, farm8,
                                 join_workload),
                   "--events", str(events)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["inspect", str(events), "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0
        assert "run-start" in payload["types"]
        assert payload["run_id"]

    def test_inspect_rejects_malformed_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        rc = main(["inspect", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_inspect_rejects_broken_total_order(self, tmp_path, capsys):
        recorder = Telemetry()
        recorder.emit("run-start", command="test")
        recorder.emit("run-end", status="ok")
        events = recorder.snapshot()["events"]
        events[1]["seq"] = 9
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        rc = main(["inspect", str(path)])
        assert rc == 2
        assert "total order" in capsys.readouterr().err

    def test_workload_trace_is_the_canonical_spelling(
            self, tmp_path, mini_db, farm8, capsys):
        from repro.catalog.io import save_database, save_farm
        save_database(mini_db, tmp_path / "db.json")
        save_farm(farm8, tmp_path / "disks.json")
        (tmp_path / "trace.csv").write_text(
            "start,end,sql\n"
            "0.0,10.0,SELECT COUNT(*) FROM big b\n")
        events = tmp_path / "events.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["recommend",
                       "--database", str(tmp_path / "db.json"),
                       "--disks", str(tmp_path / "disks.json"),
                       "--workload-trace", str(tmp_path / "trace.csv"),
                       "--events", str(events)])
        assert rc == 0
        assert not any(issubclass(w.category, DeprecationWarning)
                       for w in caught)
        ingests = [e for e in read_events(events)
                   if e["type"] == "workload-ingest"]
        assert ingests and ingests[0]["data"]["source"] == "trace"

    def test_saved_recommendation_carries_run_id(
            self, tmp_path, mini_db, farm8, join_workload, capsys):
        events = tmp_path / "events.jsonl"
        rec_path = tmp_path / "rec.json"
        rc = main(["recommend",
                   *self._inputs(tmp_path, mini_db, farm8,
                                 join_workload),
                   "--events", str(events),
                   "--save-recommendation", str(rec_path)])
        assert rc == 0
        saved = json.loads(rec_path.read_text())
        assert saved["run_id"] == read_events(events)[0]["run_id"]

    def test_drift_command_emits_drift_score_event(
            self, tmp_path, mini_db, capsys):
        from repro.catalog.io import save_database
        save_database(mini_db, tmp_path / "db.json")
        (tmp_path / "before.sql").write_text(
            "SELECT COUNT(*) FROM big b;")
        (tmp_path / "after.sql").write_text(
            "SELECT SUM(m.w) FROM mid m;")
        events = tmp_path / "events.jsonl"
        rc = main(["drift", "--database", str(tmp_path / "db.json"),
                   "--before", str(tmp_path / "before.sql"),
                   "--after", str(tmp_path / "after.sql"),
                   "--events", str(events)])
        assert rc in (0, 1)
        loaded = read_events(events)
        assert validate_events(loaded) == []
        assert any(e["type"] == "drift-score" for e in loaded)


class TestTelemetryOverheadBudget:
    def test_full_telemetry_within_five_percent_at_ci_scale(self):
        # The acceptance budget asserted by bench_search_speed's
        # ci/full invariants, measured here on the ci-sized case so a
        # plain `pytest` run exercises it too.
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).parent.parent
                               / "benchmarks"))
        from bench_search_speed import _case, measure_telemetry_overhead
        evaluator, graph, sizes, farm = _case("ci")
        # Timer noise on a loaded runner can push a single measurement
        # over; a real regression pushes every attempt over.  Fail
        # only when three independent measurements all bust the budget.
        attempts = []
        for _ in range(3):
            overhead = measure_telemetry_overhead(
                farm, evaluator, sizes, graph, repeats=3)
            attempts.append(overhead)
            if overhead["overhead_pct"] <= 5.0:
                break
        assert attempts[-1]["overhead_pct"] <= 5.0, attempts
