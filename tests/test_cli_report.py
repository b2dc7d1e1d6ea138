"""Tests for the CLI and the recommendation report renderer."""

import json
from pathlib import Path

import pytest

from repro.catalog.io import (
    load_database,
    save_database,
    save_farm,
    save_layout,
)
from repro.cli import main
from repro.core.advisor import LayoutAdvisor
from repro.core.fullstripe import full_striping
from repro.core.report import render_filegroup_script, render_report
from repro.obs import Telemetry
from repro.storage.disk import winbench_farm
from repro.workload.workload import Workload

_EXAMPLE = Path(__file__).parent.parent / "examples" / "tpch"


@pytest.fixture
def tool_files(tmp_path, mini_db):
    """Database, disks and workload files for the CLI."""
    save_database(mini_db, tmp_path / "db.json")
    save_farm(winbench_farm(8), tmp_path / "disks.json")
    (tmp_path / "w.sql").write_text(
        "-- name: J1\n"
        "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k;\n"
        "-- name: S1\nSELECT SUM(b.v) FROM big b;\n")
    return tmp_path


def _args(tool_files, *extra):
    return ["--database", str(tool_files / "db.json"),
            "--disks", str(tool_files / "disks.json"),
            "--workload", str(tool_files / "w.sql"), *extra]


class TestReport:
    def test_render_report_mentions_key_numbers(self, mini_db, farm8,
                                                join_workload):
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(join_workload)
        text = render_report(rec)
        assert "estimated improvement" in text
        assert "J1" in text
        assert "layouts costed" in text

    def test_filegroup_script_covers_every_object(self, mini_db, farm8):
        layout = full_striping(mini_db.object_sizes(), farm8)
        script = render_filegroup_script(layout, "mydb")
        for name in mini_db.object_sizes():
            assert name in script
        assert "ADD FILEGROUP" in script
        # Full striping = one filegroup over all disks = 8 files.
        assert script.count("ADD FILE (") == 8

    def test_candidate_quantiles_match_the_histogram(self):
        # The report's candidates/iteration line and the
        # greedy.candidates_per_iteration histogram read one rank rule;
        # on this run the two rules once gave p99=34 against 32.
        telemetry = Telemetry(strict=True)
        advisor = LayoutAdvisor(load_database(_EXAMPLE / "db.json"),
                                winbench_farm(12), telemetry=telemetry)
        rec = advisor.recommend(Workload.load(_EXAMPLE / "workload.sql"))
        [line] = [line for line in render_report(rec).splitlines()
                  if "candidates/iteration:" in line]
        reported = {key: float(value) for key, value in (
            pair.split("=") for pair in line.split(":", 1)[1].split())}
        histogram = telemetry.metrics.histogram(
            "greedy.candidates_per_iteration")
        assert reported == {f"p{q}": histogram.percentile(q)
                            for q in (50, 95, 99)}


class TestCli:
    def test_recommend_writes_layout(self, tool_files, capsys):
        out_path = tool_files / "layout.json"
        rc = main(["recommend", *_args(tool_files),
                   "--save-layout", str(out_path)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "estimated improvement" in captured
        data = json.loads(out_path.read_text())
        assert "fractions" in data

    def test_recommend_with_script(self, tool_files, capsys):
        rc = main(["recommend", *_args(tool_files), "--script"])
        assert rc == 0
        assert "ADD FILEGROUP" in capsys.readouterr().out

    def test_recommend_full_striping_method(self, tool_files, capsys):
        rc = main(["recommend", *_args(tool_files),
                   "--method", "full-striping"])
        assert rc == 0

    def test_recommend_with_constraints_file(self, tool_files, capsys):
        constraints = {"co_located": [["big", "mid"]]}
        path = tool_files / "c.json"
        path.write_text(json.dumps(constraints))
        rc = main(["recommend", *_args(tool_files),
                   "--constraints", str(path)])
        assert rc == 0
        assert "big" in capsys.readouterr().out

    def test_recommend_with_concurrency_spec(self, tool_files, capsys,
                                             mini_db):
        # Two statements that only co-access each other when marked
        # concurrent; the spec makes the CLI separate their tables.
        (tool_files / "scan.sql").write_text(
            "-- name: A\nSELECT COUNT(*) FROM big b;\n"
            "-- name: B\nSELECT COUNT(*) FROM mid m;\n")
        (tool_files / "conc.json").write_text(
            json.dumps({"groups": [[0, 1]], "overlap_factor": 1.0}))
        out_path = tool_files / "conc_layout.json"
        rc = main(["recommend",
                   "--database", str(tool_files / "db.json"),
                   "--disks", str(tool_files / "disks.json"),
                   "--workload", str(tool_files / "scan.sql"),
                   "--concurrency", str(tool_files / "conc.json"),
                   "--save-layout", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        big = {j for j, f in enumerate(data["fractions"]["big"])
               if f > 0}
        mid = {j for j, f in enumerate(data["fractions"]["mid"])
               if f > 0}
        assert not big & mid

    def test_concurrency_runs_the_incremental_method(self, tool_files,
                                                     capsys):
        from repro.catalog.io import load_migration_plan
        (tool_files / "conc.json").write_text(
            json.dumps({"groups": [[0, 1]]}))
        plan = tool_files / "plan.json"
        saved = tool_files / "rec.json"
        rc = main(["recommend", *_args(tool_files),
                   "--concurrency", str(tool_files / "conc.json"),
                   "--method", "incremental", "--budget", "0.3",
                   "--save-plan", str(plan),
                   "--save-recommendation", str(saved)])
        assert rc == 0
        assert "--- migration plan ---" in capsys.readouterr().out
        assert load_migration_plan(plan).moved_fraction <= 0.3 + 1e-9
        assert json.loads(saved.read_text())["movement_budget"] == 0.3

    @pytest.mark.parametrize("source,extra", [
        ("spec", ["--method", "portfolio"]),
        ("spec", ["--method", "exhaustive"]),
        ("trace", ["--portfolio", "2"]),
    ], ids=["portfolio", "exhaustive", "trace-portfolio"])
    def test_concurrency_refuses_other_methods(self, tool_files, capsys,
                                               source, extra):
        if source == "spec":
            (tool_files / "conc.json").write_text(
                json.dumps({"groups": [[0, 1]]}))
            inputs = _args(tool_files, "--concurrency",
                           str(tool_files / "conc.json"))
        else:
            # Overlapping timestamps: the trace carries one group.
            (tool_files / "trace.csv").write_text(
                "start,end,sql\n"
                "0.0,10.0,SELECT COUNT(*) FROM big b\n"
                "0.5,9.5,SELECT COUNT(*) FROM mid m\n")
            inputs = ["--database", str(tool_files / "db.json"),
                      "--disks", str(tool_files / "disks.json"),
                      "--workload-trace", str(tool_files / "trace.csv")]
        saved = tool_files / "rec.json"
        rc = main(["recommend", *inputs, *extra,
                   "--save-recommendation", str(saved)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ts-greedy or incremental" in err
        assert not saved.exists()

    def test_save_plan_needs_the_incremental_method(self, tool_files,
                                                    capsys):
        plan = tool_files / "plan.json"
        rc = main(["recommend", *_args(tool_files),
                   "--save-plan", str(plan)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --save-plan needs --method incremental")
        assert not plan.exists()

    def test_recommend_from_profile_trace(self, tool_files, capsys):
        (tool_files / "trace.csv").write_text(
            "start,end,sql\n"
            "0.0,10.0,SELECT COUNT(*) FROM big b\n"
            "0.5,9.5,SELECT COUNT(*) FROM mid m\n")
        out_path = tool_files / "trace_layout.json"
        rc = main(["recommend",
                   "--database", str(tool_files / "db.json"),
                   "--disks", str(tool_files / "disks.json"),
                   "--workload-trace", str(tool_files / "trace.csv"),
                   "--save-layout", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        big = {j for j, f in enumerate(data["fractions"]["big"])
               if f > 0}
        mid = {j for j, f in enumerate(data["fractions"]["mid"])
               if f > 0}
        assert not big & mid

    def test_recommend_requires_workload_or_trace(self, tool_files,
                                                  capsys):
        rc = main(["recommend",
                   "--database", str(tool_files / "db.json"),
                   "--disks", str(tool_files / "disks.json")])
        assert rc == 2
        assert "provide --workload or --workload-trace" in \
            capsys.readouterr().err

    def test_recommend_otlp_writes_span_json(self, tool_files, capsys):
        otlp_path = tool_files / "otlp.json"
        rc = main(["recommend", *_args(tool_files),
                   "--otlp", str(otlp_path)])
        assert rc == 0
        data = json.loads(otlp_path.read_text())
        spans = data["resourceSpans"][0]["scopeSpans"][0]["spans"]
        [root] = [span for span in spans if "parentSpanId" not in span]
        assert root["name"] == "recommend"
        children = [span["name"] for span in spans
                    if span.get("parentSpanId") == root["spanId"]]
        assert "analyze-workload" in children
        assert "ts-greedy" in children
        assert int(root["endTimeUnixNano"]) \
            > int(root["startTimeUnixNano"])

    def test_recommend_metrics_and_verbose(self, tool_files, capsys):
        rc = main(["recommend", *_args(tool_files), "--metrics", "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "=== metrics ===" in out
        assert "greedy.evaluations" in out
        assert "=== trace ===" in out
        assert "recommend" in out

    def test_recommend_saves_recommendation_json(self, tool_files,
                                                 capsys):
        out_path = tool_files / "rec.json"
        rc = main(["recommend", *_args(tool_files),
                   "--save-recommendation", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert isinstance(data["improvement_pct"], float)
        assert data["search"]["evaluations"] > 0
        assert data["search"]["kl_passes"] >= 1
        assert "layout" in data and "fractions" in data["layout"]

    def test_analyze_prints_graph_and_plans(self, tool_files, capsys):
        rc = main(["analyze",
                   "--database", str(tool_files / "db.json"),
                   "--workload", str(tool_files / "w.sql"),
                   "--plans"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "access graph" in out
        assert "big -- mid" in out
        assert "Merge Join" in out

    def test_estimate_compares_layouts(self, tool_files, capsys,
                                       mini_db):
        farm = winbench_farm(8)
        layout = full_striping(mini_db.object_sizes(), farm)
        save_layout(layout, tool_files / "cand.json")
        rc = main(["estimate", *_args(tool_files),
                   "--layout", str(tool_files / "cand.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "full-striping" in out and "cand" in out

    def test_simulate_prints_per_statement(self, tool_files, capsys):
        rc = main(["simulate", *_args(tool_files)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "J1" in out and "TOTAL" in out

    def test_missing_file_is_a_clean_error(self, tool_files, capsys):
        rc = main(["recommend",
                   "--database", str(tool_files / "nope.json"),
                   "--disks", str(tool_files / "disks.json"),
                   "--workload", str(tool_files / "w.sql")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_workload_is_a_clean_error(self, tool_files, capsys):
        (tool_files / "bad.sql").write_text("SELEKT nonsense;")
        rc = main(["recommend",
                   "--database", str(tool_files / "db.json"),
                   "--disks", str(tool_files / "disks.json"),
                   "--workload", str(tool_files / "bad.sql")])
        assert rc == 2

    def test_non_decimal_digit_is_a_clean_error(self, tool_files,
                                                capsys):
        (tool_files / "sup.sql").write_text(
            "SELECT SUM(b.v) FROM big b WHERE b.v > ²;\n",
            encoding="utf-8")
        rc = main(["recommend",
                   "--database", str(tool_files / "db.json"),
                   "--disks", str(tool_files / "disks.json"),
                   "--workload", str(tool_files / "sup.sql")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unexpected character '²' (line 1, column 40)"]


#: One malformed file per JSON input flag: (subcommand, flag, content).
MALFORMED_INPUTS = [
    pytest.param("analyze", "--database", '{"tables": [',
                 id="database-truncated"),
    pytest.param("analyze", "--database", "[1, 2, 3]",
                 id="database-list"),
    pytest.param("analyze", "--database", '{"tables": [{"name": "t"}]}',
                 id="database-missing-field"),
    pytest.param("estimate", "--disks", '{"name": "D1"}',
                 id="disks-object"),
    pytest.param("estimate", "--disks", '[{"name": "D1"}]',
                 id="disks-missing-field"),
    pytest.param("estimate", "--layout", '{"fractions": {}}',
                 id="layout-missing-sizes"),
    pytest.param("recommend", "--constraints",
                 '{"availability": [{"level": "parity"}]}',
                 id="constraints-missing-object"),
    pytest.param("recommend", "--concurrency", '{"groups": [[0, 1]',
                 id="concurrency-truncated"),
    pytest.param("recommend", "--current-layout", "[1, 2]",
                 id="current-layout-list"),
    pytest.param("lint", "--layout", '{"fractions": ',
                 id="lint-layout-truncated"),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("command,flag,content", MALFORMED_INPUTS)
    def test_malformed_json_is_a_clean_error(self, tool_files, capsys,
                                             command, flag, content):
        bad = tool_files / "bad.json"
        bad.write_text(content)
        inputs = {"--database": str(tool_files / "db.json"),
                  "--disks": str(tool_files / "disks.json"),
                  "--workload": str(tool_files / "w.sql")}
        if command == "analyze":
            del inputs["--disks"]
        inputs[flag] = str(bad)
        argv = [command, *(part for item in inputs.items()
                           for part in item)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(bad) in err


class TestResilienceCli:
    def test_faults_flag_degrades_cleanly(self, tool_files, capsys):
        rc = main(["recommend", *_args(tool_files),
                   "--method", "portfolio", "--portfolio", "4",
                   "--jobs", "4", "--faults", "kill_worker=1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "degraded: 1/4 trajectories failed" in captured.out
        assert "degraded" in captured.err
        assert "estimated improvement" in captured.out

    def test_deadline_flag_degrades_cleanly(self, tool_files, capsys):
        rc = main(["recommend", *_args(tool_files),
                   "--method", "portfolio", "--portfolio", "3",
                   "--deadline", "0.0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "timeout" in captured.out

    def test_retries_and_timeout_flags_accepted(self, tool_files,
                                                capsys):
        rc = main(["recommend", *_args(tool_files),
                   "--method", "portfolio", "--portfolio", "2",
                   "--retries", "3", "--deadline", "60"])
        assert rc == 0
        assert "degraded" not in capsys.readouterr().out

    def test_malformed_faults_spec_is_a_clean_error(self, tool_files,
                                                    capsys):
        rc = main(["recommend", *_args(tool_files),
                   "--method", "portfolio",
                   "--faults", "explode=now"])
        assert rc == 2
        assert "unknown fault" in capsys.readouterr().err
