"""Tests for the CI perf-regression gate (benchmarks/perf_gate.py)."""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from bench_env import (  # noqa: E402
    resolve_full_scale,
    resolve_jobs,
    resolve_mode,
)
from bench_search_speed import leaf_spans  # noqa: E402
from perf_gate import (  # noqa: E402
    _attribute_span,
    compare,
    compare_server,
    main,
    payload_kind,
)

from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.greedy import TsGreedySearch
from repro.obs import Telemetry
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph


def payload(mode="ci"):
    """A well-formed BENCH_search payload that passes every invariant."""
    return {
        "mode": mode,
        "cores": 4,
        "jobs": 2,
        "trajectories": 6,
        "greedy_noprune": {
            "wall_s": 0.2, "evaluations": 7881, "cost": 54.7029},
        "greedy_prune": {
            "wall_s": 0.18, "evaluations": 1295,
            "pruned_candidates": 6586, "bound_evaluations": 9000,
            "cost": 54.7029},
        "portfolio_serial": {
            "wall_s": 1.2, "evaluations": 11448, "cost": 54.7029,
            "workers": 1},
        "portfolio_parallel": {
            "wall_s": 0.8, "evaluations": 11448, "cost": 54.7029,
            "workers": 2},
        "eval_throughput_candidates_per_s": 400_000.0,
        "eval_throughput_speedup": 15.0,
        "prune_eval_reduction": 0.836,
        "prune_speedup": 1.11,
        "parallel_speedup": 1.5,
        "prune_drift": 0.0,
        "prune_same_layout": True,
        "portfolio_drift": 0.0,
    }


class TestCompare:
    def test_identical_payload_passes(self):
        assert compare(payload(), payload()) == []

    def test_small_wall_noise_tolerated(self):
        candidate = payload()
        for name in ("greedy_noprune", "portfolio_serial"):
            candidate[name]["wall_s"] *= 1.2  # under the 25% allowance
        assert compare(payload(), candidate) == []

    def test_tightened_baseline_fails_on_wall(self):
        # The demo CI documents: shrink the baseline's wall times and
        # the gate must flag the (unchanged) candidate as a regression.
        tightened = payload()
        for name in ("greedy_noprune", "greedy_prune",
                     "portfolio_serial", "portfolio_parallel"):
            tightened[name]["wall_s"] *= 0.5
        violations = compare(tightened, payload())
        assert violations
        assert all("wall" in v for v in violations)

    def test_skip_wall_ignores_wall_regressions(self):
        candidate = payload()
        candidate["portfolio_serial"]["wall_s"] *= 10
        assert compare(payload(), candidate, skip_wall=True) == []

    def test_eval_count_drift_fails_even_without_wall(self):
        candidate = payload()
        candidate["greedy_prune"]["evaluations"] += 100
        violations = compare(payload(), candidate, skip_wall=True)
        assert any("evaluation count drifted" in v for v in violations)

    def test_cost_drift_fails(self):
        candidate = payload()
        candidate["portfolio_serial"]["cost"] += 0.01
        violations = compare(payload(), candidate, skip_wall=True)
        assert any("cost drifted" in v for v in violations)

    def test_mode_mismatch_refuses_count_comparison(self):
        violations = compare(payload("small"), payload("ci"),
                             skip_wall=True)
        assert any("mode mismatch" in v for v in violations)

    def test_candidate_invariant_failure_reported(self):
        candidate = payload()
        candidate["prune_drift"] = 0.5
        violations = compare(payload(), candidate, skip_wall=True)
        assert any("candidate invariants" in v for v in violations)

    def test_eroded_prune_reduction_fails(self):
        candidate = payload()
        candidate["prune_eval_reduction"] = 0.6
        violations = compare(payload(), candidate, skip_wall=True)
        assert any("prune_eval_reduction eroded" in v
                   for v in violations)

    def test_all_violations_listed(self):
        candidate = payload()
        candidate["greedy_prune"]["evaluations"] += 1
        candidate["portfolio_serial"]["cost"] += 1.0
        violations = compare(payload(), candidate, skip_wall=True)
        assert len(violations) >= 2


def _spans(walls):
    """A configuration's ``spans`` map in the bench payload shape."""
    return {name: {"count": 1, "wall_s": wall, "cpu_s": wall}
            for name, wall in walls.items()}


class TestPhaseAttribution:
    def test_wall_violation_names_slowest_growing_phase(self):
        baseline = payload()
        candidate = payload()
        baseline["greedy_prune"]["spans"] = _spans(
            {"ts-greedy/step1": 0.03, "ts-greedy/step2": 0.10})
        candidate["greedy_prune"]["spans"] = _spans(
            {"ts-greedy/step1": 0.04, "ts-greedy/step2": 0.43})
        candidate["greedy_prune"]["wall_s"] *= 3
        violations = compare(baseline, candidate)
        [violation] = [v for v in violations if "greedy_prune" in v]
        assert "slowest-growing span: ts-greedy/step2" in violation
        assert "+0.330s" in violation
        assert "0.100s -> 0.430s" in violation

    def test_attribution_silent_without_phase_data(self):
        # Payloads without a spans map still gate on wall; the
        # violation just goes unattributed.
        candidate = payload()
        candidate["portfolio_serial"]["wall_s"] *= 3
        violations = compare(payload(), candidate)
        [violation] = violations
        assert "portfolio_serial" in violation
        assert "span" not in violation

    def test_attribution_silent_when_no_phase_grew(self):
        base_cfg = {"spans": _spans(
            {"annealing": 0.2, "ts-greedy/step2": 0.1})}
        cand_cfg = {"spans": _spans(
            {"annealing": 0.1, "ts-greedy/step2": 0.05})}
        assert _attribute_span(base_cfg, cand_cfg) == ""

    def test_injected_delay_in_greedy_evaluation_is_attributed(
            self, mini_db, farm8, join_workload, monkeypatch):
        """The acceptance demo: slow down greedy cost evaluation only,
        and the gate must name greedy step 2 in its violation."""
        analyzed = analyze_workload(join_workload, mini_db)
        sizes = mini_db.object_sizes()
        evaluator = WorkloadCostEvaluator(analyzed, farm8,
                                          sorted(sizes))
        graph = build_access_graph(analyzed, mini_db)

        def run_config():
            telemetry = Telemetry()
            start = time.perf_counter()
            result = TsGreedySearch(
                farm8, evaluator, sizes, prune=True,
                telemetry=telemetry).search(graph)
            return {
                "wall_s": time.perf_counter() - start,
                "evaluations": result.evaluations,
                "cost": result.cost,
                "spans": leaf_spans(telemetry),
            }

        fast = run_config()
        real_costs = WorkloadCostEvaluator.costs_for_rows

        def slow_costs(self, *args, **kwargs):
            time.sleep(0.003)  # the injected step-2 delay
            return real_costs(self, *args, **kwargs)

        monkeypatch.setattr(WorkloadCostEvaluator, "costs_for_rows",
                            slow_costs)
        slow = run_config()
        # The delay slows the search without changing it.
        assert slow["evaluations"] == fast["evaluations"]
        assert slow["cost"] == fast["cost"]
        assert slow["wall_s"] > fast["wall_s"] * 1.25

        baseline, candidate = payload("small"), payload("small")
        baseline["greedy_prune"] = \
            dict(baseline["greedy_prune"], **fast)
        candidate["greedy_prune"] = \
            dict(candidate["greedy_prune"], **slow)
        violations = compare(baseline, candidate)
        [violation] = [v for v in violations if "greedy_prune" in v]
        assert "wall" in violation
        assert "slowest-growing span: ts-greedy/step2" in violation


class TestCli:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload())
        cand = self._write(tmp_path, "cand.json", payload())
        assert main(["--baseline", base, "--candidate", cand]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tightened_baseline_exit_one(self, tmp_path, capsys):
        tightened = payload()
        for name in ("greedy_noprune", "greedy_prune",
                     "portfolio_serial", "portfolio_parallel"):
            tightened[name]["wall_s"] *= 0.5
        base = self._write(tmp_path, "base.json", tightened)
        cand = self._write(tmp_path, "cand.json", payload())
        assert main(["--baseline", base, "--candidate", cand]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_baseline_reported(self, tmp_path):
        cand = self._write(tmp_path, "cand.json", payload())
        with pytest.raises(SystemExit, match="not found"):
            main(["--baseline", str(tmp_path / "nope.json"),
                  "--candidate", cand])

    def test_invalid_json_reported(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        cand = self._write(tmp_path, "cand.json", payload())
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["--baseline", str(bad), "--candidate", cand])

    def test_committed_baseline_is_gate_compatible(self):
        # The repo ships a ci-mode baseline for runs with no cached
        # artifact; it must parse and self-compare cleanly.
        committed = Path(__file__).parent.parent / "benchmarks" / \
            "results" / "baseline.json"
        data = json.loads(committed.read_text())
        assert data["mode"] == "ci"
        assert compare(data, copy.deepcopy(data)) == []


def test_real_small_bench_payload_passes_gate():
    """End-to-end: a real small-mode run gates cleanly against itself."""
    from bench_search_speed import run_bench
    candidate = run_bench(jobs=2, mode="small")
    # Each configuration carries its leaf spans under their own names.
    greedy = {"ts-greedy/step1", "ts-greedy/step2"}
    assert set(candidate["greedy_prune"]["spans"]) == greedy
    assert set(candidate["portfolio_parallel"]["spans"]) \
        == greedy | {"annealing"}
    baseline = copy.deepcopy(candidate)
    assert compare(baseline, candidate) == []
    # And a tightened copy of itself fails, as the CI demo documents.
    baseline["greedy_noprune"]["wall_s"] = 1e-6
    assert compare(baseline, candidate, skip_wall=False)


def server_payload(mode="ci"):
    """A well-formed BENCH_server payload that passes every invariant."""
    return {
        "bench": "server",
        "mode": mode,
        "clients": 8,
        "workers": 4,
        "distinct_workloads": 4,
        "requests": 240,
        "completed": 240,
        "errors": 0,
        "warm_errors": 0,
        "error_samples": [],
        "warm_s": 1.0,
        "measured_s": 1.3,
        "throughput_rps": 180.0,
        "latency_s": {"mean": 0.02, "p50": 0.014, "p95": 0.03,
                      "p99": 0.05, "max": 0.4},
        "cache_hit_ratio": 1.0,
        "server_stats": {"cache": {"entries": 4}},
        "prometheus_lines": 41,
    }


class TestPayloadKind:
    def test_server_marker(self):
        assert payload_kind(server_payload()) == "server"

    def test_search_by_default(self):
        assert payload_kind(payload()) == "search"
        assert payload_kind({}) == "search"


class TestCompareServer:
    def test_identical_payloads_pass(self):
        assert compare_server(server_payload(), server_payload()) == []

    def test_small_regression_within_allowance(self):
        candidate = server_payload()
        candidate["throughput_rps"] = 150.0  # -17% < 25% allowance
        assert compare_server(server_payload(), candidate) == []

    def test_throughput_floor(self):
        candidate = server_payload()
        candidate["throughput_rps"] = 90.0  # half the baseline
        violations = compare_server(server_payload(), candidate)
        assert any("throughput dropped" in v for v in violations)

    def test_p95_ceiling(self):
        candidate = server_payload()
        candidate["latency_s"] = dict(candidate["latency_s"], p95=0.2)
        violations = compare_server(server_payload(), candidate)
        assert any("p95 latency" in v for v in violations)

    def test_skip_wall_ignores_machine_speed(self):
        candidate = server_payload()
        candidate["throughput_rps"] = 55.0
        candidate["latency_s"] = dict(candidate["latency_s"], p95=0.9)
        assert compare_server(server_payload(), candidate,
                              skip_wall=True) == []

    def test_hit_ratio_erosion_survives_skip_wall(self):
        candidate = server_payload()
        candidate["cache_hit_ratio"] = 0.90  # beyond the 5% slack
        violations = compare_server(server_payload(), candidate,
                                    skip_wall=True)
        assert any("hit ratio eroded" in v for v in violations)

    def test_hit_ratio_slack_tolerated(self):
        candidate = server_payload()
        candidate["cache_hit_ratio"] = 0.97  # within the 5% slack
        assert compare_server(server_payload(), candidate) == []

    def test_mode_mismatch(self):
        violations = compare_server(server_payload("full"),
                                    server_payload("ci"))
        assert any("mode mismatch" in v for v in violations)

    def test_request_count_drift(self):
        candidate = server_payload()
        candidate["requests"] = 120
        candidate["completed"] = 120
        violations = compare_server(server_payload(), candidate)
        assert any("request count drifted" in v for v in violations)

    def test_candidate_invariant_failure(self):
        candidate = server_payload()
        candidate["errors"] = 3
        violations = compare_server(server_payload(), candidate,
                                    skip_wall=True)
        assert any("candidate invariants" in v for v in violations)

    def test_committed_server_baseline_is_gate_compatible(self):
        committed = Path(__file__).parent.parent / "benchmarks" / \
            "results" / "baseline_server.json"
        data = json.loads(committed.read_text())
        assert payload_kind(data) == "server"
        assert data["mode"] == "ci"
        assert compare_server(data, copy.deepcopy(data)) == []


class TestCliServer:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_server_pass_exit_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", server_payload())
        cand = self._write(tmp_path, "cand.json", server_payload())
        assert main(["--baseline", base, "--candidate", cand]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "server" in out

    def test_server_regression_exit_one(self, tmp_path, capsys):
        slow = server_payload()
        slow["throughput_rps"] = 60.0
        base = self._write(tmp_path, "base.json", server_payload())
        cand = self._write(tmp_path, "cand.json", slow)
        assert main(["--baseline", base, "--candidate", cand]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_kind_mismatch_exit_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload())
        cand = self._write(tmp_path, "cand.json", server_payload())
        assert main(["--baseline", base, "--candidate", cand]) == 1
        assert "kind mismatch" in capsys.readouterr().out


class TestBenchEnv:
    """The shared REPRO_BENCH_* resolver every benchmark rides."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for key in ("REPRO_BENCH_MODE", "REPRO_BENCH_JOBS",
                    "REPRO_BENCH_FULL"):
            monkeypatch.delenv(key, raising=False)

    def test_mode_default(self):
        assert resolve_mode() == "small"
        assert resolve_mode(default="ci") == "ci"

    def test_mode_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MODE", "full")
        assert resolve_mode("ci") == "ci"

    def test_mode_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MODE", "ci")
        assert resolve_mode() == "ci"

    def test_full_switch_beats_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        monkeypatch.setenv("REPRO_BENCH_MODE", "ci")
        assert resolve_full_scale()
        assert resolve_mode() == "full"

    def test_invalid_env_mode_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MODE", "enormous")
        with pytest.warns(RuntimeWarning, match="enormous"):
            assert resolve_mode() == "small"

    def test_invalid_explicit_mode_warns_too(self):
        with pytest.warns(RuntimeWarning, match="turbo"):
            assert resolve_mode("turbo", default="ci") == "ci"

    def test_jobs_default_and_env(self, monkeypatch):
        assert resolve_jobs() == 0
        monkeypatch.setenv("REPRO_BENCH_JOBS", "6")
        assert resolve_jobs() == 6

    def test_jobs_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "6")
        assert resolve_jobs(2) == 2

    def test_jobs_non_integer_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert resolve_jobs(default=4) == 4

    def test_jobs_negative_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "-2")
        with pytest.warns(RuntimeWarning, match="negative"):
            assert resolve_jobs() == 0
