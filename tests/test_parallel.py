"""Tests for repro.parallel: evaluator pickling, trajectories, portfolio."""

from __future__ import annotations

import json
import os
import pickle
import time
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.advisor import LayoutAdvisor
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.random_layout import random_layout
from repro.errors import (
    DegradedResult,
    LayoutError,
    SearchTimeout,
    WorkerCrash,
)
from repro.obs import Telemetry
from repro.parallel import (
    POOL_MIN_PACKED_BYTES,
    PortfolioSearch,
    TrajectorySpec,
    available_workers,
    default_portfolio,
)
from repro.parallel import portfolio as portfolio_module
from repro.parallel.portfolio import MAX_WORKERS_ENV
from repro.parallel.worker import TrajectoryContext, run_trajectory
from repro.resilience import FaultPlan, RetryPolicy
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph


@pytest.fixture
def case(mini_db, join_workload, farm8):
    analyzed = analyze_workload(join_workload, mini_db)
    sizes = mini_db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm8, sorted(sizes))
    graph = build_access_graph(analyzed, mini_db)
    return evaluator, graph, sizes, farm8


def _fractions(layout):
    return {name: layout.fractions_of(name)
            for name in layout.object_names}


def _on_pool(result) -> bool:
    return result.extras["workers"] > 1


class TestSharedEvaluator:
    def test_round_trip_is_bit_identical(self, case):
        evaluator, _, sizes, farm = case
        layouts = [full_striping(sizes, farm)] + \
            [random_layout(sizes, farm, seed) for seed in range(5)]
        restored = pickle.loads(pickle.dumps(evaluator))
        for layout in layouts:
            assert restored.cost(layout) == evaluator.cost(layout)

    def test_spawned_workers_match_serial(self, case, force_pool,
                                          monkeypatch, tmp_path):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(2)
        serial = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1).search(graph)
        monkeypatch.setattr(portfolio_module, "get_all_start_methods",
                            lambda: ["spawn"])
        # What the CLI binds under --events: a handle whose open file
        # sink cannot be pickled, so spawn must leave it behind.
        with Telemetry(path=tmp_path / "events.jsonl") as sink:
            previous = evaluator.bind_telemetry(sink)
            try:
                pooled = PortfolioSearch(farm, evaluator, sizes,
                                         specs=specs,
                                         jobs=2).search(graph)
            finally:
                evaluator.bind_telemetry(previous)
        assert _on_pool(pooled)
        assert pooled.cost == serial.cost
        assert _fractions(pooled.layout) == _fractions(serial.layout)
        assert pooled.evaluations == serial.evaluations

    def test_no_resource_tracker_warnings(self, case, force_pool):
        evaluator, graph, sizes, farm = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = PortfolioSearch(farm, evaluator, sizes,
                                     specs=default_portfolio(2),
                                     jobs=2)
            assert _on_pool(engine.search(graph))

    def test_worker_error_is_reraised_typed(self, case, force_pool,
                                            monkeypatch):
        evaluator, graph, sizes, farm = case
        # Two trajectories, so jobs=2 really starts two workers.
        bad = [TrajectorySpec(method="no-such-method")] * 2
        engine = PortfolioSearch(farm, evaluator, sizes, specs=bad,
                                 jobs=2)
        drained = []
        real_drain = engine._drain

        def drain(*args):
            drained.append(len(args[0]))
            return real_drain(*args)

        monkeypatch.setattr(engine, "_drain", drain)
        with pytest.raises(LayoutError):
            engine.search(graph)
        # The run really went through the pool.
        assert drained == [2]


class TestTrajectories:
    def test_unknown_method_raises(self, case):
        evaluator, graph, sizes, farm = case
        from repro.core.constraints import ConstraintSet
        context = TrajectoryContext(
            evaluator=evaluator, farm=farm, sizes=sizes,
            constraints=ConstraintSet(), graph=graph,
            initial_layout=None,
            specs=(TrajectorySpec(method="quantum"),))
        with pytest.raises(LayoutError, match="quantum"):
            run_trajectory(context, 0)

    def test_trajectory_returns_its_search_result(self, case):
        evaluator, graph, sizes, farm = case
        from repro.core.constraints import ConstraintSet
        context = TrajectoryContext(
            evaluator=evaluator, farm=farm, sizes=sizes,
            constraints=ConstraintSet(), graph=graph,
            initial_layout=None, specs=(TrajectorySpec(),))
        direct = TsGreedySearch(farm, evaluator, sizes).search(graph)
        # A pool worker pickles what an in-process run returns.
        result, snapshot = pickle.loads(pickle.dumps(
            run_trajectory(context, 0)))
        assert result.cost == direct.cost
        assert _fractions(result.layout) == _fractions(direct.layout)
        assert result.evaluations == direct.evaluations
        assert result.steps == direct.steps
        assert result.extras == direct.extras
        assert {event["source"] for event in snapshot["events"]} \
            == {"trajectory-0"}

    def test_default_portfolio_shape(self):
        specs = default_portfolio(6)
        assert len(specs) == 6
        assert specs[0].partition_seed is None  # canonical run first
        methods = [s.method for s in specs]
        assert "annealing" in methods
        assert default_portfolio(1)[0].method == "ts-greedy"
        no_anneal = default_portfolio(6, include_annealing=False)
        assert all(s.method == "ts-greedy" for s in no_anneal)
        with pytest.raises(LayoutError):
            default_portfolio(0)


class TestPortfolioSearch:
    def test_parallel_matches_serial_bit_identically(self, case,
                                                     force_pool):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        serial = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1).search(graph)
        pooled = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=4).search(graph)
        assert _on_pool(pooled)
        assert pooled.cost == serial.cost
        assert _fractions(pooled.layout) == _fractions(serial.layout)
        assert pooled.evaluations == serial.evaluations
        assert pooled.extras["best_trajectory"] \
            == serial.extras["best_trajectory"]

    def test_winner_equals_best_individual_trajectory(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        result = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1).search(graph)
        individual = []
        for spec in specs:
            if spec.method == "ts-greedy":
                individual.append(TsGreedySearch(
                    farm, evaluator, sizes, k=spec.k,
                    partition_seed=spec.partition_seed).search(graph).cost)
            else:
                from repro.core.annealing import annealing_search
                individual.append(annealing_search(
                    farm, evaluator, sizes, seed=spec.seed,
                    iterations=spec.iterations).cost)
        assert result.cost == min(individual)
        assert int(result.extras["best_trajectory"]) \
            == individual.index(min(individual))

    def test_never_worse_than_canonical_greedy(self, case):
        evaluator, graph, sizes, farm = case
        canonical = TsGreedySearch(farm, evaluator, sizes).search(graph)
        result = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(3),
                                 jobs=1).search(graph)
        assert result.cost <= canonical.cost

    def test_merged_telemetry_and_metrics(self, case, force_pool):
        evaluator, graph, sizes, farm = case
        telemetry = Telemetry()
        specs = default_portfolio(3)
        result = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=2,
                                 telemetry=telemetry).search(graph)
        assert _on_pool(result)
        assert result.extras["trajectories"] == 3.0
        assert result.extras["workers"] == 2.0
        root = telemetry.find("portfolio")
        assert root is not None
        names = [child.name for child in root.children]
        assert names == [f"portfolio/trajectory-{i}" for i in range(3)]
        assert telemetry.value("portfolio.trajectories") == 3.0
        assert telemetry.value("portfolio.workers") == 2.0
        # Worker-side counters really crossed the process boundary.
        assert telemetry.value("greedy.iterations") > 0
        assert telemetry.value("costmodel.bound_evaluations") > 0

    def test_rejects_bad_arguments(self, case):
        evaluator, _, sizes, farm = case
        with pytest.raises(LayoutError):
            PortfolioSearch(farm, evaluator, sizes, jobs=-1)
        with pytest.raises(LayoutError):
            PortfolioSearch(farm, evaluator, sizes, specs=[])


def _assert_workers(result, telemetry, workers):
    assert result.extras["workers"] == float(workers)
    assert telemetry.value("portfolio.workers") == float(workers)


class TestBackendChoice:
    def test_serial_and_process_bit_identical(self, case, force_pool):
        # More trajectories than workers, so the pool queues one.
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        serial = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1).search(graph)
        pooled = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=2).search(graph)
        assert _on_pool(pooled)
        assert pooled.cost == serial.cost
        assert _fractions(pooled.layout) == _fractions(serial.layout)
        assert pooled.evaluations == serial.evaluations
        assert pooled.extras["best_trajectory"] \
            == serial.extras["best_trajectory"]

    def test_backend_reported_in_extras_and_gauge(self, case,
                                                  monkeypatch,
                                                  force_pool):
        # More than one worker means the pool ran.
        evaluator, graph, sizes, farm = case
        for jobs, threshold, workers in (
                (1, POOL_MIN_PACKED_BYTES, 1),
                (1, 0, 1),
                (2, 0, 2)):
            monkeypatch.setattr(portfolio_module,
                                "POOL_MIN_PACKED_BYTES", threshold)
            telemetry = Telemetry()
            result = PortfolioSearch(
                farm, evaluator, sizes, specs=default_portfolio(2),
                jobs=jobs, telemetry=telemetry).search(graph)
            _assert_workers(result, telemetry, workers)

    def test_pool_never_starts_more_workers_than_cores(
            self, case, monkeypatch, force_pool):
        evaluator, graph, sizes, farm = case
        monkeypatch.setattr(portfolio_module, "available_workers",
                            lambda: 2)
        started = []

        class NoPool(Exception):
            pass

        def recorder(max_workers, **kwargs):
            started.append(max_workers)
            raise NoPool

        monkeypatch.setattr(portfolio_module, "ProcessPoolExecutor",
                            recorder)
        for jobs in (8, 0):
            with pytest.raises(NoPool):
                PortfolioSearch(farm, evaluator, sizes,
                                specs=default_portfolio(8),
                                jobs=jobs).search(graph)
        assert started == [2, 2]

    def test_small_packings_run_serially(self, case):
        # The mini workload packs far under the threshold, so jobs=2
        # runs serially on one worker.
        evaluator, graph, sizes, farm = case
        assert evaluator.packed_nbytes < POOL_MIN_PACKED_BYTES
        telemetry = Telemetry()
        result = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2,
                                 telemetry=telemetry).search(graph)
        _assert_workers(result, telemetry, 1)

    def test_threshold_splits_the_reference_workloads(self):
        """The example TPC-H workload (13 objects) runs serially and
        tpch88 on three copies (39 objects) takes the pool, as
        measured in ``docs/performance.md``."""
        from repro.benchdb import tpch
        from repro.catalog.io import load_database, load_farm
        from repro.experiments import common
        from repro.workload.workload import Workload

        examples = Path(__file__).parent.parent / "examples" / "tpch"
        db = load_database(examples / "db.json")
        small = WorkloadCostEvaluator(
            analyze_workload(Workload.load(examples / "workload.sql"),
                             db),
            load_farm(examples / "disks.json"),
            sorted(db.object_sizes()))
        assert small.packed_nbytes < POOL_MIN_PACKED_BYTES
        db3 = tpch.replicated_database(3)
        large = WorkloadCostEvaluator(
            analyze_workload(tpch.tpch88_workload(3), db3),
            common.paper_farm(8), sorted(db3.object_sizes()))
        assert large.packed_nbytes >= POOL_MIN_PACKED_BYTES


class TestAvailableWorkers:
    def test_empty_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_workers() == 6

    def test_missing_affinity_api_falls_back(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert available_workers() == 5

    def test_never_returns_less_than_one(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_workers() == 1

    def test_env_override_caps_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert available_workers() == 2
        # A cap above the machine's cores is clamped to the cores.
        monkeypatch.setenv(MAX_WORKERS_ENV, "64")
        assert available_workers() == 4

    def test_env_override_invalid_values_ignored(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        for bad in ("banana", "0", "-2", ""):
            monkeypatch.setenv(MAX_WORKERS_ENV, bad)
            assert available_workers() == 4


class TestFaultTolerance:
    """Deterministic fault injection against the full engine."""

    def test_killed_worker_degrades_to_survivor_best(self, case,
                                                     force_pool):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(4)
        engine = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=4,
                                 faults=FaultPlan(kill_worker=1))
        result = engine.search(graph)
        assert _on_pool(result)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]
        failure = result.failures[0]
        assert failure.cause == "crash"
        assert failure.attempts >= 2  # pool try + serial retries
        assert failure.label == specs[1].label
        assert result.extras["trajectories"] == 4.0
        # The layout is the exact serial best over the survivors.
        survivors = [spec for i, spec in enumerate(specs) if i != 1]
        baseline = PortfolioSearch(farm, evaluator, sizes,
                                   specs=survivors, jobs=1).search(graph)
        assert result.cost == baseline.cost
        assert _fractions(result.layout) == _fractions(baseline.layout)

    def test_resilience_params_cause_zero_drift(self, case, force_pool):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        plain = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                jobs=1).search(graph)
        guarded = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=2,
            deadline=300.0, retry=RetryPolicy()).search(graph)
        assert _on_pool(guarded)
        assert not guarded.degraded
        assert guarded.failures == []
        assert guarded.cost == plain.cost
        assert _fractions(guarded.layout) == _fractions(plain.layout)
        assert guarded.evaluations == plain.evaluations

    def test_eval_fault_recovers_via_retry(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(2)
        baseline = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                   jobs=1).search(graph)
        telemetry = Telemetry()
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=1,
            telemetry=telemetry,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            faults=FaultPlan(fail_eval=0, fail_eval_times=1))
        result = engine.search(graph)
        assert not result.degraded
        assert result.cost == baseline.cost
        assert telemetry.value("resilience.retries") == 1.0

    def test_eval_fault_exhausts_retries_and_degrades(self, case):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=default_portfolio(2),
            jobs=1, retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            faults=FaultPlan(fail_eval=0))  # fails every attempt
        result = engine.search(graph)
        assert result.degraded
        assert [f.index for f in result.failures] == [0]
        assert result.failures[0].cause == "crash"
        assert result.failures[0].attempts == 2

    def test_worker_init_fault_falls_back_serially(self, case,
                                                   force_pool):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        baseline = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                   jobs=1).search(graph)
        telemetry = Telemetry()
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=2,
            telemetry=telemetry, faults=FaultPlan(fail_worker_init=True))
        result = engine.search(graph)
        assert _on_pool(result)
        # Every worker died at start; the serial fallback recovered
        # every trajectory, so the run is NOT degraded and the result
        # is bit-identical to the healthy serial run.
        assert not result.degraded
        assert result.cost == baseline.cost
        assert _fractions(result.layout) == _fractions(baseline.layout)
        assert telemetry.value("resilience.serial_fallbacks") == 3.0

    def test_slow_trajectory_times_out(self, case, force_pool):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=default_portfolio(2),
            jobs=2, deadline=1.0,
            faults=FaultPlan(delay_trajectory=1, delay_s=3.0))
        result = engine.search(graph)
        assert _on_pool(result)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].cause == "timeout"

    def test_deadline_skips_remaining_trajectories(self, case):
        evaluator, graph, sizes, farm = case
        specs = default_portfolio(3)
        engine = PortfolioSearch(farm, evaluator, sizes, specs=specs,
                                 jobs=1, deadline=0.0)
        result = engine.search(graph)
        # Trajectory 0 always runs (a result beats an empty timeout);
        # the rest are recorded as timeouts without being started.
        assert result.degraded
        assert [f.index for f in result.failures] == [1, 2]
        assert all(f.cause == "timeout" for f in result.failures)
        only_first = PortfolioSearch(farm, evaluator, sizes,
                                     specs=specs[:1],
                                     jobs=1).search(graph)
        assert result.cost == only_first.cost

    def test_nothing_completes_raises_search_timeout(
            self, case, monkeypatch, force_pool):
        evaluator, graph, sizes, farm = case

        def stuck(context, index):
            time.sleep(2.0)
            raise AssertionError("should have been abandoned")

        # fork workers inherit the patched module state.
        monkeypatch.setattr("repro.parallel.worker.run_trajectory",
                            stuck)
        engine = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2,
                                 deadline=0.2)
        # Nothing completes, so no result records its workers; check
        # the path instead: only the pool drains futures.
        drained = []
        real_drain = engine._drain

        def drain(*args):
            drained.append(len(args[0]))
            return real_drain(*args)

        monkeypatch.setattr(engine, "_drain", drain)
        with pytest.raises(SearchTimeout):
            engine.search(graph)
        assert drained == [2]

    def test_all_crash_raises_worker_crash(self, case):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(
            farm, evaluator, sizes, specs=[TrajectorySpec()], jobs=1,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            faults=FaultPlan(kill_worker=0))
        with pytest.raises(WorkerCrash):
            engine.search(graph)

    def test_keyboard_interrupt_propagates_cleanly(self, case,
                                                   monkeypatch,
                                                   force_pool):
        evaluator, graph, sizes, farm = case
        engine = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # Only the pool path drains, so the interrupt comes from it.
        monkeypatch.setattr(engine, "_drain", interrupted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(KeyboardInterrupt):
                engine.search(graph)

    def test_faults_spec_string_round_trips_from_env(self, case,
                                                     monkeypatch,
                                                     force_pool):
        evaluator, graph, sizes, farm = case
        monkeypatch.setenv("REPRO_FAULTS", "kill_worker=1")
        engine = PortfolioSearch(farm, evaluator, sizes,
                                 specs=default_portfolio(2), jobs=2)
        result = engine.search(graph)
        assert _on_pool(result)
        assert result.degraded
        assert [f.index for f in result.failures] == [1]


class TestAdvisorPortfolio:
    def test_method_portfolio_matches_jobs_invariance(
            self, mini_db, join_workload, farm8, force_pool):
        advisor = LayoutAdvisor(mini_db, farm8)
        serial = advisor.recommend(join_workload, method="portfolio",
                                   portfolio=3, jobs=1)
        pooled = advisor.recommend(join_workload, method="portfolio",
                                   portfolio=3, jobs=2)
        assert _on_pool(pooled.search)
        assert pooled.estimated_cost == serial.estimated_cost
        assert _fractions(pooled.layout) == _fractions(serial.layout)

    def test_examples_tpch_saves_one_recommendation_on_both_paths(
            self, tmp_path, monkeypatch, force_pool):
        examples = Path(__file__).parent.parent / "examples" / "tpch"
        saved = {}
        for jobs, threshold in ((1, POOL_MIN_PACKED_BYTES), (2, 0)):
            monkeypatch.setattr(portfolio_module,
                                "POOL_MIN_PACKED_BYTES", threshold)
            path = tmp_path / f"rec-{jobs}.json"
            assert main(["recommend",
                         "--database", str(examples / "db.json"),
                         "--disks", str(examples / "disks.json"),
                         "--workload", str(examples / "workload.sql"),
                         "--method", "portfolio", "--jobs", str(jobs),
                         "--save-recommendation", str(path)]) == 0
            saved[jobs] = json.loads(path.read_text())
        serial, pooled = saved[1], saved[2]
        assert serial["search"]["extras"]["workers"] == 1.0
        assert pooled["search"]["extras"]["workers"] == 2.0
        assert pooled["layout"] == serial["layout"]
        assert pooled["estimated_cost"] == serial["estimated_cost"]
        assert pooled["search"]["evaluations"] \
            == serial["search"]["evaluations"]
        assert pooled["search"]["extras"]["best_trajectory"] \
            == serial["search"]["extras"]["best_trajectory"]

    def test_portfolio_never_worse_than_ts_greedy(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        greedy = advisor.recommend(join_workload, method="ts-greedy")
        portfolio = advisor.recommend(join_workload,
                                      method="portfolio", portfolio=3)
        assert portfolio.estimated_cost <= greedy.estimated_cost

    def test_constrained_portfolio_drops_annealing(
            self, mini_db, join_workload, farm8):
        from repro.core.constraints import CoLocated, ConstraintSet
        constraints = ConstraintSet(
            co_located=[CoLocated("big", "idx_big_d")])
        advisor = LayoutAdvisor(mini_db, farm8,
                                constraints=constraints)
        rec = advisor.recommend(join_workload, method="portfolio",
                                portfolio=4, jobs=2)
        assert rec.search.extras["trajectories"] == 4.0
        constraints.check(rec.layout)

    def test_degraded_run_warns_and_matches_survivors(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.warns(DegradedResult,
                          match=r"1/4 trajectories failed"):
            rec = advisor.recommend(join_workload, method="portfolio",
                                    portfolio=4, jobs=4,
                                    faults=FaultPlan(kill_worker=1))
        assert rec.search.degraded
        assert [f.index for f in rec.search.failures] == [1]
        assert rec.search.failures[0].cause == "crash"
        # The recommendation equals a healthy run over the survivors.
        specs = default_portfolio(4)
        survivors = [spec for i, spec in enumerate(specs) if i != 1]
        baseline = advisor.recommend(join_workload, method="portfolio",
                                     portfolio=survivors, jobs=1)
        assert rec.estimated_cost == baseline.estimated_cost
        assert _fractions(rec.layout) == _fractions(baseline.layout)

    def test_deadline_parameter_reaches_the_engine(
            self, mini_db, join_workload, farm8):
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.warns(DegradedResult):
            rec = advisor.recommend(join_workload, method="portfolio",
                                    portfolio=3, jobs=1, deadline=0.0)
        assert rec.search.degraded
        # One trajectory still ran, so the layout is real and valid.
        assert rec.layout.object_names
        causes = {f.cause for f in rec.search.failures}
        assert causes == {"timeout"}

    def test_report_shows_degradation(self, mini_db, join_workload,
                                      farm8):
        from repro.core.report import render_report
        advisor = LayoutAdvisor(mini_db, farm8)
        with pytest.warns(DegradedResult):
            rec = advisor.recommend(join_workload, method="portfolio",
                                    portfolio=4, jobs=4,
                                    faults=FaultPlan(kill_worker=1))
        text = render_report(rec)
        assert "degraded: 1/4 trajectories failed (crash)" in text
