"""Tests for repro.resilience: deadlines, retries, fault injection.

The parallel-engine integration of these primitives (degraded
portfolio runs, serial fallback, clean shutdown under faults) lives in
``tests/test_parallel.py``; this file covers the primitives themselves
plus the satellite surfaces: the typed recommendation loader, the
degraded report rendering, and the CLI flags.
"""

from __future__ import annotations

import json

import pytest

from repro.core.fullstripe import full_striping
from repro.core.greedy import SearchResult, TrajectoryFailure
from repro.core.report import render_search_diagnostics
from repro.errors import (
    CatalogError,
    DegradedResult,
    FaultSpecError,
    LayoutError,
    RecommendationFormatError,
    ReproError,
    RetriesExhausted,
    SearchTimeout,
    WorkerCrash,
)
from repro.resilience import Deadline, FaultPlan, RetryPolicy
from repro.resilience import faults as fault_injection


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline.never()
        assert deadline.unlimited
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        deadline.check()  # must not raise

    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == 10.0
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(6.0)
        assert deadline.elapsed() == pytest.approx(4.0)
        clock.advance(7.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0  # clamped, never negative

    def test_check_raises_search_timeout_with_elapsed(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.5)
        with pytest.raises(SearchTimeout, match="portfolio deadline"):
            deadline.check("portfolio")
        try:
            deadline.check()
        except SearchTimeout as error:
            assert error.elapsed_s == pytest.approx(2.5)

    def test_negative_seconds_rejected(self):
        with pytest.raises(LayoutError):
            Deadline(-1.0)

    def test_coerce_normalizes_every_form(self):
        assert Deadline.coerce(None).unlimited
        live = Deadline(5.0)
        assert Deadline.coerce(live) is live
        assert Deadline.coerce(3).remaining() <= 3.0
        with pytest.raises(LayoutError):
            Deadline.coerce("soon")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(LayoutError):
            RetryPolicy(attempts=0)
        with pytest.raises(LayoutError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(LayoutError):
            RetryPolicy(jitter=1.5)
        assert RetryPolicy.none().attempts == 1

    def test_delays_shape(self):
        policy = RetryPolicy(attempts=4, base_delay_s=0.1,
                             multiplier=2.0, max_delay_s=0.3,
                             jitter=0.0)
        delays = list(policy.delays(seed=7))
        assert len(delays) == 4
        assert delays[0] == 0.0  # first attempt is immediate
        assert delays[1] == pytest.approx(0.1)
        assert delays[2] == pytest.approx(0.2)
        assert delays[3] == pytest.approx(0.3)  # capped at max_delay_s

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(attempts=5, jitter=0.5)
        assert list(policy.delays(seed=3)) == list(policy.delays(seed=3))
        assert list(policy.delays(seed=3)) != list(policy.delays(seed=4))
        # Jitter only ever lengthens a sleep (scale in [1, 1+jitter]).
        plain = list(RetryPolicy(attempts=5, jitter=0.0).delays())
        jittered = list(policy.delays(seed=9))
        for base, actual in zip(plain[1:], jittered[1:]):
            assert base <= actual <= base * 1.5 + 1e-12

    def test_run_returns_value_and_attempt_count(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        sleeps = []
        policy = RetryPolicy(attempts=4, base_delay_s=0.01)
        value, attempts = policy.run(flaky, seed=0,
                                     sleep=sleeps.append)
        assert value == "done"
        assert attempts == 3
        assert len(sleeps) == 2  # one sleep before each retry

    def test_run_exhaustion_reraises_last_error(self):
        def always_fails():
            raise ValueError("nope")

        policy = RetryPolicy(attempts=3, base_delay_s=0.0)
        with pytest.raises(RetriesExhausted, match="nope") as caught:
            policy.run(always_fails, sleep=lambda _: None)
        assert isinstance(caught.value.error, ValueError)
        assert caught.value.__cause__ is caught.value.error
        assert caught.value.attempts == 3

    def test_on_retry_fires_when_a_retry_starts(self):
        log = []

        def fails():
            log.append("call")
            raise OSError("transient")

        policy = RetryPolicy(attempts=3, base_delay_s=0.01)
        with pytest.raises(RetriesExhausted):
            policy.run(fails, sleep=lambda _: log.append("sleep"),
                       on_retry=lambda attempt, error: log.append(
                           (attempt, str(error))))
        assert log == ["call", "sleep", (2, "transient"), "call",
                       "sleep", (3, "transient"), "call"]

    def test_run_respects_retry_on_filter(self):
        calls = []

        def fails_with_type_error():
            calls.append(1)
            raise TypeError("not transient")

        policy = RetryPolicy(attempts=5, base_delay_s=0.0)
        with pytest.raises(TypeError):
            policy.run(fails_with_type_error, retry_on=(OSError,),
                       sleep=lambda _: None)
        assert len(calls) == 1  # no retries for a non-matching error

    def test_run_stops_at_deadline(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)

        def fails_slowly():
            clock.advance(6.0)
            raise OSError("slow failure")

        retries = []
        policy = RetryPolicy(attempts=10, base_delay_s=0.0)
        with pytest.raises(RetriesExhausted) as caught:
            policy.run(fails_slowly, deadline=deadline,
                       sleep=lambda _: None,
                       on_retry=lambda attempt, _: retries.append(
                           attempt))
        # 6s + 6s crosses the 10s deadline: only two attempts ran, and
        # no third retry was announced.
        assert clock.now - 100.0 == pytest.approx(12.0)
        assert caught.value.attempts == 2
        assert retries == [2]


class TestFaultPlan:
    def test_from_spec_parses_every_fault(self):
        plan = FaultPlan.from_spec(
            "kill_worker=1, delay=2:0.75, fail_eval=0:2, "
            "fail_worker_init")
        assert plan.kill_worker == 1
        assert plan.delay_trajectory == 2
        assert plan.delay_s == pytest.approx(0.75)
        assert plan.fail_eval == 0
        assert plan.fail_eval_times == 2
        assert plan.fail_worker_init
        assert not plan.empty

    def test_from_spec_defaults(self):
        assert FaultPlan.from_spec("delay=3").delay_s == 1.0
        assert FaultPlan.from_spec("fail_eval=1").fail_eval_times == 0
        assert FaultPlan.from_spec("").empty
        for on in ("1", "True", "yes"):
            assert FaultPlan.from_spec(
                f"fail_worker_init={on}").fail_worker_init
        for off in ("0", "false", "NO"):
            assert FaultPlan.from_spec(f"fail_worker_init={off}").empty

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(FaultSpecError, match="unknown fault"):
            FaultPlan.from_spec("explode=now")
        with pytest.raises(FaultSpecError, match="malformed"):
            FaultPlan.from_spec("kill_worker=soon")
        with pytest.raises(FaultSpecError, match="malformed"):
            FaultPlan.from_spec("delay=1:fast")
        with pytest.raises(FaultSpecError, match="malformed"):
            FaultPlan.from_spec("fail_worker_init=maybe")

    def test_unknown_kind_error_lists_valid_kinds(self):
        from repro.resilience import FAULT_KINDS
        with pytest.raises(FaultSpecError) as caught:
            FaultPlan.from_spec("crash_after_inten=2")  # typo
        message = str(caught.value)
        for kind in FAULT_KINDS:
            assert kind in message

    def test_from_spec_parses_migration_faults(self):
        plan = FaultPlan.from_spec(
            "fail_step=2:3, crash_after_intent=1, "
            "crash_before_done=4, stall_step=0:2.5")
        assert plan.fail_step == 2
        assert plan.fail_step_times == 3
        assert plan.crash_after_intent == 1
        assert plan.crash_before_done == 4
        assert plan.stall_step == 0
        assert plan.stall_s == pytest.approx(2.5)
        assert not plan.empty
        # Kind-specific defaults.
        assert FaultPlan.from_spec("fail_step=2").fail_step_times == 1
        assert FaultPlan.from_spec("stall_step=1").stall_s == 1.0

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
        plan = FaultPlan.from_env({"REPRO_FAULTS": "kill_worker=2"})
        assert plan is not None and plan.kill_worker == 2

    def test_fire_kill_in_parent_raises_worker_crash(self):
        plan = FaultPlan(kill_worker=1)
        fault_injection.fire_kill(plan, 0)  # wrong index: no-op
        fault_injection.fire_kill(None, 1)  # no plan: no-op
        with pytest.raises(WorkerCrash, match="trajectory 1"):
            fault_injection.fire_kill(plan, 1)

    def test_fire_delay_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan(delay_trajectory=2, delay_s=0.25)
        fault_injection.fire_delay(plan, 0, sleep=slept.append)
        assert slept == []
        fault_injection.fire_delay(plan, 2, sleep=slept.append)
        assert slept == [0.25]

    def test_fire_eval_honors_times_limit(self):
        try:
            plan = FaultPlan(fail_eval=0, fail_eval_times=2)
            fault_injection.reset_eval_counts()
            for _ in range(2):
                with pytest.raises(WorkerCrash):
                    fault_injection.fire_eval(plan, 0)
            fault_injection.fire_eval(plan, 0)  # third attempt passes
            fault_injection.fire_eval(plan, 1)  # other index untouched
        finally:
            fault_injection.reset_eval_counts()

    def test_fire_worker_init_reads_the_plan(self):
        fault_injection.fire_worker_init(None)  # no plan: no-op
        fault_injection.fire_worker_init(FaultPlan(kill_worker=0))
        with pytest.raises(WorkerCrash, match="failed to start"):
            fault_injection.fire_worker_init(
                FaultPlan(fail_worker_init=True))


class TestTrajectoryFailure:
    def test_describe_reads_well(self):
        text = TrajectoryFailure(1, "greedy-102", "timeout",
                                 attempts=2, message="slow").describe()
        assert "trajectory 1 (greedy-102)" in text
        assert "timeout after 2 attempts" in text
        assert "slow" in text

    def test_healthy_telemetry_has_no_degradation_keys(self, mini_db,
                                                       farm8):
        layout = full_striping(mini_db.object_sizes(), farm8)
        failure = TrajectoryFailure(1, "x", "crash", 2, "dead")
        result = SearchResult(layout=layout, cost=10.0,
                              initial_cost=12.0, failures=[failure])
        payload = result.telemetry_dict()
        assert payload["degraded"] is True
        assert payload["failures"] == [{
            "index": 1, "label": "x", "cause": "crash", "attempts": 2,
            "message": "dead"}]
        json.dumps(payload)
        # A healthy result's telemetry carries no degradation keys, so
        # pre-existing persisted payloads keep their exact shape.
        healthy = SearchResult(layout=layout, cost=1.0,
                               initial_cost=1.0)
        assert "degraded" not in healthy.telemetry_dict()
        assert "failures" not in healthy.telemetry_dict()


class TestDegradedRendering:
    def _degraded_result(self, mini_db, farm8):
        layout = full_striping(mini_db.object_sizes(), farm8)
        result = SearchResult(layout=layout, cost=10.0,
                              initial_cost=12.0)
        result.extras.update({"trajectories": 4.0, "workers": 2.0,
                              "best_trajectory": 0.0,
                              "best_trajectory_cost": 10.0})
        result.failures = [
            TrajectoryFailure(1, "greedy-102", "timeout", 1, "slow"),
            TrajectoryFailure(3, "anneal-104", "crash", 3, "dead"),
        ]
        return result

    def test_diagnostics_show_degradation(self, mini_db, farm8):
        text = render_search_diagnostics(
            self._degraded_result(mini_db, farm8))
        assert "degraded: 2/4 trajectories failed" in text
        assert "crash" in text and "timeout" in text
        assert "trajectory 3 (anneal-104)" in text

    def test_healthy_portfolio_unchanged(self, mini_db, farm8):
        result = self._degraded_result(mini_db, farm8)
        result.failures = []
        assert not result.degraded
        text = render_search_diagnostics(result)
        assert "degraded" not in text
        assert "portfolio: 4 trajectories" in text

    def test_diagnostics_name_each_backend(self, mini_db, farm8):
        # More than one worker means the process pool ran.
        result = self._degraded_result(mini_db, farm8)
        for workers, where in ((2.0, "on 2 worker processes"),
                               (1.0, "in-process")):
            result.extras["workers"] = workers
            text = render_search_diagnostics(result)
            assert f"portfolio: 4 trajectories {where};" in text

    def test_degraded_result_is_warning_and_repro_error(self):
        assert issubclass(DegradedResult, Warning)
        assert issubclass(DegradedResult, ReproError)


class TestRecommendationLoader:
    def _save_valid(self, tmp_path, mini_db, farm8):
        from repro.catalog.io import save_recommendation
        from repro.core.advisor import Recommendation
        layout = full_striping(mini_db.object_sizes(), farm8)
        rec = Recommendation(layout=layout, estimated_cost=5.0,
                             current_cost=8.0)
        path = tmp_path / "rec.json"
        save_recommendation(rec, path)
        return path

    def test_round_trip_still_works(self, tmp_path, mini_db, farm8):
        from repro.catalog.io import load_recommendation
        path = self._save_valid(tmp_path, mini_db, farm8)
        loaded = load_recommendation(path, farm8)
        assert loaded.estimated_cost == 5.0
        assert loaded.current_cost == 8.0

    def test_missing_key_names_file_and_key(self, tmp_path, mini_db,
                                            farm8):
        from repro.catalog.io import load_recommendation
        path = self._save_valid(tmp_path, mini_db, farm8)
        data = json.loads(path.read_text())
        del data["estimated_cost"]
        path.write_text(json.dumps(data))
        with pytest.raises(RecommendationFormatError) as excinfo:
            load_recommendation(path, farm8)
        assert excinfo.value.key == "estimated_cost"
        assert str(path) in str(excinfo.value)
        assert "estimated_cost" in str(excinfo.value)
        assert isinstance(excinfo.value, CatalogError)  # typed chain

    def test_malformed_value_names_file(self, tmp_path, mini_db,
                                        farm8):
        from repro.catalog.io import load_recommendation
        path = self._save_valid(tmp_path, mini_db, farm8)
        data = json.loads(path.read_text())
        data["estimated_cost"] = "not-a-number"
        path.write_text(json.dumps(data))
        with pytest.raises(RecommendationFormatError, match="malformed"):
            load_recommendation(path, farm8)

    def test_invalid_json_and_non_object(self, tmp_path, farm8):
        from repro.catalog.io import load_recommendation
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(RecommendationFormatError,
                           match="not valid JSON"):
            load_recommendation(path, farm8)
        path.write_text("[1, 2, 3]")
        with pytest.raises(RecommendationFormatError,
                           match="must be an object"):
            load_recommendation(path, farm8)
