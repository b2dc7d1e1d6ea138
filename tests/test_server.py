"""Tests for the advisor service (repro.server).

Covers the four layers separately and end to end:

* fingerprints — content-addressed, order-independent, SLO-blind;
* the single-flight LRU cache — one compute per key under concurrency,
  failure propagation, selective admission;
* the bounded job queue — deterministic 429, drain vs abandon;
* the service core via ``handle()`` (no socket), then the real HTTP
  transport on an ephemeral port.

The HTTP tests ride in the chaos CI job under ``-W
error::ResourceWarning``: shutdown must close every socket and drain
every worker, the same contract as the parallel engine it wraps.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.catalog.io import (
    database_to_dict,
    farm_to_dict,
    layout_to_dict,
    save_database,
    save_farm,
)
from repro.cli import main
from repro.core.advisor import SearchOptions
from repro.core.fullstripe import full_striping
from repro.errors import BadRequest, QueueFull
from repro.obs.events import validate_events
from repro.resilience import FaultPlan
from repro.server import (
    AdvisorService,
    FingerprintCache,
    Job,
    JobQueue,
    catalog_fingerprint,
    job_fingerprint,
    make_server,
)
from repro.workload.workload import Workload

JOIN_SQL = "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k"
SCAN_SQL = "SELECT SUM(b.v) FROM big b"


def poll(service, job_id, timeout_s=60.0):
    """Poll a job until it reaches a terminal state."""
    deadline = time.monotonic() + timeout_s
    while True:
        status, job, _ = service.handle("GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if job["status"] in ("done", "failed"):
            return job
        assert time.monotonic() < deadline, f"job stuck: {job}"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# fingerprints


class TestFingerprints:
    def _workload(self):
        workload = Workload(name="w")
        workload.add(JOIN_SQL, name="j")
        workload.add(SCAN_SQL, weight=2.0, name="s")
        return workload

    def test_catalog_fingerprint_stable(self, mini_db, farm4):
        db, farm = database_to_dict(mini_db), farm_to_dict(farm4)
        statements = self._workload().statements
        first = catalog_fingerprint(db, farm, statements)
        second = catalog_fingerprint(db, farm, statements)
        assert first == second
        assert len(first) == 64  # sha256 hex

    def test_key_order_is_canonicalized(self, mini_db, farm4):
        db, farm = database_to_dict(mini_db), farm_to_dict(farm4)
        statements = self._workload().statements
        shuffled = json.loads(json.dumps(db))
        shuffled = dict(reversed(list(shuffled.items())))
        assert catalog_fingerprint(db, farm, statements) \
            == catalog_fingerprint(shuffled, farm, statements)

    def test_workload_change_misses(self, mini_db, farm4):
        db, farm = database_to_dict(mini_db), farm_to_dict(farm4)
        base = self._workload()
        reweighted = Workload(name="w")
        reweighted.add(JOIN_SQL, name="j")
        reweighted.add(SCAN_SQL, weight=3.0, name="s")
        assert catalog_fingerprint(db, farm, base.statements) \
            != catalog_fingerprint(db, farm, reweighted.statements)

    def test_content_params_change_job_fingerprint(self):
        base = job_fingerprint("cat", SearchOptions())
        for changed in (SearchOptions(k=2),
                        SearchOptions(method="portfolio"),
                        SearchOptions(portfolio=2),
                        SearchOptions(movement_budget=0.5)):
            assert base != job_fingerprint("cat", changed), changed
        assert base != job_fingerprint("cat", SearchOptions(),
                                       current_layout={"x": 1})

    def test_slo_params_do_not_change_job_fingerprint(self):
        relaxed = job_fingerprint("cat", SearchOptions())
        tight = job_fingerprint("cat", SearchOptions(
            deadline=0.5, retries=3, jobs=8,
            faults=FaultPlan(kill_worker=1)))
        assert relaxed == tight

    def test_absent_and_none_params_are_identical(self):
        assert job_fingerprint("cat", SearchOptions()) \
            == job_fingerprint("cat", SearchOptions(
                method="ts-greedy", k=1, portfolio=None,
                movement_budget=None), current_layout=None)

    def test_integral_budget_keys_like_its_float(self):
        assert job_fingerprint("cat", SearchOptions(movement_budget=1)) \
            == job_fingerprint("cat", SearchOptions(movement_budget=1.0))

    def test_content_fields_are_the_tagged_ones(self):
        assert sorted(SearchOptions().content()) \
            == ["k", "method", "movement_budget", "portfolio"]


# ---------------------------------------------------------------------------
# single-flight LRU cache


class TestFingerprintCache:
    def test_miss_then_hit(self):
        cache = FingerprintCache(capacity=4)
        value, verdict = cache.get_or_compute("a", lambda: 1)
        assert (value, verdict) == (1, "miss")
        value, verdict = cache.get_or_compute("a", lambda: 2)
        assert (value, verdict) == (1, "hit")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = FingerprintCache(capacity=2)
        cache.get_or_compute("a", lambda: "A")
        cache.get_or_compute("b", lambda: "B")
        cache.get("a")  # refresh: now b is least recent
        cache.get_or_compute("c", lambda: "C")
        assert cache.peek("a") == ("A", True)
        assert cache.peek("b") == (None, False)
        assert cache.peek("c") == ("C", True)

    def test_zero_capacity_always_computes(self):
        cache = FingerprintCache(capacity=0)
        calls = []
        cache.get_or_compute("a", lambda: calls.append(1))
        cache.get_or_compute("a", lambda: calls.append(1))
        assert len(calls) == 2 and len(cache) == 0

    def test_single_flight_computes_once(self):
        """N concurrent identical requests cost exactly one compute."""
        cache = FingerprintCache(capacity=4)
        gate = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            gate.wait(5.0)
            return "value"

        results = []
        threads = [threading.Thread(
            target=lambda: results.append(
                cache.get_or_compute("k", compute)))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        # Give every follower time to park on the leader's event.
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(calls) == 1
        assert len(results) == 8
        assert all(value == "value" for value, _ in results)
        verdicts = sorted(verdict for _, verdict in results)
        assert verdicts.count("miss") == 1
        assert verdicts.count("hit") == 7

    def test_leader_failure_propagates_and_clears(self):
        cache = FingerprintCache(capacity=4)
        gate = threading.Event()
        errors = []

        def explode():
            gate.wait(5.0)
            raise RuntimeError("search blew up")

        def follower():
            try:
                cache.get_or_compute("k", explode)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=follower)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert errors == ["search blew up"] * 3
        # The failure was not cached: the next call computes fresh.
        assert cache.get_or_compute("k", lambda: "ok") == ("ok", "miss")

    def test_uncacheable_value_is_returned_but_not_stored(self):
        cache = FingerprintCache(capacity=4)
        value, verdict = cache.get_or_compute(
            "k", lambda: {"degraded": True},
            cacheable=lambda v: not v["degraded"])
        assert verdict == "miss" and value["degraded"]
        assert cache.peek("k") == (None, False)
        # A later clean result for the same key is admitted.
        cache.get_or_compute("k", lambda: {"degraded": False},
                             cacheable=lambda v: not v["degraded"])
        assert cache.peek("k") == ({"degraded": False}, True)

    def test_get_counts_hits_but_peek_does_not(self):
        cache = FingerprintCache(capacity=4)
        cache.get_or_compute("a", lambda: 1)
        cache.peek("a")
        assert cache.hits == 0
        assert cache.get("a") == (1, True)
        assert cache.hits == 1
        assert cache.get("zzz") == (None, False)
        assert cache.misses == 1  # only the compute counted a miss


# ---------------------------------------------------------------------------
# job queue


class TestJobQueue:
    def _job(self, i=0):
        return Job(job_id=f"j{i}", tenant="t", workload="w",
                   method="ts-greedy", fingerprint=f"f{i}")

    def test_runs_submitted_jobs(self):
        done = []
        queue = JobQueue(runner=lambda job: done.append(job.job_id),
                         workers=2, max_queue=8)
        for i in range(6):
            queue.submit(self._job(i))
        queue.close(drain=True)
        assert sorted(done) == [f"j{i}" for i in range(6)]

    def test_deterministic_429_when_full(self):
        """With workers parked, the (max_queue+workers+1)-th submit
        is rejected immediately with a computed Retry-After."""
        gate = threading.Event()
        started = threading.Semaphore(0)

        def runner(job):
            started.release()
            gate.wait(10.0)

        queue = JobQueue(runner=runner, workers=1, max_queue=2)
        try:
            queue.submit(self._job(0))
            assert started.acquire(timeout=5.0)  # worker is busy
            queue.submit(self._job(1))
            queue.submit(self._job(2))  # queue now at max_queue
            with pytest.raises(QueueFull) as exc_info:
                queue.submit(self._job(3))
            assert exc_info.value.retry_after_s == 2  # max_queue//workers
        finally:
            gate.set()
            queue.close(drain=True)

    def test_submit_after_close_is_rejected(self):
        queue = JobQueue(runner=lambda job: None, workers=1,
                         max_queue=2)
        queue.close(drain=True)
        with pytest.raises(QueueFull) as exc_info:
            queue.submit(self._job())
        assert exc_info.value.retry_after_s == 5
        queue.close(drain=True)  # idempotent

    def test_non_draining_close_cancels_queued_jobs(self):
        gate = threading.Event()
        started = threading.Semaphore(0)
        cancelled = []

        def runner(job):
            started.release()
            gate.wait(10.0)

        queue = JobQueue(runner=runner, workers=1, max_queue=4,
                         cancelled=lambda job: cancelled.append(
                             job.job_id))
        queue.submit(self._job(0))
        assert started.acquire(timeout=5.0)
        queue.submit(self._job(1))
        queue.submit(self._job(2))
        closer = threading.Thread(
            target=lambda: queue.close(drain=False))
        closer.start()
        deadline = time.monotonic() + 5.0
        while len(cancelled) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(cancelled) == ["j1", "j2"]
        gate.set()  # release the running job so close() can join
        closer.join(timeout=10.0)
        assert not closer.is_alive()


# ---------------------------------------------------------------------------
# service core (no socket)


@pytest.fixture
def service(mini_db, farm4):
    """A ready single-tenant service over the shared mini catalog."""
    svc = AdvisorService(workers=2, max_queue=4, max_cache=8)
    status, _, _ = svc.handle("POST", "/v1/tenants", {"tenant": "t"})
    assert status == 201
    status, _, _ = svc.handle("PUT", "/v1/tenants/t/database",
                              database_to_dict(mini_db))
    assert status == 200
    status, _, _ = svc.handle("PUT", "/v1/tenants/t/disks",
                              farm_to_dict(farm4))
    assert status == 200
    status, body, _ = svc.handle(
        "PUT", "/v1/tenants/t/workloads/w",
        {"statements": [JOIN_SQL, {"sql": SCAN_SQL, "weight": 2.0}]})
    assert status == 200 and body["statements"] == 2
    yield svc
    svc.close()


class TestServiceRouting:
    def test_health(self, service):
        status, body, _ = service.handle("GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok" and body["workers"] == 2

    def test_unknown_paths_404(self, service):
        for path in ("/nope", "/v1/nope", "/v1/tenants/ghost",
                     "/v1/jobs/ghost", "/v1/tenants/t/nope"):
            status, body, _ = service.handle("GET", path)
            assert status == 404, path
            assert "error" in body

    def test_malformed_catalog_is_400_not_500(self, service):
        status, body, _ = service.handle(
            "PUT", "/v1/tenants/t/database", {"tables": "nonsense"})
        assert status == 400
        assert "malformed database payload" in body["error"]

    def test_workload_upload_requires_statements_or_sql(self, service):
        status, body, _ = service.handle(
            "PUT", "/v1/tenants/t/workloads/bad", {"queries": []})
        assert status == 400

    @pytest.mark.parametrize("method, path, body", [
        ("PUT", "/v1/tenants/t/workloads/bad", {"statements": 5}),
        ("PUT", "/v1/tenants/t/workloads/bad", {"statements": [5]}),
        ("PUT", "/v1/tenants/t/workloads/bad",
         {"statements": [{"weight": 1}]}),
        ("PUT", "/v1/tenants/t/workloads/bad",
         {"statements": [{"sql": SCAN_SQL, "weight": "heavy"}]}),
        ("PUT", "/v1/tenants/t/workloads/bad",
         {"statements": [{"sql": SCAN_SQL, "weight": "nan"}]}),
        ("PUT", "/v1/tenants/t/workloads/bad",
         {"statements": [{"sql": SCAN_SQL, "name": ["s"]}]}),
        ("PUT", "/v1/tenants/t/workloads/bad", "statements"),
        ("PUT", "/v1/tenants/t/workloads/bad", ["sql"]),
        ("PUT", "/v1/tenants/t/workloads/bad", {"sql": None}),
        ("POST", "/v1/tenants", {"tenant": None}),
        ("POST", "/v1/tenants", {"tenant": ["x"]}),
        ("POST", "/v1/tenants", ["tenant"]),
        ("POST", "/v1/tenants/t/jobs", ["workload"]),
    ], ids=["statements-int", "statement-int", "statement-no-sql",
            "weight-text", "weight-nan", "name-list", "string-body", "list-body",
            "sql-null", "tenant-null", "tenant-list", "tenants-list-body",
            "job-list-body"])
    def test_malformed_body_is_400_and_stores_nothing(self, service,
                                                      method, path,
                                                      body):
        tenants = service.handle("GET", "/v1/tenants")[1]
        workloads = service.handle("GET", "/v1/tenants/t/workloads")[1]
        status, payload, _ = service.handle(method, path, body)
        assert status == 400, payload
        assert payload["error"]
        assert service.handle("GET", "/v1/tenants")[1] == tenants
        assert service.handle("GET",
                              "/v1/tenants/t/workloads")[1] == workloads
        assert service.handle("GET", "/v1/jobs")[1]["jobs"] == []

    def test_workload_upload_accepts_sql_text(self, service):
        status, body, _ = service.handle(
            "PUT", "/v1/tenants/t/workloads/text",
            {"sql": f"{JOIN_SQL};\n-- weight: 2\n{SCAN_SQL};\n"})
        assert status == 200 and body["statements"] == 2

    def test_job_against_unready_tenant_is_400(self, service):
        service.handle("POST", "/v1/tenants", {"tenant": "empty"})
        status, body, _ = service.handle(
            "POST", "/v1/tenants/empty/jobs", {"workload": "w"})
        assert status == 400

    def test_unknown_method_is_400(self, service):
        status, body, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "simulated-annealing!"})
        assert status == 400 and "unknown method" in body["error"]

    def test_result_before_completion_is_409(self, service,
                                             monkeypatch):
        gate = threading.Event()
        real_compute = service._compute
        monkeypatch.setattr(
            service, "_compute",
            lambda job: (gate.wait(10.0), real_compute(job))[1])
        status, job, _ = service.handle(
            "POST", "/v1/tenants/t/jobs", {"workload": "w"})
        assert status == 202
        status, body, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 409 and body["error"] == "result not ready"
        gate.set()
        assert poll(service, job["job_id"])["status"] == "done"


class TestServiceJobs:
    def test_full_cycle_miss_then_hit(self, service):
        status, job, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "greedy"})
        assert status == 202 and job["status"] == "queued"
        done = poll(service, job["job_id"])
        assert done["status"] == "done"
        assert done["cache"] == "miss"
        assert not done["degraded"]

        status, result, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 200
        rec = result["recommendation"]
        assert rec["improvement_pct"] >= 0.0
        assert rec["layout"]

        # Identical resubmission: answered synchronously from cache.
        status, repeat, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "greedy"})
        assert status == 200
        assert repeat["status"] == "done" and repeat["cache"] == "hit"
        assert repeat["fingerprint"] == job["fingerprint"]
        assert repeat["job_id"] != job["job_id"]

    def test_tighter_slo_still_hits_cache(self, service):
        _, job, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                   {"workload": "w"})
        poll(service, job["job_id"])
        status, repeat, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "deadline": 0.001, "retries": 5})
        assert status == 200 and repeat["cache"] == "hit"

    def test_queue_full_maps_to_429_with_retry_after(self, service,
                                                     monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            service, "_compute",
            lambda job: (gate.wait(10.0),
                         {"search": {"degraded": False}})[1])
        try:
            accepted = 0
            rejected = None
            # 2 workers + max_queue 4: the 7th distinct submission
            # must be the first rejection — vary k so fingerprints
            # differ and nothing single-flights.
            for k in range(1, 8):
                status, body, headers = service.handle(
                    "POST", "/v1/tenants/t/jobs",
                    {"workload": "w", "k": k})
                if status == 202:
                    accepted += 1
                else:
                    rejected = (k, status, body, headers)
                    break
                if accepted == 2:
                    # Make sure both workers picked up their jobs
                    # before we count queue slots.
                    deadline = time.monotonic() + 5.0
                    while service.queue.depth() > 0 \
                            and time.monotonic() < deadline:
                        time.sleep(0.01)
            assert accepted == 6
            k, status, body, headers = rejected
            assert (k, status) == (7, 429)
            assert headers["Retry-After"] == str(body["retry_after_s"])
            assert body["retry_after_s"] >= 1
        finally:
            gate.set()

    def test_killed_portfolio_worker_degrades_not_loses(self, service):
        """A kill_worker fault mid-portfolio still yields HTTP 200
        with ``degraded: true`` — and the partial answer is not
        cached, so a resubmission recomputes.

        This small workload runs its portfolio serially, where the
        fault raises ``WorkerCrash`` in-process; the degrade semantics
        are the same as for a killed pool worker.  A hard-killed
        worker process (``os._exit`` -> ``BrokenProcessPool``) is
        covered by the forced-pool tests in ``tests/test_parallel.py``
        and ``tests/test_obs_events.py``, not here: it leaks its pipe
        fds by design, which this file's ``-W error::ResourceWarning``
        CI run would flag."""
        status, job, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "portfolio", "jobs": 2,
             "retries": 0, "faults": "kill_worker=1"})
        assert status == 202
        done = poll(service, job["job_id"], timeout_s=120.0)
        assert done["status"] == "done"
        assert done["degraded"] is True
        status, result, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 200 and result["degraded"] is True
        assert result["recommendation"]["layout"]
        # Degraded results are never admitted to the cache.
        assert service.cache.peek(job["fingerprint"]) == (None, False)
        status, again, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "portfolio", "jobs": 2,
             "retries": 0, "faults": "kill_worker=1"})
        assert status == 202  # queued for a fresh computation
        poll(service, again["job_id"], timeout_s=120.0)

    def test_invalid_fault_spec_rejected_at_submit(self, service):
        status, body, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "faults": "meteor_strike=1"})
        assert status == 400

    @pytest.mark.parametrize("bad", [
        {"k": "abc"}, {"jobs": "two"}, {"retries": -1},
        {"deadline": -1}, {"movement_budget": -3}, {"portfolio": 0},
        {"portfolio": "abc"}, {"portfolio": [1, 2]},
        # A fraction or a bool is not an integer; truncating one would
        # run (or serve from cache) a different job.
        {"k": 2.7}, {"k": True}, {"jobs": 1.5}, {"retries": False},
        {"portfolio": 2.9},
        # Bounded work: one job may not hold a worker for hours.
        {"method": "portfolio", "portfolio": 100000},
        {"method": "portfolio", "retries": 1000,
         "faults": "fail_eval=0"}])
    def test_malformed_job_option_is_400_at_submit(self, service, bad):
        status, body, _ = service.handle(
            "POST", "/v1/tenants/t/jobs", {"workload": "w", **bad})
        assert status == 400, (bad, body)
        assert body["error"]
        # Rejected before the queue: no job record exists.
        assert service.handle("GET", "/v1/jobs")[1]["jobs"] == []

    def test_job_work_bounds_are_inclusive(self, service):
        from repro.server.api import MAX_JOB_RETRIES, MAX_JOB_TRAJECTORIES
        options = service._job_options(
            {"method": "portfolio", "portfolio": MAX_JOB_TRAJECTORIES,
             "retries": MAX_JOB_RETRIES})
        assert options.portfolio == 64
        assert options.retries == 8
        for over in ({"portfolio": MAX_JOB_TRAJECTORIES + 1},
                     {"retries": MAX_JOB_RETRIES + 1}):
            with pytest.raises(BadRequest):
                service._job_options({"method": "portfolio", **over})

    def test_null_means_absent_and_unknown_keys_are_ignored(
            self, service, monkeypatch):
        monkeypatch.setattr(service, "_compute",
                            lambda job: {"search": {"degraded": False}})
        _, plain, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                     {"workload": "w"})
        nulls = dict.fromkeys(("method", "k", "jobs", "portfolio",
                               "deadline", "retries",
                               "movement_budget", "faults"))
        # "backend" was a job key before the engine chose its own
        # path; an old client sending it is still served.
        for body in ({"workload": "w", **nulls},
                     {"workload": "w", "backend": "thread"}):
            status, job, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                            body)
            assert status in (200, 202), job
            assert job["fingerprint"] == plain["fingerprint"]

    def test_requests_keep_their_fingerprints(self, service, mini_db,
                                              farm4, monkeypatch):
        """Digests recorded before the options were derived from
        ``SearchOptions``: a request served then still keys the same
        cache entry now."""
        monkeypatch.setattr(service, "_compute",
                            lambda job: {"search": {"degraded": False}})
        pinned = [
            ({"method": "greedy"},
             "4effa64c650947fe493251d19bd5af13"
             "ff20f3452479c75edaa010150a2a635e"),
            ({"k": 2, "jobs": 2, "deadline": 5, "retries": 3},
             "1b8e246c915b9d0820d5d9673c1afdb6"
             "9525cd4c4269fe8d750397ea3b9f0cd3"),
            ({"method": "portfolio", "portfolio": 2, "jobs": 2},
             "661c64d0277407843cb8820d1d9bfb93"
             "6daf55f21720b6ca7a048dbd25a6cf2e"),
        ]
        for body, digest in pinned:
            _, job, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                       {"workload": "w", **body})
            assert job["fingerprint"] == digest, body
        layout = full_striping(mini_db.object_sizes(), farm4)
        status, _, _ = service.handle("PUT", "/v1/tenants/t/layout",
                                      layout_to_dict(layout))
        assert status == 200
        _, job, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "incremental",
             "movement_budget": 0.25})
        assert job["fingerprint"] == (
            "93d6133ea69808d9c2b5bd380c88c834"
            "e63428700082ade91f8fb2783224e4f8")

    def test_portfolio_count_is_honoured(self, service):
        status, job, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "portfolio", "portfolio": 2})
        assert status == 202
        assert poll(service, job["job_id"])["status"] == "done"
        _, result, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        search = result["recommendation"]["search"]
        assert search["extras"]["trajectories"] == 2.0

    def test_retries_count_extra_attempts_in_cli_and_server(
            self, service, tmp_path, mini_db, farm4):
        """``retries: 1`` gives a once-failing trajectory a second
        attempt on both surfaces, so neither result is degraded."""
        status, job, _ = service.handle(
            "POST", "/v1/tenants/t/jobs",
            {"workload": "w", "method": "portfolio", "retries": 1,
             "faults": "fail_eval=0:1"})
        assert status == 202
        done = poll(service, job["job_id"])
        assert done["status"] == "done" and not done["degraded"]

        save_database(mini_db, tmp_path / "db.json")
        save_farm(farm4, tmp_path / "disks.json")
        (tmp_path / "w.sql").write_text(f"{JOIN_SQL};\n{SCAN_SQL};\n")
        saved = tmp_path / "rec.json"
        rc = main(["recommend", "--database", str(tmp_path / "db.json"),
                   "--disks", str(tmp_path / "disks.json"),
                   "--workload", str(tmp_path / "w.sql"),
                   "--method", "portfolio", "--retries", "1",
                   "--faults", "fail_eval=0:1",
                   "--save-recommendation", str(saved)])
        assert rc == 0
        assert "degraded" not in json.loads(saved.read_text())["search"]

    def test_concurrent_identical_submissions_compute_once(
            self, service, monkeypatch):
        calls = []
        lock = threading.Lock()
        real_compute = service._compute

        def counting(job):
            with lock:
                calls.append(job.fingerprint)
            return real_compute(job)

        monkeypatch.setattr(service, "_compute", counting)
        responses = []

        def submit():
            responses.append(service.handle(
                "POST", "/v1/tenants/t/jobs", {"workload": "w"}))

        # At most max_queue submissions: all of them must be admitted
        # even if no worker has pulled one yet.
        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(responses) == 4
        for status, job, _ in responses:
            assert status in (200, 202)
            poll(service, job["job_id"])
        # Single-flight: the four submissions paid for one search.
        assert len(calls) == 1

    def test_stats_and_metrics_reflect_activity(self, service):
        _, job, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                   {"workload": "w"})
        poll(service, job["job_id"])
        service.handle("POST", "/v1/tenants/t/jobs", {"workload": "w"})
        status, stats, _ = service.handle("GET", "/v1/stats")
        assert status == 200
        assert stats["jobs"]["done"] == 2
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["hits"] >= 1
        status, text, headers = service.handle("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "server_jobs_completed_total" in text \
            or "server_jobs_completed" in text

    def test_timeline_validates_and_filters_by_job(self, service):
        _, job, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                   {"workload": "w"})
        poll(service, job["job_id"])
        status, body, _ = service.handle("GET", "/v1/events")
        assert status == 200
        assert validate_events(body["events"]) == []
        types = [event["type"] for event in body["events"]]
        assert types[0] == "server-start"
        assert "server-job-queued" in types
        assert "server-job-finished" in types
        status, scoped, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/events")
        assert status == 200
        assert scoped["events"]  # queued/started/finished at least
        assert all(e["data"]["job_id"] == job["job_id"]
                   for e in scoped["events"])

    def test_shutdown_drains_admitted_jobs(self, mini_db, farm4):
        svc = AdvisorService(workers=1, max_queue=8)
        svc.handle("POST", "/v1/tenants", {"tenant": "t"})
        svc.handle("PUT", "/v1/tenants/t/database",
                   database_to_dict(mini_db))
        svc.handle("PUT", "/v1/tenants/t/disks", farm_to_dict(farm4))
        svc.handle("PUT", "/v1/tenants/t/workloads/w",
                   {"statements": [JOIN_SQL]})
        jobs = []
        for k in (1, 2, 3):
            status, job, _ = svc.handle(
                "POST", "/v1/tenants/t/jobs", {"workload": "w", "k": k})
            assert status == 202
            jobs.append(job["job_id"])
        svc.close(drain=True)  # must finish all three, then stop
        for job_id in jobs:
            status, job, _ = svc.handle("GET", f"/v1/jobs/{job_id}")
            assert job["status"] == "done", job
        events = svc.telemetry.events
        assert events[-1]["type"] == "server-stop"
        assert events[-1]["data"]["jobs_completed"] == 3
        assert validate_events(events) == []
        svc.close()  # idempotent


# ---------------------------------------------------------------------------
# HTTP transport (real sockets, ephemeral port)


class TestHTTPServer:
    @pytest.fixture
    def live(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)

    def _call(self, base, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(base + path, data=data,
                                         method=method)
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = response.read()
            if response.headers.get_content_type() == "application/json":
                return response.status, json.loads(payload)
            return response.status, payload.decode()

    def test_health_over_http(self, live):
        status, body = self._call(live, "GET", "/v1/health")
        assert status == 200 and body["status"] == "ok"

    def test_http_error_codes_survive_transport(self, live):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            self._call(live, "GET", "/v1/tenants/ghost")
        with exc_info.value:  # close the held error-response socket
            assert exc_info.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            self._call(live, "POST", "/v1/tenants", {"wrong": "key"})
        with exc_info.value:
            assert exc_info.value.code == 400

    def test_invalid_json_body_is_400(self, live):
        request = urllib.request.Request(
            live + "/v1/tenants", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=30).close()
        with exc_info.value:
            assert exc_info.value.code == 400

    def test_negative_content_length_is_400(self, live):
        # Reading a body of length -1 would block until the client
        # hangs up, so no response would ever come back.
        address = urllib.parse.urlsplit(live)
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"POST /v1/tenants HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: -1\r\n\r\n")
            assert sock.recv(4096).startswith(b"HTTP/1.1 400")

    def test_keep_alive_responses_skip_the_delayed_ack_wait(self, live):
        # Headers and body leave in separate sends; with Nagle's
        # algorithm on, each response waited ~40 ms for the client's
        # delayed ACK.
        address = urllib.parse.urlsplit(live)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 20 * 0.040 / 4

    def test_full_cycle_over_http(self, live):
        status, job = self._call(live, "POST", "/v1/tenants/t/jobs",
                                 {"workload": "w", "method": "greedy"})
        assert status == 202
        deadline = time.monotonic() + 60.0
        while job["status"] not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.02)
            _, job = self._call(live, "GET",
                                f"/v1/jobs/{job['job_id']}")
        assert job["status"] == "done"
        status, result = self._call(
            live, "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 200
        assert result["recommendation"]["layout"]
        status, text = self._call(live, "GET", "/metrics")
        assert status == 200 and "server_requests" in text

    def test_concurrent_http_clients(self, live):
        """Eight clients hammering the same submission: every request
        succeeds and the service computes the search at most twice
        (the cache single-flights the thundering herd)."""
        statuses = []
        lock = threading.Lock()

        def submit_with_backoff():
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    return self._call(live, "POST",
                                      "/v1/tenants/t/jobs",
                                      {"workload": "w"})
                except urllib.error.HTTPError as exc:
                    # Honor the service's back-pressure: 429 carries a
                    # Retry-After hint sized from the queue.
                    with exc:
                        assert exc.code == 429
                        assert exc.headers["Retry-After"]
                    assert time.monotonic() < deadline
                    time.sleep(0.05)

        def client():
            status, job = submit_with_backoff()
            deadline = time.monotonic() + 60.0
            while job["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
                _, job = self._call(live, "GET",
                                    f"/v1/jobs/{job['job_id']}")
            with lock:
                statuses.append((status, job["status"]))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90.0)
        assert len(statuses) == 8
        assert all(final == "done" for _, final in statuses)
        assert all(code in (200, 202) for code, _ in statuses)
