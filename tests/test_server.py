"""Tests for the advisor service (repro.server).

Covers the layers separately and end to end:

* fingerprints — content-addressed, order-independent, SLO-blind;
* the bounded job queue — deterministic 429, drain vs abandon;
* the service core via ``handle()`` (no socket), its deduplication at
  admission and its result cache included — one search per
  fingerprint in flight, failure propagation, selective admission,
  LRU eviction — then the real HTTP transport on an ephemeral port.

The HTTP tests ride in the chaos CI job under ``-W
error::ResourceWarning``: shutdown must close every socket and drain
every worker, the same contract as the parallel engine it wraps.
"""

from __future__ import annotations

import collections
import http.client
import json
import socket
import sys
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
from repro.core.advisor import LayoutAdvisor, SearchOptions
from repro.core.fullstripe import full_striping
from repro.errors import (
    BadRequest,
    LayoutError,
    PlanningError,
    QueueFull,
    SearchTimeout,
    WorkerCrash,
)
from repro.obs.events import validate_events
from repro.resilience import FaultPlan
from repro.server import (
    AdvisorService,
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


def ready_service(db, farm, **kwargs):
    """A single-tenant service with ``db``, ``farm`` and workload ``w``
    uploaded; ``kwargs`` go to :class:`AdvisorService`."""
    svc = AdvisorService(**kwargs)
    status, _, _ = svc.handle("POST", "/v1/tenants", {"tenant": "t"})
    assert status == 201
    status, _, _ = svc.handle("PUT", "/v1/tenants/t/database",
                              database_to_dict(db))
    assert status == 200
    status, _, _ = svc.handle("PUT", "/v1/tenants/t/disks",
                              farm_to_dict(farm))
    assert status == 200
    status, body, _ = svc.handle(
        "PUT", "/v1/tenants/t/workloads/w",
        {"statements": [JOIN_SQL, {"sql": SCAN_SQL, "weight": 2.0}]})
    assert status == 200 and body["statements"] == 2
    return svc


@pytest.fixture
def service(mini_db, farm4):
    """A ready single-tenant service over the shared mini catalog."""
    svc = ready_service(mini_db, farm4, workers=2, max_queue=4,
                        max_cache=8)
    yield svc
    svc.close()


def submit(service, **body):
    """POST a job for workload ``w`` (overridable) and return
    ``(status, job record)``."""
    status, job, _ = service.handle("POST", "/v1/tenants/t/jobs",
                                    {"workload": "w", **body})
    return status, job


def held_search(payload=None, error=None):
    """A stand-in for ``AdvisorService._compute`` that parks each call
    until ``release`` is set, then returns ``payload`` or raises
    ``error``.  ``started`` is set by the first call; ``calls`` counts
    them."""
    release, started, calls = threading.Event(), threading.Event(), []

    def compute(job):
        calls.append(job.fingerprint)
        started.set()
        release.wait(10.0)
        if error is not None:
            raise error
        return payload or {"search": {"degraded": False}}

    compute.release, compute.started, compute.calls = \
        release, started, calls
    return compute


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
        assert service.handle("GET", "/v1/stats")[1]["cache"]["entries"] \
            == 0
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

    def test_delay_fault_is_400_at_submit(self, service, monkeypatch):
        # No deadline interrupts the injected sleep, so the job would
        # hold a worker for about 28 hours; the stub keeps a regression
        # from hanging the suite.
        monkeypatch.setattr(service, "_compute",
                            lambda job: {"search": {"degraded": False}})
        status, body = submit(service, method="portfolio",
                              faults="delay=0:100000")
        assert status == 400 and "delay" in body["error"]
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
        assert stats["cache"] == {"entries": 1, "capacity": 8, "hits": 1,
                                  "misses": 1, "hit_ratio": 0.5}
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

    def test_sql_chaining_many_operators_is_done(self, service):
        # Long AND and arithmetic chains are flat: the job plans them.
        chain = " AND ".join(f"b.k <> {i}" for i in range(3000))
        total = " + ".join("1" for _ in range(3000))
        status, _, _ = service.handle(
            "PUT", "/v1/tenants/t/workloads/long",
            {"sql": f"SELECT COUNT(*) FROM big b WHERE {chain} "
                    f"AND b.v = {total};"})
        assert status == 200
        status, job = submit(service, workload="long")
        assert status == 202
        done = poll(service, job["job_id"])
        assert done["status"] == "done", done
        status, result, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 200 and result["recommendation"]["layout"]


class TestFingerprintCache:
    """The service's fingerprint-keyed result cache, seen through job
    verdicts, results and the ``/v1/stats`` tallies."""

    def test_miss_then_hit(self, service, monkeypatch):
        calls = []

        def compute(job):
            calls.append(job.fingerprint)
            return {"search": {"degraded": False}, "value": len(calls)}

        monkeypatch.setattr(service, "_compute", compute)
        status, first = submit(service)
        assert status == 202
        assert poll(service, first["job_id"])["cache"] == "miss"
        status, repeat = submit(service)
        assert status == 200 and repeat["cache"] == "hit"
        _, result, _ = service.handle(
            "GET", f"/v1/jobs/{repeat['job_id']}/result")
        assert result["recommendation"]["value"] == 1
        assert len(calls) == 1
        cache = service.handle("GET", "/v1/stats")[1]["cache"]
        assert cache["hits"] == 1 and cache["misses"] == 1
        assert cache["hit_ratio"] == pytest.approx(0.5)


class TestServiceDedup:
    """Identical jobs are deduplicated once, at admission: a cached
    fingerprint is a 200, a fingerprint in flight attaches to its
    leader, anything else is queued."""

    def test_follower_takes_no_queue_slot_or_worker(self, service,
                                                    monkeypatch):
        held = held_search()  # only the k=1 search is held
        monkeypatch.setattr(
            service, "_compute",
            lambda job: held(job) if job.options.k == 1
            else {"search": {"degraded": False}})
        try:
            status, leader = submit(service)
            assert status == 202
            assert held.started.wait(5.0)
            status, follower = submit(service)
            assert status == 202 and follower["status"] == "queued"
            assert follower["fingerprint"] == leader["fingerprint"]
            assert service.queue.depth() == 0
            # The second worker is free: a distinct job runs and
            # finishes while the leader is still held.
            status, distinct = submit(service, k=2)
            assert status == 202
            assert poll(service, distinct["job_id"],
                        timeout_s=5.0)["status"] == "done"
            _, record, _ = service.handle(
                "GET", f"/v1/jobs/{leader['job_id']}")
            assert record["status"] == "running"
        finally:
            held.release.set()
        assert poll(service, leader["job_id"])["cache"] == "miss"
        done = poll(service, follower["job_id"])
        assert done["status"] == "done" and done["cache"] == "hit"
        assert "wait_s" not in done and done["latency_s"] > 0
        assert len(held.calls) == 1
        _, body, _ = service.handle(
            "GET", f"/v1/jobs/{follower['job_id']}/events")
        assert [event["type"] for event in body["events"]] == [
            "server-job-queued", "server-job-finished"]
        status, result, _ = service.handle(
            "GET", f"/v1/jobs/{follower['job_id']}/result")
        assert status == 200 and result["job"]["cache"] == "hit"

    def test_queued_job_computes_the_inputs_it_was_submitted_with(
            self, mini_db, farm4, monkeypatch):
        """A workload re-uploaded while a job waits changes neither what
        the job computes nor what its fingerprint caches."""
        svc = ready_service(mini_db, farm4, workers=1)
        try:
            status, _, _ = svc.handle("PUT", "/v1/tenants/t/workloads/hold",
                                      {"sql": SCAN_SQL})
            assert status == 200
            gate, started = threading.Event(), threading.Event()
            compute = svc._compute

            def held_first(job):
                if job.workload == "hold":
                    started.set()
                    gate.wait(10.0)
                return compute(job)

            monkeypatch.setattr(svc, "_compute", held_first)
            _, holder = submit(svc, workload="hold")
            assert started.wait(5.0)
            status, queued = submit(svc)
            assert status == 202
            other = "SELECT COUNT(*) FROM big b, small s " \
                    "WHERE b.dim_id = s.dim_id"
            status, _, _ = svc.handle("PUT", "/v1/tenants/t/workloads/w",
                                      {"statements": [other]})
            assert status == 200
            gate.set()
            assert poll(svc, holder["job_id"])["status"] == "done"
            assert poll(svc, queued["job_id"])["status"] == "done"
            _, result, _ = svc.handle(
                "GET", f"/v1/jobs/{queued['job_id']}/result")
            first = Workload(name="w")
            first.add(JOIN_SQL)
            first.add(SCAN_SQL, weight=2.0)
            fresh = LayoutAdvisor(mini_db, farm4).recommend(first)
            assert result["recommendation"]["per_statement"] == [
                [str(name), current, proposed]
                for name, current, proposed in fresh.per_statement]
            # The first workload again: its fingerprint is cached with
            # the first workload's result.
            status, _, _ = svc.handle(
                "PUT", "/v1/tenants/t/workloads/w",
                {"statements": [JOIN_SQL, {"sql": SCAN_SQL,
                                           "weight": 2.0}]})
            assert status == 200
            status, repeat = submit(svc)
            assert status == 200 and repeat["cache"] == "hit"
            _, again, _ = svc.handle(
                "GET", f"/v1/jobs/{repeat['job_id']}/result")
            assert again["recommendation"] == result["recommendation"]
        finally:
            gate.set()
            svc.close()

    def test_leader_error_fails_followers_and_is_not_kept(
            self, service, monkeypatch):
        compute = held_search(error=RuntimeError("search blew up"))
        monkeypatch.setattr(service, "_compute", compute)
        _, leader = submit(service)
        assert compute.started.wait(5.0)
        followers = [submit(service)[1] for _ in range(2)]
        compute.release.set()
        for job in (leader, *followers):
            done = poll(service, job["job_id"])
            assert done["status"] == "failed"
            assert done["error"] == "RuntimeError: search blew up"
            status, body, _ = service.handle(
                "GET", f"/v1/jobs/{job['job_id']}/result")
            assert status == 500 and body["error"] == done["error"]
        assert len(compute.calls) == 1
        # The failure was not kept: the next submission computes fresh.
        monkeypatch.setattr(service, "_compute",
                            lambda job: {"search": {"degraded": False}})
        status, again = submit(service)
        assert status == 202
        assert poll(service, again["job_id"])["cache"] == "miss"

    def test_degraded_result_reaches_followers_and_is_not_kept(
            self, service, monkeypatch):
        compute = held_search(payload={"search": {"degraded": True}})
        monkeypatch.setattr(service, "_compute", compute)
        _, leader = submit(service)
        assert compute.started.wait(5.0)
        _, follower = submit(service)
        compute.release.set()
        for job, cache in ((leader, "miss"), (follower, "hit")):
            done = poll(service, job["job_id"])
            assert done["status"] == "done" and done["degraded"]
            assert done["cache"] == cache
        assert service.telemetry.value("server.jobs_degraded") == 2
        assert service.handle("GET", "/v1/stats")[1]["cache"]["entries"] \
            == 0
        # A later clean result for the same fingerprint is kept.
        monkeypatch.setattr(service, "_compute",
                            lambda job: {"search": {"degraded": False}})
        status, again = submit(service)
        assert status == 202
        assert poll(service, again["job_id"])["cache"] == "miss"
        assert submit(service)[0] == 200

    def test_zero_capacity_still_deduplicates(self, mini_db, farm4,
                                              monkeypatch):
        svc = ready_service(mini_db, farm4, workers=2, max_queue=4,
                            max_cache=0)
        try:
            compute = held_search()
            monkeypatch.setattr(svc, "_compute", compute)
            jobs = [submit(svc) for _ in range(3)]
            assert [status for status, _ in jobs] == [202] * 3
            compute.release.set()
            caches = sorted(poll(svc, job["job_id"])["cache"]
                            for _, job in jobs)
            assert caches == ["hit", "hit", "miss"]
            assert len(compute.calls) == 1
            assert svc.handle("GET", "/v1/stats")[1]["cache"]["entries"] \
                == 0
            # Nothing was kept: a later identical job computes again.
            status, again = submit(svc)
            assert status == 202
            poll(svc, again["job_id"])
            assert len(compute.calls) == 2
        finally:
            svc.close()

    def test_lru_evicts_least_recently_used(self, mini_db, farm4,
                                            monkeypatch):
        svc = ready_service(mini_db, farm4, workers=1, max_queue=4,
                            max_cache=2)
        try:
            monkeypatch.setattr(svc, "_compute",
                                lambda job: {"search": {"degraded": False}})
            for k in (1, 2):
                _, job = submit(svc, k=k)
                poll(svc, job["job_id"])
            assert submit(svc, k=1)[0] == 200  # refresh: now k=2 is LRU
            _, job = submit(svc, k=3)
            poll(svc, job["job_id"])
            assert submit(svc, k=1)[0] == 200
            assert submit(svc, k=3)[0] == 200
            assert submit(svc, k=2)[0] == 202  # evicted
            assert svc.handle("GET", "/v1/stats")[1]["cache"]["entries"] \
                == 2
        finally:
            svc.close()

    def test_mixed_concurrent_submissions_search_each_once(
            self, mini_db, farm4, monkeypatch):
        """More submitters and workers than cores, with a short switch
        interval: every job ends done and each fingerprint is searched
        exactly once, whether a job lands as leader, follower or hit."""
        svc = ready_service(mini_db, farm4, workers=4, max_queue=64)
        calls = collections.Counter()
        lock = threading.Lock()

        def compute(job):
            with lock:
                calls[job.fingerprint] += 1
            time.sleep(0.01)
            return {"search": {"degraded": False}}

        monkeypatch.setattr(svc, "_compute", compute)
        ids = []

        def client(i):
            for j in range(10):
                status, job = submit(svc, k=1 + (i + j) % 3)
                if status in (200, 202):
                    with lock:
                        ids.append(job["job_id"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(ids) == 80
            assert all(poll(svc, job_id)["status"] == "done"
                       for job_id in ids)
            assert sorted(calls.values()) == [1, 1, 1]
            assert svc.telemetry.value("server.jobs_completed") == 80
        finally:
            svc.close()

    def test_non_draining_close_fails_followers_too(self, mini_db, farm4,
                                                    monkeypatch):
        svc = ready_service(mini_db, farm4, workers=1, max_queue=4)
        compute = held_search()
        monkeypatch.setattr(svc, "_compute", compute)
        _, running = submit(svc, k=1)
        assert compute.started.wait(5.0)
        _, leader = submit(svc, k=2)
        _, follower = submit(svc, k=2)
        closer = threading.Thread(target=svc.close,
                                  kwargs={"drain": False})
        closer.start()
        try:
            for job in (leader, follower):
                done = poll(svc, job["job_id"], timeout_s=5.0)
                assert done["status"] == "failed"
                assert done["error"] == \
                    "service shut down before the job started"
        finally:
            compute.release.set()
            closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert poll(svc, running["job_id"])["status"] == "done"
        assert len(compute.calls) == 1
        assert validate_events(svc.telemetry.events) == []


class TestServiceFailures:
    def test_job_failing_on_its_inputs_is_400(self, service):
        # The SQL parses, so the upload succeeds; planning then fails.
        status, _, _ = service.handle(
            "PUT", "/v1/tenants/t/workloads/bad",
            {"sql": "SELECT nope FROM nosuch;"})
        assert status == 200
        status, job = submit(service, workload="bad")
        assert status == 202
        done = poll(service, job["job_id"])
        assert done["status"] == "failed"
        assert done["error"].startswith("PlanningError: ")
        status, body, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 400 and body["error"] == done["error"]

    def test_sql_nested_too_deep_is_400(self, service):
        deep = "(" * 200 + "b.k = 1" + ")" * 200
        status, _, _ = service.handle(
            "PUT", "/v1/tenants/t/workloads/deep",
            {"sql": f"SELECT COUNT(*) FROM big b WHERE {deep};"})
        assert status == 200
        status, job = submit(service, workload="deep")
        assert status == 202
        done = poll(service, job["job_id"])
        assert done["status"] == "failed"
        assert done["error"].startswith(
            "SqlSyntaxError: statement nests deeper than")
        status, body, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == 400 and body["error"] == done["error"]
        assert service._jobs[job["job_id"]].bad_input

    @pytest.mark.parametrize("error, code", [
        (PlanningError("unknown table 'x'"), 400),
        (LayoutError("objects do not fit"), 400),
        (WorkerCrash("worker died"), 500),
        (SearchTimeout("deadline expired"), 500),
        (RuntimeError("bug"), 500),
    ], ids=["planning", "layout", "worker-crash", "timeout", "bug"])
    def test_result_status_blames_inputs_only(self, service, monkeypatch,
                                              error, code):
        def compute(job):
            raise error

        monkeypatch.setattr(service, "_compute", compute)
        _, job = submit(service)
        assert poll(service, job["job_id"])["status"] == "failed"
        status, _, _ = service.handle(
            "GET", f"/v1/jobs/{job['job_id']}/result")
        assert status == code


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
        succeeds (the first is a leader, the rest ride on it or hit
        the cache)."""
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
