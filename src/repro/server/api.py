"""The advisor service: multi-tenant state, routing, job lifecycle.

:class:`AdvisorService` is the whole service with the transport
peeled off: :meth:`~AdvisorService.handle` takes ``(method, path,
body)`` and returns ``(status, payload, headers)``.  The HTTP layer
(:mod:`repro.server.app`) is a thin adapter over it, which keeps the
entire API surface — routing, validation, status-code mapping, job
lifecycle, caching, telemetry — testable without opening a socket.

Resources (all JSON; see ``docs/server.md`` for the curl cookbook)::

    GET    /v1/health
    GET    /v1/stats
    GET    /metrics                      (Prometheus text)
    GET    /v1/events                    (flight-recorder timeline)
    GET    /v1/tenants
    POST   /v1/tenants                   {"tenant": name}
    GET    /v1/tenants/{t}
    DELETE /v1/tenants/{t}
    PUT    /v1/tenants/{t}/database      (catalog JSON)
    PUT    /v1/tenants/{t}/disks        (disk farm JSON)
    PUT    /v1/tenants/{t}/constraints  (constraint JSON)
    PUT    /v1/tenants/{t}/layout       (current layout JSON)
    PUT    /v1/tenants/{t}/workloads/{w} {"sql": ...} or {"statements": ...}
    POST   /v1/tenants/{t}/jobs         (job request, below)
    GET    /v1/jobs
    GET    /v1/jobs/{id}
    GET    /v1/jobs/{id}/result
    GET    /v1/jobs/{id}/plan
    GET    /v1/jobs/{id}/events

A job request names an uploaded workload and rides the advisor's
:class:`~repro.core.advisor.SearchOptions`: ``{"workload": "w",
"method": "greedy", "k": 2, "jobs": 4, "portfolio": 4,
"deadline": 30, "retries": 2, "movement_budget": 0.25,
"faults": "spec"}``.  ``null`` means absent, and a malformed value is
a 400 at submit, as is a ``portfolio`` above :data:`MAX_JOB_TRAJECTORIES`,
``retries`` above :data:`MAX_JOB_RETRIES` or a ``delay`` fault: one job
may not hold a worker for hours.  SLO mapping onto the resilience layer
(``docs/resilience.md``): ``deadline`` becomes a
:class:`repro.resilience.Deadline` for the job, ``retries`` the extra
attempts of a :class:`~repro.resilience.RetryPolicy`, and a degraded
portfolio result is returned as HTTP 200 with ``"degraded": true`` —
partial answers beat no answers, exactly as in the library API.

Concurrency model: worker threads run searches; one re-entrant lock
serializes *all* mutable service state — tenant tables, job records,
the result cache, the jobs in flight, and crucially every telemetry
event and metric write (the flight recorder assigns ``seq`` by append
position, so unserialized emission from worker threads would corrupt
the timeline's total order).  Searches themselves run outside the
lock, on the inputs the job read from its tenant at submit, in the
same step as the payloads it is fingerprinted from.  Identical jobs
are deduplicated once, at admission, under that lock: a cached
fingerprint is answered at once (200), a fingerprint already queued
or running gets a *follower* that rides on that *leader* job (202, no
queue slot, no worker), and anything else is queued.  Every way a job
ends goes through one method, ``AdvisorService._finish``: a hit at
submit, a leader's result or error and its followers, and a
non-draining close.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Any

from repro.catalog.io import (
    constraints_from_dict,
    database_from_dict,
    database_to_dict,
    farm_from_dict,
    farm_to_dict,
    layout_from_dict,
    recommendation_to_dict,
)
from repro.core.advisor import METHODS as SEARCH_METHODS
from repro.core.advisor import LayoutAdvisor, SearchOptions
from repro.errors import (
    AnalysisError,
    BadRequest,
    CatalogError,
    LayoutError,
    PlanningError,
    QueueFull,
    ReproError,
    ServerError,
    SqlSyntaxError,
    UnknownResource,
    WorkloadError,
)
from repro.obs.events import new_run_id
from repro.obs.export import to_prometheus
from repro.obs.telemetry import Telemetry
from repro.resilience import Deadline, FaultPlan
from repro.server.fingerprint import catalog_fingerprint, job_fingerprint
from repro.server.jobs import DONE, FAILED, RUNNING, Job, JobInputs, JobQueue
from repro.workload.workload import Workload

#: ``method`` values a job may request.  ``greedy`` is accepted as an
#: alias for the library's ``ts-greedy``.
METHODS = (*SEARCH_METHODS, "greedy")

#: Most portfolio trajectories one job may request (about 0.1 s each
#: on the bundled TPC-H example).
MAX_JOB_TRAJECTORIES = 64

#: Most extra attempts one job may grant a failed trajectory (each
#: retry may first back off for up to ``RetryPolicy.max_delay_s``).
MAX_JOB_RETRIES = 8

#: Errors that blame a job's own inputs: its result is a 400, not a 500.
INPUT_ERRORS = (PlanningError, SqlSyntaxError, CatalogError,
                WorkloadError, LayoutError, AnalysisError)

_JSON = {"Content-Type": "application/json"}
_TEXT = {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}


class Tenant:
    """One tenant's in-memory catalog: database, disks, constraints,
    current layout, named workloads.

    The raw JSON payloads are kept alongside the parsed objects — they
    are the canonical fingerprint inputs, so caching is a pure
    function of what the client uploaded, not of our object graph.
    """

    def __init__(self, name: str):
        self.name = name
        self.db = None
        self.db_payload: dict[str, Any] | None = None
        self.farm = None
        self.farm_payload: list[dict[str, Any]] | None = None
        self.constraints = None
        self.constraints_payload: dict[str, Any] | None = None
        self.current_layout = None
        self.layout_payload: dict[str, Any] | None = None
        self.workloads: dict[str, Workload] = {}

    def ready(self) -> bool:
        return self.db is not None and self.farm is not None

    def describe(self) -> dict[str, Any]:
        return {
            "tenant": self.name,
            "database": (self.db.name if self.db is not None else None),
            "disks": (len(self.farm) if self.farm is not None else 0),
            "constraints": self.constraints_payload is not None,
            "current_layout": self.layout_payload is not None,
            "workloads": {name: len(wl)
                          for name, wl in sorted(self.workloads.items())},
            "ready": self.ready(),
        }


class AdvisorService:
    """The multi-tenant advisor daemon (transport-agnostic core).

    Args:
        workers: Search worker threads.
        max_queue: Bounded queue depth; beyond it submissions get 429.
        max_cache: Fingerprint-cache capacity (recommendations); 0
            keeps none but still deduplicates jobs in flight.
        telemetry: The service's :class:`~repro.obs.Telemetry` (its
            ``server-*`` events and strict ``server.*`` metrics); a
            fresh ``Telemetry(source="server", strict=True)`` by
            default.
    """

    def __init__(self, workers: int = 2, max_queue: int = 16,
                 max_cache: int = 128,
                 telemetry: Telemetry | None = None):
        self._lock = threading.RLock()
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(source="server", strict=True)
        self._tenants: dict[str, Tenant] = {}
        self._jobs: dict[str, Job] = {}
        #: Clean results by fingerprint, least recently used first.
        self._cache: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._max_cache = max_cache
        #: ``[leader, *followers]`` of each fingerprint queued or running.
        self._flights: dict[str, list[Job]] = {}
        self.queue = JobQueue(runner=self._run_job, workers=workers,
                              max_queue=max_queue,
                              cancelled=self._cancel_job)
        self._closed = False
        with self._lock:
            self.telemetry.set_gauge("server.workers", workers)
            self.telemetry.set_gauge("server.queue_depth", 0)
            self.telemetry.set_gauge("server.tenants", 0)
            self.telemetry.set_gauge("server.cache_entries", 0)
            self.telemetry.emit("server-start", workers=workers,
                                max_queue=max_queue)

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Drain (or abandon) the queue, stop workers, seal telemetry."""
        if self._closed:
            return
        self.queue.close(drain=drain)
        with self._lock:
            self._closed = True
            completed = self.telemetry.value("server.jobs_completed")
            self.telemetry.emit("server-stop",
                                jobs_completed=int(completed))
            self.telemetry.close()

    def __enter__(self) -> "AdvisorService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- routing ----------------------------------------------------------

    def handle(self, method: str, path: str,
               body: Any = None,
               ) -> tuple[int, Any, dict[str, str]]:
        """Serve one request; returns ``(status, payload, headers)``.

        ``payload`` is a JSON-ready dict (or a ``str`` for text
        endpoints).  Never raises for client errors — every
        :class:`ServerError` is mapped to its status code here, so
        the HTTP adapter stays a dumb pipe.
        """
        with self._lock:
            self.telemetry.inc("server.requests")
        try:
            status, payload, headers = self._route(
                method.upper(), path.rstrip("/") or "/", body)
        except QueueFull as exc:
            headers = dict(_JSON)
            headers["Retry-After"] = str(exc.retry_after_s)
            status, payload = 429, {
                "error": str(exc), "retry_after_s": exc.retry_after_s}
        except BadRequest as exc:
            status, payload, headers = 400, {"error": str(exc)}, _JSON
        except UnknownResource as exc:
            status, payload, headers = 404, {"error": str(exc)}, _JSON
        except ServerError as exc:
            status, payload, headers = 400, {"error": str(exc)}, _JSON
        except ReproError as exc:
            # Library-level validation failure (bad catalog, bad SQL…)
            # — the client's fault, not ours.
            status, payload, headers = 400, {
                "error": f"{type(exc).__name__}: {exc}"}, _JSON
        if status >= 400:
            with self._lock:
                self.telemetry.inc("server.errors")
        return status, payload, headers

    def _route(self, method: str, path: str, body: Any,
               ) -> tuple[int, Any, dict[str, str]]:
        parts = [p for p in path.split("/") if p]
        if path in ("/metrics", "/v1/metrics") and method == "GET":
            with self._lock:
                text = to_prometheus(self.telemetry.metrics)
            return 200, text, dict(_TEXT)
        if not parts or parts[0] != "v1":
            raise UnknownResource(f"no such resource: {path}")
        tail = parts[1:]
        if tail == ["health"] and method == "GET":
            return 200, self._health(), _JSON
        if tail == ["stats"] and method == "GET":
            return 200, self._stats(), _JSON
        if tail == ["events"] and method == "GET":
            with self._lock:
                events = self.telemetry.events
                run_id = self.telemetry.run_id
            return 200, {"run_id": run_id, "events": events}, _JSON
        if tail and tail[0] == "tenants":
            return self._route_tenants(method, tail[1:], body)
        if tail and tail[0] == "jobs":
            return self._route_jobs(method, tail[1:], body)
        raise UnknownResource(f"no such resource: {path}")

    # -- health / stats ----------------------------------------------------

    def _health(self) -> dict[str, Any]:
        with self._lock:
            return {
                "status": "ok",
                "run_id": self.telemetry.run_id,
                "tenants": len(self._tenants),
                "jobs": len(self._jobs),
                "queue_depth": self.queue.depth(),
                "workers": self.queue.workers,
            }

    def _stats(self) -> dict[str, Any]:
        with self._lock:
            jobs_by_status: dict[str, int] = {}
            for job in self._jobs.values():
                jobs_by_status[job.status] = \
                    jobs_by_status.get(job.status, 0) + 1
            hits = int(self.telemetry.value("server.cache_hits"))
            misses = int(self.telemetry.value("server.cache_misses"))
            return {
                "tenants": len(self._tenants),
                "jobs": {status: jobs_by_status[status]
                         for status in sorted(jobs_by_status)},
                "queue": {"depth": self.queue.depth(),
                          "max": self.queue.max_queue,
                          "workers": self.queue.workers},
                "cache": {"entries": len(self._cache),
                          "capacity": self._max_cache,
                          "hits": hits,
                          "misses": misses,
                          "hit_ratio": round(hits / (hits + misses), 4)
                          if hits + misses else 0.0},
            }

    # -- tenant resources --------------------------------------------------

    def _route_tenants(self, method: str, tail: list[str], body: Any,
                       ) -> tuple[int, Any, dict[str, str]]:
        if not tail:
            if method == "GET":
                with self._lock:
                    listing = [self._tenants[name].describe()
                               for name in sorted(self._tenants)]
                return 200, {"tenants": listing}, _JSON
            if method == "POST":
                name = _require(body, "tenant")
                return 201, self._create_tenant(name), _JSON
            raise BadRequest(f"unsupported method {method} on /v1/tenants")
        name = tail[0]
        if len(tail) == 1:
            if method == "GET":
                return 200, self._tenant(name).describe(), _JSON
            if method == "DELETE":
                with self._lock:
                    if name not in self._tenants:
                        raise UnknownResource(f"no such tenant: {name}")
                    del self._tenants[name]
                    self.telemetry.set_gauge("server.tenants",
                                             len(self._tenants))
                return 200, {"tenant": name, "deleted": True}, _JSON
            raise BadRequest(f"unsupported method {method} on tenant")
        kind = tail[1]
        if kind == "jobs" and len(tail) == 2 and method == "POST":
            return self._submit(name, _object(body))
        if kind == "workloads":
            if len(tail) == 3 and method == "PUT":
                return 200, self._put_workload(name, tail[2],
                                              _object(body)), _JSON
            if len(tail) == 2 and method == "GET":
                tenant = self._tenant(name)
                with self._lock:
                    listing = {w: len(tenant.workloads[w])
                               for w in sorted(tenant.workloads)}
                return 200, {"workloads": listing}, _JSON
            raise BadRequest("workloads supports PUT "
                             "/v1/tenants/{t}/workloads/{name}")
        if method == "PUT" and kind in ("database", "disks",
                                        "constraints", "layout"):
            return 200, self._put_catalog(name, kind, body), _JSON
        raise UnknownResource(f"no such tenant resource: {kind}")

    def _tenant(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownResource(f"no such tenant: {name}")
        return tenant

    def _create_tenant(self, name: str) -> dict[str, Any]:
        if not name or "/" in name:
            raise BadRequest(f"invalid tenant name: {name!r}")
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                tenant = Tenant(name)
                self._tenants[name] = tenant
                self.telemetry.set_gauge("server.tenants",
                                         len(self._tenants))
                self.telemetry.emit("server-tenant", tenant=name,
                                    kind="created")
            return tenant.describe()

    def _put_catalog(self, name: str, kind: str,
                     body: Any) -> dict[str, Any]:
        if body is None:
            raise BadRequest(f"{kind} upload requires a JSON body")
        tenant = self._tenant(name)
        if kind == "database":
            db = _parse(kind, database_from_dict, body)
            with self._lock:
                tenant.db = db
                tenant.db_payload = database_to_dict(db)
        elif kind == "disks":
            farm = _parse(kind, farm_from_dict, body)
            with self._lock:
                tenant.farm = farm
                tenant.farm_payload = farm_to_dict(farm)
        elif kind == "constraints":
            with self._lock:
                if not tenant.ready():
                    raise BadRequest(
                        "upload database and disks before constraints")
                tenant.constraints = _parse(
                    kind,
                    lambda data: constraints_from_dict(
                        data, farm=tenant.farm,
                        object_sizes=tenant.db.object_sizes()),
                    body)
                tenant.constraints_payload = body
        else:  # layout
            with self._lock:
                if tenant.farm is None:
                    raise BadRequest("upload disks before a layout")
                tenant.current_layout = _parse(
                    kind,
                    lambda data: layout_from_dict(data, tenant.farm),
                    body)
                tenant.layout_payload = body
        with self._lock:
            self.telemetry.emit("server-tenant", tenant=name, kind=kind)
            return tenant.describe()

    def _put_workload(self, name: str, workload_name: str,
                      body: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(name)
        if "statements" in body:
            entries = body["statements"]
            if not isinstance(entries, list):
                raise BadRequest("'statements' must be a list")
            workload = Workload(name=workload_name)
            for entry in entries:
                sql, weight, label = _statement(entry)
                workload.add(sql, weight=weight, name=label)
        elif "sql" in body:
            if not isinstance(body["sql"], str):
                raise BadRequest("'sql' must be a string")
            workload = Workload.loads(body["sql"], name=workload_name)
        else:
            raise BadRequest(
                "workload upload needs 'statements' or 'sql'")
        if len(workload) == 0:
            raise BadRequest("workload has no statements")
        with self._lock:
            tenant.workloads[workload_name] = workload
            self.telemetry.emit("server-tenant", tenant=name,
                                kind=f"workload:{workload_name}")
        return {"tenant": name, "workload": workload_name,
                "statements": len(workload)}

    # -- job submission ----------------------------------------------------

    def _route_jobs(self, method: str, tail: list[str],
                    body: dict[str, Any] | None,
                    ) -> tuple[int, Any, dict[str, str]]:
        if method != "GET":
            raise BadRequest("jobs are submitted via "
                             "POST /v1/tenants/{t}/jobs")
        if not tail:
            with self._lock:
                listing = [self._jobs[job_id].describe()
                           for job_id in self._jobs]
            return 200, {"jobs": listing}, _JSON
        job = self._job(tail[0])
        if len(tail) == 1:
            with self._lock:
                return 200, job.describe(), _JSON
        sub = tail[1]
        if sub == "result":
            with self._lock:
                if job.status == FAILED:
                    return 400 if job.bad_input else 500, {
                        "job": job.describe(), "error": job.error}, _JSON
                if job.status != DONE or job.payload is None:
                    return 409, {"job": job.describe(),
                                 "error": "result not ready"}, _JSON
                return 200, {"job": job.describe(),
                             "degraded": job.degraded,
                             "recommendation": job.payload}, _JSON
        if sub == "plan":
            with self._lock:
                if job.status != DONE or job.payload is None:
                    return 409, {"job": job.describe(),
                                 "error": "result not ready"}, _JSON
                plan = job.payload.get("migration")
                if plan is None:
                    raise UnknownResource(
                        f"job {job.job_id} produced no migration plan")
                return 200, {"job_id": job.job_id,
                             "migration": plan}, _JSON
        if sub == "events":
            with self._lock:
                events = [e for e in self.telemetry.events
                          if e["data"].get("job_id") == job.job_id]
            return 200, {"job_id": job.job_id, "events": events}, _JSON
        raise UnknownResource(f"no such job resource: {sub}")

    def _job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownResource(f"no such job: {job_id}")
        return job

    def _submit(self, name: str, body: dict[str, Any],
                ) -> tuple[int, Any, dict[str, str]]:
        tenant = self._tenant(name)
        workload_name = _require(body, "workload")
        with self._lock:
            if not tenant.ready():
                raise BadRequest(
                    f"tenant {name!r} has no database/disks uploaded")
            workload = tenant.workloads.get(workload_name)
            if workload is None:
                raise UnknownResource(
                    f"tenant {name!r} has no workload {workload_name!r}")
            # One read of the tenant: the job computes from exactly the
            # inputs its fingerprint is made of, whatever is uploaded
            # while it waits.
            inputs = JobInputs(tenant.db, tenant.farm, tenant.constraints,
                               tenant.current_layout, workload)
            db_payload, farm_payload = tenant.db_payload, tenant.farm_payload
            constraints_payload = tenant.constraints_payload
            layout_payload = tenant.layout_payload
        options = self._job_options(body)
        catalog_fp = catalog_fingerprint(
            db_payload, farm_payload, workload.statements,
            constraints_payload)
        fingerprint = job_fingerprint(catalog_fp, options, layout_payload)
        job = Job(job_id=new_run_id(), tenant=name,
                  workload=workload_name, method=options.method,
                  fingerprint=fingerprint, options=options, inputs=inputs)
        with self._lock:
            job.submitted_at = time.monotonic()
            payload = self._cache.get(fingerprint)
            flight = self._flights.get(fingerprint)
            if payload is None and flight is None:
                try:
                    self.queue.submit(job)
                except QueueFull as exc:
                    self.telemetry.inc("server.jobs_rejected")
                    self.telemetry.emit("server-job-rejected",
                                        tenant=name,
                                        depth=self.queue.depth(),
                                        retry_after_s=exc.retry_after_s)
                    raise
                flight = self._flights[fingerprint] = []
            self._jobs[job.job_id] = job
            self.telemetry.inc("server.jobs_submitted")
            if payload is not None:
                # O(1) fast path: complete synchronously, skip the queue.
                self._cache.move_to_end(fingerprint)
                job.started_at = job.submitted_at
                self._finish(job, "hit", payload, at_submit=True)
                return 200, job.describe(), _JSON
            # A new leader, or a follower of the identical job in flight.
            flight.append(job)
            depth = self.queue.depth()
            self.telemetry.set_gauge("server.queue_depth", depth)
            self.telemetry.emit("server-job-queued", job_id=job.job_id,
                                tenant=name, method=job.method,
                                fingerprint=fingerprint, depth=depth)
        return 202, job.describe(), _JSON

    def _job_options(self, body: dict[str, Any]) -> SearchOptions:
        """The job body's search options; any bad value raises here,
        at submit, so a malformed job is a 400 and is never queued."""
        method = body.get("method")
        if method is not None:
            method = str(method)
            if method not in METHODS:
                raise BadRequest(
                    f"unknown method {method!r}; expected one of "
                    f"{', '.join(METHODS)}")
            if method == "greedy":
                method = "ts-greedy"
        faults = body.get("faults")
        # The numeric options go to SearchOptions as sent: it rejects
        # a bool, a string, or a fraction where an integer belongs.
        given = {key: body.get(key)
                 for key in ("k", "jobs", "portfolio", "deadline",
                             "retries", "movement_budget")}
        given.update(method=method, faults=None if faults is None
                     else FaultPlan.from_spec(str(faults)))
        options = SearchOptions(**{key: value
                                   for key, value in given.items()
                                   if value is not None})
        if options.jobs < 1:
            raise BadRequest("jobs must be >= 1")
        if isinstance(options.portfolio, int) \
                and options.portfolio > MAX_JOB_TRAJECTORIES:
            raise BadRequest(f"portfolio must be at most "
                             f"{MAX_JOB_TRAJECTORIES} trajectories")
        if options.retries > MAX_JOB_RETRIES:
            raise BadRequest(f"retries must be at most {MAX_JOB_RETRIES}")
        if options.faults is not None \
                and options.faults.delay_trajectory is not None:
            # No deadline interrupts the sleep; operators who need a
            # delay set REPRO_FAULTS on the daemon.
            raise BadRequest("a job's faults may not delay a trajectory")
        return options

    # -- job execution (worker threads) ------------------------------------

    def _run_job(self, job: Job) -> None:
        with self._lock:
            job.started_at = time.monotonic()
            job.status = RUNNING
            self.telemetry.observe("server.job_wait_s", job.wait_s or 0.0)
            self.telemetry.set_gauge("server.queue_depth",
                                     self.queue.depth())
            self.telemetry.emit("server-job-started", job_id=job.job_id)
        payload = error = None
        try:
            payload = self._compute(job)
        except Exception as exc:  # noqa: BLE001 - job boundary
            error = exc
        with self._lock:
            self._settle(job, payload, error)

    def _compute(self, job: Job) -> dict[str, Any]:
        """Run the actual advisor search for a cache miss, on the
        inputs the job was submitted with."""
        inputs = job.inputs
        options = job.options
        if options.deadline is not None:
            # Start the clock now: the deadline covers the whole job,
            # workload analysis included, not just the search.
            options = replace(options,
                              deadline=Deadline.coerce(options.deadline))
        # No shared telemetry: the library's instruments are not
        # thread-safe across concurrent searches, and interleaved
        # search telemetry would be unattributable anyway.  The server
        # keeps its own `server.*` view of the work.
        advisor = LayoutAdvisor(inputs.db, inputs.farm,
                                constraints=inputs.constraints)
        recommendation = advisor.recommend(
            inputs.workload, current_layout=inputs.current_layout,
            options=options)
        return recommendation_to_dict(recommendation,
                                      run_id=self.telemetry.run_id)

    def _cancel_job(self, job: Job) -> None:
        with self._lock:
            self._settle(job, error="service shut down before the job "
                                    "started")

    def _settle(self, leader: Job, payload: dict[str, Any] | None = None,
                error: Exception | str | None = None) -> None:
        """Finish ``leader`` and its followers; keep a clean result.

        A degraded result reaches the followers but is not kept, and
        neither is an error: the next identical job computes afresh.
        Callers hold the lock.
        """
        jobs = self._flights.pop(leader.fingerprint)
        if error is None and not _degraded(payload):
            self._cache[leader.fingerprint] = payload
            while len(self._cache) > self._max_cache:
                self._cache.popitem(last=False)
        for job in jobs:
            self._finish(job, "miss" if job is leader else "hit",
                         payload, error)

    def _finish(self, job: Job, cache: str,
                payload: dict[str, Any] | None = None,
                error: Exception | str | None = None,
                at_submit: bool = False) -> None:
        """Close ``job``: its record, its ``server.*`` counters and its
        last event.  Callers hold the lock.

        ``cache`` is ``"miss"`` for the job that ran the search and
        ``"hit"`` for one answered by another's.  ``error`` is what
        failed the job: the exception its leader's search raised, or
        why it never ran.  A job answered ``at_submit`` closes with
        ``server-cache-hit`` rather than ``server-job-finished``.
        """
        job.finished_at = time.monotonic()
        if error is None:
            job.status, job.cache, job.payload = DONE, cache, payload
            job.degraded = _degraded(payload)
            self.telemetry.inc("server.jobs_completed")
            if cache == "hit":
                self.telemetry.inc("server.cache_hits")
            else:
                self.telemetry.inc("server.cache_misses")
            if job.degraded:
                self.telemetry.inc("server.jobs_degraded")
            self.telemetry.observe("server.job_latency_s", job.latency_s)
            self.telemetry.set_gauge("server.cache_entries",
                                     len(self._cache))
        else:
            job.status = FAILED
            job.error = error if isinstance(error, str) \
                else f"{type(error).__name__}: {error}"
            job.bad_input = isinstance(error, INPUT_ERRORS)
            self.telemetry.inc("server.jobs_failed")
        if at_submit:
            self.telemetry.emit("server-cache-hit", job_id=job.job_id,
                                fingerprint=job.fingerprint)
        else:
            self.telemetry.emit("server-job-finished", job_id=job.job_id,
                                status=job.status, degraded=job.degraded,
                                cache=cache)


def _degraded(payload: dict[str, Any]) -> bool:
    """Whether a recommendation payload is a degraded (partial) one."""
    return bool(payload.get("search", {}).get("degraded", False))


def _parse(kind: str, parser, payload: Any) -> Any:
    """Run a catalog deserializer, mapping shape errors to 400."""
    try:
        return parser(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadRequest(
            f"malformed {kind} payload: "
            f"{type(exc).__name__}: {exc}") from exc


def _statement(entry: Any) -> tuple[str, float, str | None]:
    """One ``statements`` entry as ``(sql, weight, name)``."""
    if isinstance(entry, str):
        return entry, 1.0, None
    if isinstance(entry, dict) and isinstance(entry.get("sql"), str):
        weight = _number(entry, "weight")
        name = entry.get("name")
        if name is None or isinstance(name, str):
            return (entry["sql"], 1.0 if weight is None else weight,
                    name)
    raise BadRequest(
        f"malformed statement {entry!r}: expected SQL text or an "
        f"object with string 'sql', optional numeric 'weight' and "
        f"string 'name'")


def _object(body: Any) -> dict[str, Any]:
    """The body as a JSON object; no body reads as ``{}``."""
    if body is None:
        return {}
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    return body


def _require(body: Any, key: str) -> str:
    """The string ``body[key]``; anything else is a 400."""
    value = _object(body).get(key)
    if value is None:
        raise BadRequest(f"request body needs {key!r}")
    if not isinstance(value, str):
        raise BadRequest(f"{key!r} must be a string")
    return value


def _number(body: dict[str, Any], key: str) -> float | None:
    value = body.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise BadRequest(f"{key!r} must be a number") from None

