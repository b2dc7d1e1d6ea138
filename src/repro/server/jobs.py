"""Bounded job queue with worker threads for the advisor service.

The service accepts recommendation jobs asynchronously: a submission
either lands in a bounded queue (HTTP 202) or is rejected immediately
(HTTP 429 + ``Retry-After``) — it never blocks the HTTP handler
behind a search.  A fixed pool of daemon worker threads drains the
queue; the actual work (advisor search, cache interaction, telemetry)
is injected as the ``runner`` callable so this module stays a pure
scheduling primitive, testable without a server around it.

Back-pressure contract:

* ``submit`` is non-blocking.  When the queue holds ``max_queue``
  jobs, it raises :class:`repro.errors.QueueFull` carrying a
  ``retry_after_s`` hint sized from the queue's recent service rate —
  deterministic and immediate, never a client-side timeout.
* ``close(drain=True)`` stops intake, lets workers finish every job
  already admitted, then joins the threads — an admitted job is never
  dropped by shutdown.  ``drain=False`` abandons queued (not yet
  started) jobs, marking them via the runner's ``cancelled`` hook.

Job state lives in :class:`Job`; transitions are performed by the
runner under the service's lock, not here.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import QueueFull

#: Job lifecycle states.  A job is *terminal* in DONE or FAILED.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class JobInputs:
    """The parsed inputs a job computes from, read from its tenant at
    submit together with the payloads its fingerprint is made of."""

    db: Any
    farm: Any
    constraints: Any
    current_layout: Any
    workload: Any


@dataclass
class Job:
    """One recommendation job's full record.

    Timestamps are :func:`time.monotonic` readings (durations only —
    never serialized as wall-clock dates).  ``payload`` holds the
    JSON-ready recommendation once DONE, so repeat fetches never
    re-serialize; ``bad_input`` marks a FAILED job whose own inputs
    were at fault.
    """

    job_id: str
    tenant: str
    workload: str
    method: str
    fingerprint: str
    #: The job's :class:`~repro.core.advisor.SearchOptions`.
    options: Any = None
    #: The job's :class:`JobInputs`.
    inputs: JobInputs | None = None
    status: str = QUEUED
    cache: str | None = None
    degraded: bool = False
    error: str | None = None
    bad_input: bool = False
    payload: dict[str, Any] | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def wait_s(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_s(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def describe(self) -> dict[str, Any]:
        """JSON-ready status record (no result payload)."""
        record: dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "method": self.method,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "degraded": self.degraded,
        }
        if self.cache is not None:
            record["cache"] = self.cache
        if self.error is not None:
            record["error"] = self.error
        if self.wait_s is not None:
            record["wait_s"] = round(self.wait_s, 6)
        if self.latency_s is not None:
            record["latency_s"] = round(self.latency_s, 6)
        return record


class JobQueue:
    """Fixed worker pool over a bounded FIFO queue.

    Args:
        runner: Called with each admitted :class:`Job` on a worker
            thread; must not raise (it owns all error handling).
        workers: Worker thread count.
        max_queue: Maximum jobs *waiting* (running jobs don't count).
        cancelled: Called with each job abandoned by a non-draining
            close, so the owner can mark it failed rather than lost.
    """

    def __init__(self, runner: Callable[[Job], None],
                 workers: int = 2, max_queue: int = 16,
                 cancelled: Callable[[Job], None] | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.workers = workers
        self.max_queue = max_queue
        self._runner = runner
        self._cancelled = cancelled
        self._queue: queue.Queue[Job | None] = queue.Queue(
            maxsize=max_queue)
        self._closing = threading.Event()
        self._threads = [
            threading.Thread(target=self._work, daemon=True,
                             name=f"repro-server-worker-{i}")
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    def depth(self) -> int:
        """Jobs admitted but not yet picked up (approximate under
        concurrency, exact when quiescent)."""
        return self._queue.qsize()

    def submit(self, job: Job) -> None:
        """Admit ``job`` or raise :class:`QueueFull` immediately."""
        if self._closing.is_set():
            raise QueueFull("service is shutting down", retry_after_s=5)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            raise QueueFull(
                f"job queue is full ({self.max_queue} waiting)",
                retry_after_s=self._retry_hint()) from None

    def _retry_hint(self) -> int:
        # One queue-drain's worth of back-off, assuming each worker
        # retires roughly a job per second; clamp to a sane range so
        # clients neither hammer nor stall.
        return max(1, min(30, self.max_queue // self.workers))

    def _work(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:
                    return
                self._runner(job)
            finally:
                self._queue.task_done()

    def close(self, drain: bool = True) -> None:
        """Stop intake, optionally finish queued work, join workers.

        Idempotent.  With ``drain=False`` every job still waiting is
        pulled off the queue and handed to the ``cancelled`` hook
        before the workers are released.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._queue.task_done()
                if job is not None and self._cancelled is not None:
                    self._cancelled(job)
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
