"""The open-loop ``service`` workload.

The daemon (``repro-advisor serve``, default workers) runs in its own
process.  This process is the load generator: two sender threads, each
with one keep-alive connection, walk a fixed arrival schedule of
``RATE`` requests per second.  A request is timed from when it was due,
so a late send counts against its latency.

Every fifth request uploads a never-seen 10-statement TPC-H workload
and submits a ``method=portfolio, jobs=2`` job with a generous
deadline, then polls the job and fetches its result.  The other four
repeat a job from a pool of ``POOL_SIZE`` workloads primed before
timing, so they are cache hits that still pass through HTTP,
fingerprinting and JSON; they fetch the cached result too.  With a
fifth of the requests cold, the p90 falls at the median cold job.

A cold request's latency is host-normalized like a closed-loop op: it
is divided by the host speed, the mean of the two reference times on
either side of it.  The reference runs in a process of its own
(:class:`SpeedProbe`), ``PROBE_LEAD_S`` before each cold request is
due, when the previous cold job and hit are done and the daemon is
idle; in this process it would hold the interpreter lock while a
response waits.  Hits stay raw wall time: they wait mostly on
transport, which the host speed does not move.  Set-up (daemon boots)
is host-normalized like the closed loops' set-up.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    EXAMPLE_DB,
    EXAMPLE_DISKS,
    ROOT,
    BenchError,
    costs_agree,
    host_speed,
    layout_hash,
    pid_peak_rss_mb,
    program_env,
    timed_setup,
    workload_text,
)

#: Requests per second of the arrival schedule.
RATE = 4.0
#: Every COLD_EVERY-th request is a cold job (the rest are hits).
COLD_EVERY = 5
#: Repeat pool: workloads primed before timing (the cache holds 128).
POOL_SIZE = 6
POOL_SEED = 1729
#: Seeds the query numbers of the cold workloads (offset by the index).
COLD_SEED = 1931
STATEMENTS = 10
SENDERS = 2
POLL_S = 0.02
TENANT = "bench"
JOB = {"method": "portfolio", "jobs": 2, "deadline": 60}
#: A send later than this behind schedule flags the run.
LAG_FLAG_S = 0.05
#: The speed probe runs this long before each cold request is due.
PROBE_LEAD_S = 0.1


def _random_workload(rng: random.Random,
                     numbers: random.Random | None = None) -> str:
    """``STATEMENTS`` TPC-H queries: ``numbers`` (default ``rng``) picks
    which queries, ``rng`` draws their parameters."""
    from repro.benchdb.tpch import tpch_query
    numbers = numbers or rng
    statements = []
    for index in range(STATEMENTS):
        number = numbers.randint(1, 22)
        statements.append((f"Q{number}-{index}",
                           tpch_query(number, rng=rng)))
    return workload_text(statements)


@dataclass
class Request:
    """One scheduled request."""

    index: int
    offset_s: float
    kind: str          # "hit" or "cold"
    workload: str
    sql: str | None = None   # uploaded first (cold requests only)


def make_inputs(seed: int, seconds: float) -> tuple[dict, list[Request]]:
    """The repeat pool and the arrival schedule.

    The pool is the same for every seed and hits walk it in turn, so
    four fifths of the answers are identical across seeds.  The n-th
    cold workload has the same queries under every seed and ``seed``
    draws their parameters: each is still never seen, but the cold jobs'
    cost, and so the p90, does not depend on which queries a seed drew.
    """
    pool_rng = random.Random(POOL_SEED)
    pool = {f"pool-{i}": _random_workload(pool_rng)
            for i in range(POOL_SIZE)}
    names = sorted(pool)
    rng = random.Random(seed)
    schedule = []
    for index in range(int(RATE * seconds)):
        offset = index / RATE
        if index % COLD_EVERY == COLD_EVERY - 1:
            sql = _random_workload(rng, random.Random(COLD_SEED + index))
            schedule.append(Request(index, offset, "cold",
                                    f"cold-{index}", sql))
        else:
            schedule.append(Request(index, offset, "hit",
                                    names[index % len(names)]))
    return pool, schedule


# -- the daemon ----------------------------------------------------------------


class Client:
    """A keep-alive JSON client on one connection."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=120)

    def call(self, method: str, path: str, body=None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, payload

    def close(self) -> None:
        self._conn.close()


class Daemon:
    """A ``repro-advisor serve`` process on an ephemeral port."""

    def __init__(self, workdir: Path, tag: str, spans_out: Path | None):
        if spans_out is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable,
                    str(Path(__file__).with_name("daemon.py")),
                    str(spans_out)]
        argv += ["serve", "--port", "0"]
        self._log = open(workdir / f"daemon-{tag}.log", "w")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=program_env(),
                                     cwd=ROOT, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "serving on http://" not in line:
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def boot(workdir: Path, tag: str, spans_out: Path | None = None) -> Daemon:
    """Start a daemon and upload the tenant's catalog (the set-up)."""
    daemon = Daemon(workdir, tag, spans_out)
    client = Client(daemon.port)
    try:
        steps = [("GET", "/v1/health", None),
                 ("POST", "/v1/tenants", {"tenant": TENANT}),
                 ("PUT", f"/v1/tenants/{TENANT}/database",
                  json.loads(EXAMPLE_DB.read_text())),
                 ("PUT", f"/v1/tenants/{TENANT}/disks",
                  json.loads(EXAMPLE_DISKS.read_text()))]
        for method, path, body in steps:
            status, payload = client.call(method, path, body)
            if status >= 300:
                raise BenchError(f"{method} {path}: {status} {payload}")
    except BaseException:
        daemon.stop()
        raise
    finally:
        client.close()
    return daemon


def timed_boots(workdir: Path,
                samples: int) -> tuple[float, float, Daemon]:
    """Host-normalized and raw median boot-to-ready time
    (:func:`common.timed_setup`); the last daemon is kept running."""
    daemons: list[Daemon] = []

    def sample() -> float:
        if daemons:
            daemons.pop().stop()
        start = time.perf_counter()
        daemons.append(boot(workdir, "setup"))
        return time.perf_counter() - start

    try:
        setup_s, raw_s = timed_setup(sample, samples)
    except BaseException:
        for daemon in daemons:
            daemon.stop()
        raise
    return setup_s, raw_s, daemons[0]


class SpeedProbe:
    """The host-speed reference (:func:`common.reference_work`), timed in
    a process of its own whenever :meth:`sample` is called."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "import common; common.reference_loop()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=Path(__file__).parent, text=True)
        self.samples: list[float] = []
        self.sample()               # pays the imports
        self.samples.clear()

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("speed probe exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def follow(self, origin: float, requests: list[Request]) -> None:
        """Sample ``PROBE_LEAD_S`` before each cold request is due and
        once after the last one, so every cold request has a sample on
        either side."""
        offsets = [r.offset_s for r in requests if r.kind == "cold"]
        offsets.append((offsets[-1] if offsets else 0.0) + COLD_EVERY / RATE)
        for offset in offsets:
            pause = origin + offset - PROBE_LEAD_S - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            self.sample()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


# -- requests ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one request saw."""

    request: Request
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    job: dict = field(default_factory=dict)
    payload: dict | None = None
    rejected: bool = False
    error: str | None = None


def _submit_and_fetch(client: Client, workload: str,
                      outcome: Outcome) -> None:
    status, job = client.call("POST", f"/v1/tenants/{TENANT}/jobs",
                              dict(JOB, workload=workload))
    if status == 429:
        outcome.rejected = True
        raise BenchError("submission rejected (429)")
    if status not in (200, 202):
        raise BenchError(f"submit: {status} {job}")
    while job.get("status") not in ("done", "failed"):
        time.sleep(POLL_S)
        status, job = client.call("GET", f"/v1/jobs/{job['job_id']}")
        if status != 200:
            raise BenchError(f"poll: {status} {job}")
    outcome.job = job
    status, result = client.call("GET", f"/v1/jobs/{job['job_id']}/result")
    if status != 200:
        raise BenchError(f"result: {status} {result}")
    outcome.payload = result["recommendation"]
    if result.get("degraded"):
        raise BenchError("degraded result")


def perform(client: Client, request: Request, outcome: Outcome) -> None:
    """Send one request (upload first when cold); never raises."""
    try:
        if request.sql is not None:
            status, payload = client.call(
                "PUT", f"/v1/tenants/{TENANT}/workloads/{request.workload}",
                {"sql": request.sql})
            if status != 200:
                raise BenchError(f"upload: {status} {payload}")
        _submit_and_fetch(client, request.workload, outcome)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted
        outcome.error = f"{request.kind} {request.index}: " \
                        f"{type(exc).__name__}: {exc}"


def prime(port: int, pool: dict[str, str]) -> None:
    """Upload the pool and answer each of its jobs once, two at a time."""
    requests = [Request(-1, 0.0, "cold", name, sql)
                for name, sql in sorted(pool.items())]
    outcomes = run_schedule(port, requests, paced=False)
    for outcome in outcomes:
        if outcome.error:
            raise BenchError(f"priming failed: {outcome.error}")


def run_schedule(port: int, requests: list[Request], paced: bool = True,
                 probe: SpeedProbe | None = None) -> list[Outcome]:
    """Send ``requests`` from ``SENDERS`` threads, each at its due time
    (or as fast as the senders free up when not ``paced``); ``probe``
    follows the schedule from a thread of its own."""
    outcomes = [Outcome(r) for r in requests]
    lock = threading.Lock()
    cursor = iter(outcomes)
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    outcome = next(cursor, None)
                if outcome is None:
                    return
                outcome.due = origin + (outcome.request.offset_s
                                        if paced else 0.0)
                pause = outcome.due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                outcome.sent = time.perf_counter()
                perform(client, outcome.request, outcome)
                outcome.done = time.perf_counter()
        finally:
            client.close()

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    if probe is not None:
        threads.append(threading.Thread(target=probe.follow,
                                        args=(origin, requests)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


# -- a measured phase ----------------------------------------------------------


@dataclass
class Phase:
    """One measured schedule: what each request saw, the latencies with
    cold ones host-normalized, and the median host speed."""

    outcomes: list[Outcome]
    latencies: list[float]
    daemon_rss_mb: float
    speed: float
    spans: dict | None = None


def run_phase(workdir: Path, tag: str, pool: dict[str, str],
              schedule: list[Request], daemon: Daemon | None = None,
              traced: bool = False) -> Phase:
    """Boot (unless given a daemon), prime, warm up, run the schedule."""
    spans_out = workdir / f"spans-{tag}.json" if traced else None
    if daemon is None:
        daemon = boot(workdir, tag, spans_out)
    try:
        prime(daemon.port, pool)
        warm = [Request(-1, 0.0, "hit", sorted(pool)[0]),
                Request(-1, 0.0, "cold", f"warm-{tag}",
                        _random_workload(random.Random(tag)))]
        for outcome in run_schedule(daemon.port, warm, paced=False):
            if outcome.error:
                raise BenchError(f"warm-up failed: {outcome.error}")
        if traced:
            daemon.proc.send_signal(signal.SIGUSR1)
            time.sleep(0.2)
        probe = SpeedProbe()
        try:
            outcomes = run_schedule(daemon.port, schedule, probe=probe)
        finally:
            probe.close()
        rss = pid_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    spans = json.loads(spans_out.read_text()) if traced else None
    return Phase(outcomes, normalized(outcomes, probe.samples), rss,
                 host_speed(statistics.median(probe.samples)), spans)


def check(outcomes: list[Outcome], pool: dict[str, str]) -> list[dict]:
    """Score every returned recommendation with the scalar Fig. 7 model;
    returns one record per request (errors filled in on failure)."""
    from repro.catalog.io import (
        load_database,
        load_farm,
        recommendation_from_dict,
    )
    from repro.core.advisor import LayoutAdvisor
    from repro.core.costmodel import CostModel
    from repro.workload.workload import Workload

    db, farm = load_database(EXAMPLE_DB), load_farm(EXAMPLE_DISKS)
    model = CostModel(farm)
    analyzed: dict[str, object] = {}
    records = []
    for outcome in outcomes:
        request = outcome.request
        record = {"op": request.index, "kind": request.kind,
                  "counts": {}, "layout": ""}
        records.append(record)
        if outcome.error is not None:
            continue
        try:
            sql = request.sql or pool[request.workload]
            if request.workload not in analyzed:
                analyzed[request.workload] = LayoutAdvisor(db, farm).analyze(
                    Workload.loads(sql, name=request.workload))
            rec = recommendation_from_dict(outcome.payload, farm)
            scalar = model.workload_cost(analyzed[request.workload],
                                         rec.layout)
            if not costs_agree(rec.estimated_cost, scalar):
                raise BenchError(f"estimated cost {rec.estimated_cost} "
                                 f"!= scalar {scalar}")
            search = outcome.payload.get("search", {})
            hit = outcome.job.get("cache") == "hit"
            record["layout"] = layout_hash(rec.layout)
            record["improvement_pct"] = rec.improvement_pct
            record["counts"] = {
                "server.cache_hit": int(hit), "server.cache_miss": int(not hit),
                "greedy.iterations": search.get("iterations", 0),
                "greedy.evaluations": search.get("evaluations", 0)}
        except Exception as exc:  # noqa: BLE001 - counted as failed
            outcome.error = f"check {request.kind} {request.index}: " \
                            f"{type(exc).__name__}: {exc}"
    return records


def latency(outcome: Outcome) -> float:
    return outcome.done - outcome.due


def normalized(outcomes: list[Outcome], samples: list[float]) -> list[float]:
    """Latencies, each cold one divided by the host speed around it
    (the probe's samples just before it and before the next one)."""
    colds = sum(1 for o in outcomes if o.request.kind == "cold")
    if len(samples) != colds + 1:
        raise BenchError(f"speed probe took {len(samples)} samples "
                         f"for {colds} cold requests")
    latencies, cold = [], 0
    for outcome in outcomes:
        value = latency(outcome)
        if outcome.request.kind == "cold":
            value /= host_speed((samples[cold] + samples[cold + 1]) / 2)
            cold += 1
        latencies.append(value)
    return latencies


def client_metrics(outcomes: list[Outcome], spans: dict | None) -> dict:
    """Server-side split and generator health, from one phase."""
    ok = [o for o in outcomes if o.error is None]
    n = len(outcomes)
    http, wait, job = [], [], []
    for o in ok:
        latency_s = o.job.get("latency_s", 0.0)
        wait_s = o.job.get("wait_s", 0.0)
        http.append((o.done - o.sent) - latency_s)
        wait.append(wait_s)
        job.append(latency_s - wait_s)
    lags = [o.sent - o.due for o in outcomes]
    backlog = max(sum(1 for p in outcomes if p.due <= o.due < p.done)
                  for o in outcomes)
    fingerprint_ns = 0
    if spans is not None:
        fingerprint_ns = spans["totals"].get("server.fingerprint",
                                             (0, 0, 0))[1]
    return {
        "server.http_s": sum(http) / n,
        "server.queue_wait_s": sum(wait) / n,
        "server.job_s": sum(job) / n,
        "server.fingerprint_s": fingerprint_ns / 1e9 / n,
        "server.cache_hit_share": sum(1 for o in ok
                                      if o.job.get("cache") == "hit") / n,
        "server.rejected_share": sum(1 for o in outcomes
                                     if o.rejected) / n,
        "service.send_lag_p50_s": statistics.median(lags),
        "service.send_lag_max_s": max(lags),
        "service.backlog_max": backlog,
        "service.fell_behind": float(max(lags) > LAG_FLAG_S),
    }


def span(outcomes: list[Outcome]) -> float:
    """The measured span: first due time to last completion."""
    return max(o.done for o in outcomes) - min(o.due for o in outcomes)

