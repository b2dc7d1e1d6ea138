"""SRV — advisor-service load bench: throughput, latency, cache.

Boots the real thing — :func:`repro.server.make_server` over an
:class:`~repro.server.AdvisorService` on an ephemeral port — then
drives it over actual HTTP (stdlib ``urllib``) from N concurrent
client threads.  Each client submits recommendation jobs for a small
pool of *distinct* workloads, round-robin, so the fingerprint cache
sees the service's intended traffic shape: a few genuinely new
questions and many repeats.  Measured per request: submit-to-result
latency (polling included).  Reported: sustained requests/second,
p50/p95/p99 latency, the cache hit ratio, and the error count.

Writes a machine-readable ``BENCH_server.json`` at the repo root,
tagged ``"bench": "server"`` so ``perf_gate.py`` dispatches to the
service comparator (throughput floor, p95 ceiling, hit-ratio floor —
wall-clock checks skippable with ``--skip-wall`` exactly like the
search gate).

Three sizes, selected with ``--mode`` (or ``REPRO_BENCH_MODE``):

* ``small`` (default) — 4 clients, 40 requests: a smoke run proving
  the full HTTP round trip and the cache accounting.
* ``ci`` — 8 clients, 240 requests over 4 distinct workloads.  The
  acceptance floor (≥ 50 req/s) holds because ~98% of requests are
  cache hits; the distinct submissions bound the worst-case latency.
* ``full`` — 16 clients, 600 requests over 6 distinct workloads.

Run directly::

    PYTHONPATH=src python benchmarks/bench_server.py \
        [--mode small|ci|full] [--out BENCH_server.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for bench helpers
from bench_env import resolve_mode  # noqa: E402
from conftest import write_result  # noqa: E402

from repro.benchdb import tpch  # noqa: E402
from repro.benchdb.synth import synthetic_workload  # noqa: E402
from repro.catalog.io import database_to_dict, farm_to_dict  # noqa: E402
from repro.experiments import common  # noqa: E402
from repro.obs.metrics import percentile  # noqa: E402
from repro.server import AdvisorService, make_server  # noqa: E402

BENCH_JSON = Path(__file__).parent.parent / "BENCH_server.json"

#: Per-mode calibration:
#: (clients, distinct workloads, total requests, service workers).
MODES = {
    "small": (4, 2, 40, 2),
    "ci": (8, 4, 240, 4),
    "full": (16, 6, 600, 4),
}

#: Statements per distinct workload (kept small: the bench measures
#: the service, not the search; distinct submissions still run the
#: real TS-GREEDY end to end).
WORKLOAD_QUERIES = 10

#: Seconds a client waits for one job before counting it as an error.
JOB_TIMEOUT_S = 120.0


class _Client:
    """Minimal JSON-over-HTTP client (stdlib only, thread-safe)."""

    def __init__(self, base: str):
        self.base = base

    def request(self, method: str, path: str, body=None):
        data = None if body is None \
            else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            try:
                return exc.code, json.loads(payload)
            except json.JSONDecodeError:
                return exc.code, {"error": payload.decode("utf-8",
                                                          "replace")}

    def text(self, path: str) -> tuple[int, str]:
        with urllib.request.urlopen(self.base + path,
                                    timeout=30) as resp:
            return resp.status, resp.read().decode("utf-8")


def _setup_tenant(client: _Client, distinct: int) -> list[str]:
    """Create the bench tenant and upload catalog + workloads."""
    db = tpch.tpch_database()
    farm = common.paper_farm(8)
    status, _ = client.request("POST", "/v1/tenants",
                               {"tenant": "bench"})
    assert status in (200, 201), f"tenant create failed: {status}"
    status, _ = client.request("PUT", "/v1/tenants/bench/database",
                               database_to_dict(db))
    assert status == 200, f"database upload failed: {status}"
    status, _ = client.request("PUT", "/v1/tenants/bench/disks",
                               farm_to_dict(farm))
    assert status == 200, f"disks upload failed: {status}"
    names = []
    for index in range(distinct):
        workload = synthetic_workload(WORKLOAD_QUERIES,
                                      seed=7_000 + index)
        body = {"statements": [
            {"sql": s.sql, "weight": s.weight, "name": s.name}
            for s in workload.statements]}
        name = f"w{index}"
        status, _ = client.request(
            "PUT", f"/v1/tenants/bench/workloads/{name}", body)
        assert status == 200, f"workload upload failed: {status}"
        names.append(name)
    return names


def _drive_one(client: _Client, workload: str) -> dict:
    """Submit one job and wait for its result; returns the outcome."""
    start = time.perf_counter()
    status, body = client.request(
        "POST", "/v1/tenants/bench/jobs",
        {"workload": workload, "method": "greedy"})
    outcome = {"latency_s": 0.0, "error": None, "cache": None,
               "degraded": False}
    while status == 429:
        # Back-pressure is the protocol working, not a failure — honor
        # the hint (scaled down: the bench's jobs are sub-second).
        time.sleep(min(0.05, float(body.get("retry_after_s", 1))))
        status, body = client.request(
            "POST", "/v1/tenants/bench/jobs",
            {"workload": workload, "method": "greedy"})
    if status not in (200, 202):
        outcome["error"] = f"submit: HTTP {status}: {body}"
        return outcome
    job_id = body["job_id"]
    deadline = start + JOB_TIMEOUT_S
    while body["status"] not in ("done", "failed"):
        if time.perf_counter() > deadline:
            outcome["error"] = f"job {job_id} timed out"
            return outcome
        time.sleep(0.005)
        status, body = client.request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            outcome["error"] = f"poll: HTTP {status}: {body}"
            return outcome
    if body["status"] == "failed":
        outcome["error"] = f"job failed: {body.get('error')}"
        return outcome
    status, result = client.request("GET",
                                    f"/v1/jobs/{job_id}/result")
    if status != 200:
        outcome["error"] = f"result: HTTP {status}: {result}"
        return outcome
    outcome["latency_s"] = time.perf_counter() - start
    outcome["cache"] = body.get("cache")
    outcome["degraded"] = bool(body.get("degraded", False))
    return outcome


def run_bench(mode: str | None = None) -> dict:
    """Run the load bench; return the BENCH_server payload."""
    mode = resolve_mode(mode)
    clients, distinct, total, workers = MODES[mode]
    service = AdvisorService(workers=workers,
                             max_queue=max(16, clients * 2),
                             max_cache=64)
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    client = _Client(f"http://{host}:{port}")
    try:
        workloads = _setup_tenant(client, distinct)
        # Warm phase: run each distinct workload once so the measured
        # phase exercises the steady state (the miss cost itself is
        # reported separately as warm_s).
        warm_start = time.perf_counter()
        warm = [_drive_one(client, name) for name in workloads]
        warm_s = time.perf_counter() - warm_start
        outcomes: list[dict] = []
        outcomes_lock = threading.Lock()
        requests_per_client = total // clients

        def drive(client_index: int) -> None:
            own = _Client(client.base)
            mine = []
            for i in range(requests_per_client):
                name = workloads[(client_index + i) % distinct]
                mine.append(_drive_one(own, name))
            with outcomes_lock:
                outcomes.extend(mine)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(clients)]
        measured_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        measured_s = time.perf_counter() - measured_start
        _, stats = client.request("GET", "/v1/stats")
        _, prom = client.text("/metrics")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close(drain=True)

    errors = [o["error"] for o in outcomes if o["error"]]
    latencies = sorted(o["latency_s"] for o in outcomes
                       if o["error"] is None)
    n_ok = len(latencies)
    hits = sum(1 for o in outcomes if o["cache"] == "hit")
    hit_ratio = hits / max(len(outcomes), 1)
    return {
        "bench": "server",
        "mode": mode,
        "clients": clients,
        "workers": workers,
        "distinct_workloads": distinct,
        "requests": len(outcomes),
        "completed": n_ok,
        "errors": len(errors),
        "error_samples": errors[:5],
        "degraded": sum(1 for o in outcomes if o["degraded"]),
        "warm_requests": len(warm),
        "warm_errors": sum(1 for o in warm if o["error"]),
        "warm_s": round(warm_s, 4),
        "measured_s": round(measured_s, 4),
        "throughput_rps": round(n_ok / max(measured_s, 1e-9), 2),
        "latency_s": {
            "mean": round(sum(latencies) / max(n_ok, 1), 6),
            "p50": round(percentile(latencies, 50), 6),
            "p95": round(percentile(latencies, 95), 6),
            "p99": round(percentile(latencies, 99), 6),
            "max": round(latencies[-1] if latencies else 0.0, 6),
        },
        "cache_hit_ratio": round(hit_ratio, 4),
        "server_stats": stats,
        "prometheus_lines": len(prom.splitlines()),
    }


def check_invariants(payload: dict) -> None:
    """The claims a healthy service must satisfy at any size.

    Always asserted: the warm-up and the measured phase completed
    without a single error, and the cache did its job (every repeat
    after warm-up is a hit, so the hit ratio must reach the traffic
    shape's floor).  Throughput/latency floors apply in ``ci``/``full``
    modes only, where the request volume amortizes fixed costs.
    """
    assert payload["warm_errors"] == 0, \
        f"warm-up failed: {payload['error_samples']}"
    assert payload["errors"] == 0, \
        f"{payload['errors']} request(s) failed: " \
        f"{payload['error_samples']}"
    assert payload["completed"] == payload["requests"]
    # After warm-up every submission repeats a cached fingerprint;
    # leave 5% slack for in-flight races right at the start.
    assert payload["cache_hit_ratio"] >= 0.95, \
        f"cache hit ratio {payload['cache_hit_ratio']:.2%} — the " \
        f"fingerprint cache is not absorbing repeats"
    stats = payload["server_stats"]
    assert stats["cache"]["entries"] >= payload["distinct_workloads"], \
        "fewer cache entries than distinct workloads"
    if payload["mode"] == "small":
        return
    assert payload["throughput_rps"] >= 50.0, \
        f"sustained only {payload['throughput_rps']} req/s " \
        f"(floor: 50)"
    assert payload["latency_s"]["p95"] <= 1.0, \
        f"p95 latency {payload['latency_s']['p95']}s exceeds 1s"


def _render(payload: dict) -> str:
    lat = payload["latency_s"]
    rows = [[
        payload["mode"], payload["clients"], payload["requests"],
        f"{payload['throughput_rps']:.1f}",
        f"{lat['p50'] * 1e3:.1f}ms", f"{lat['p95'] * 1e3:.1f}ms",
        f"{lat['p99'] * 1e3:.1f}ms",
        f"{payload['cache_hit_ratio']:.1%}", payload["errors"],
    ]]
    table = common.format_table(
        ["mode", "clients", "requests", "req/s", "p50", "p95",
         "p99", "hit-ratio", "errors"], rows)
    return (f"{table}\n"
            f"{payload['distinct_workloads']} distinct workloads "
            f"warmed in {payload['warm_s']:.2f}s; "
            f"{payload['completed']} measured requests over "
            f"{payload['measured_s']:.2f}s on {payload['workers']} "
            f"service workers")


def test_server_load():
    """Pytest entry: run the bench (mode from the environment)."""
    payload = run_bench()
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    write_result("server_load", _render(payload))
    check_invariants(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=sorted(MODES), default=None,
                        help="benchmark size (default: small, or "
                             "REPRO_BENCH_MODE / REPRO_BENCH_FULL)")
    parser.add_argument("--out", type=Path, default=BENCH_JSON,
                        help="where to write the JSON payload "
                             "(default: repo-root BENCH_server.json)")
    args = parser.parse_args()
    payload = run_bench(mode=args.mode)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(_render(payload))
    print(f"\nbench payload written to {args.out}")
    check_invariants(payload)
    print(f"invariants ({payload['mode']} mode): zero errors, "
          f"hit ratio {payload['cache_hit_ratio']:.1%} — OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
