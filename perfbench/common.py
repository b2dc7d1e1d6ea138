"""Shared pieces of the benchmark: paths, statistics, metric tables, the
host-speed reference and the set-up probe.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`)
from an untraced run and the same per-layer metrics (:data:`PER_LAYER`)
from a traced run; ``BENCHMARK.json`` lists exactly these names.

The closed loops' op times are *host-normalized*.  On a shared VM the
speed at which the same instructions retire drifts by up to half
within minutes (CPU time drifts with wall time, so it is not steal),
which moves a median op time more than any bound a regression gate can
use.  So the closed loops time :func:`reference_work`, a fixed CPU task
that runs no program code, after every op, and scale the op's time by
``REFERENCE_NOMINAL_S / reference time``: it reads as the time on a
host that runs the reference in its nominal time.  A program change
cannot move the reference, so it shows in full.  The raw wall times and
the measured host speed are reported beside them.

``setup_s`` is host-normalized the same way, with a reference of its own
kind: :func:`reference_spawn` starts a fresh interpreter that imports
numpy and part of the standard library, and brackets every set-up
sample (:func:`timed_setup`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE_DB = ROOT / "examples" / "tpch" / "db.json"
EXAMPLE_DISKS = ROOT / "examples" / "tpch" / "disks.json"
#: Scratch space of one run (journals, saved recommendations, logs).
WORK_ROOT = ROOT / ".perfbench-work"
#: Where traced runs write their spans and per-op counts.
TRACE_ROOT = ROOT / ".perfbench-traces"

#: What :func:`reference_work` takes on a host at nominal speed (about
#: its median on the 2-core VM the benchmark was tuned on).
REFERENCE_NOMINAL_S = 0.005
#: What :func:`reference_spawn` takes at nominal speed (about its median
#: on the same VM).
SPAWN_NOMINAL_S = 0.2
#: The reference spawn's program: process start and imports, as in a
#: set-up, but none of the program's code.
SPAWN_REFERENCE = ("import numpy, json, http.client, http.server, argparse, "
                   "dataclasses, logging, concurrent.futures, email.parser, "
                   "decimal, statistics, hashlib, tempfile")

#: (name, unit) of the end-to-end metrics, from the untraced run.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("improvement_pct", "%"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of the per-layer metrics, from the traced run.  Times
#: and counts are per measured op.
PER_LAYER = [
    ("sql.parse_s", "s/op"),
    ("sql.statements", "count/op"),
    ("optimizer.plan_s", "s/op"),
    ("optimizer.plans", "count/op"),
    ("workload.analyze_self_s", "s/op"),
    ("workload.subplans", "count/op"),
    ("workload.graph_s", "s/op"),
    ("workload.drift_s", "s/op"),
    ("partitioning.kl_s", "s/op"),
    ("greedy.fresh_self_s", "s/op"),
    ("greedy.seeded_self_s", "s/op"),
    ("greedy.iterations", "count/op"),
    ("greedy.evaluations", "count/op"),
    ("layout.stripe_fractions_s", "s/op"),
    ("layout.stripe_fractions_calls", "count/op"),
    ("costmodel.build_s", "s/op"),
    ("costmodel.kernel_s", "s/op"),
    ("costmodel.kernel_calls", "count/op"),
    ("costmodel.kernel_rows", "count/op"),
    ("costmodel.pruned_share", "ratio"),
    ("costmodel.commit_s", "s/op"),
    ("costmodel.commits", "count/op"),
    ("costmodel.group_eval_s", "s/op"),
    ("costmodel.scalar_s", "s/op"),
    ("incremental.search_s", "s/op"),
    ("incremental.projected_moves", "count/op"),
    ("incremental.full_relayout_share", "ratio"),
    ("portfolio.search_s", "s/op"),
    ("portfolio.trajectories", "count/op"),
    ("portfolio.failed_trajectories", "count/op"),
    ("storage.plan_s", "s/op"),
    ("storage.steps", "count/op"),
    ("storage.execute_s", "s/op"),
    ("storage.journal_records", "count/op"),
    ("storage.journal_bytes", "bytes/op"),
    ("server.http_s", "s/op"),
    ("server.queue_wait_s", "s/op"),
    ("server.job_s", "s/op"),
    ("server.fingerprint_s", "s/op"),
    ("server.cache_hit_share", "ratio"),
    ("server.rejected_share", "ratio"),
    ("service.send_lag_p50_s", "s"),
    ("service.send_lag_max_s", "s"),
    ("service.backlog_max", "count"),
    ("service.fell_behind", "flag"),
    ("analysis.preflight_s", "s/op"),
    ("analysis.audit_s", "s/op"),
    ("report.render_s", "s/op"),
    ("catalog.save_s", "s/op"),
    ("tracing.overhead_pct", "%"),
    ("host.speed", "ratio"),
    ("wall.latency_p50_s", "s"),
    ("wall.latency_p90_s", "s"),
]

class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs)."""


def require_checkout() -> None:
    """Fail fast unless the program's sources and inputs are present."""
    missing = [str(p.relative_to(ROOT))
               for p in (SRC / "repro" / "__init__.py", EXAMPLE_DB,
                         EXAMPLE_DISKS) if not p.is_file()]
    if missing:
        raise BenchError("not a checkout of the program; missing "
                         + ", ".join(missing))


def program_env() -> dict[str, str]:
    """Environment for child processes running the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_program() -> None:
    """Make ``import repro`` load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def workload_text(statements) -> str:
    """Workload file text (``-- name:`` annotated, ``;`` separated)."""
    return "\n".join(f"-- name: {name}\n{sql};\n"
                     for name, sql in statements)


def layout_hash(layout) -> str:
    """Stable digest of a layout's fraction matrix."""
    data = {name: list(layout.fractions_of(name))
            for name in layout.object_names}
    return hashlib.sha256(json.dumps(data, sort_keys=True)
                          .encode()).hexdigest()[:16]


def costs_agree(estimated: float, scalar: float) -> bool:
    """``estimated`` equals the scalar Fig. 7 cost within tolerance."""
    from repro.core.tolerance import EPS_COST, EPS_FRACTION
    return math.isclose(estimated, scalar, rel_tol=EPS_FRACTION,
                        abs_tol=EPS_COST)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


_REFERENCE_MATRIX = [float(i) for i in range(4096)]


def reference_work() -> float:
    """Seconds a fixed CPU task takes now (the host-speed reference).

    Dict, string and sort work in pure Python plus small numpy
    reductions, mixed so that across host states its time moves in
    proportion to a ``tpch`` op's (measured elasticity 1.05, correlation
    0.88).  The collector is paused so that garbage an op left behind
    is never collected on the reference's clock.
    """
    import numpy as np
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(4000):
            key = (i * 7919) % 1013
            table[key] = table.get(key, 0) + i
            total += len(str(key))
        sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        matrix = np.array(_REFERENCE_MATRIX).reshape(64, 64)
        for _ in range(190):
            total += float((matrix * 1.0001).max(axis=1).sum())
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


def reference_loop() -> None:
    """Time :func:`reference_work` once per line read from stdin and
    print the seconds (the service's speed probe process)."""
    for _ in sys.stdin:
        print(reference_work(), flush=True)


def host_speed(reference_s: float) -> float:
    """Host slowness relative to nominal (above 1 means slower)."""
    return reference_s / REFERENCE_NOMINAL_S


def reference_spawn() -> float:
    """Seconds a fresh interpreter takes to run :data:`SPAWN_REFERENCE`."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SPAWN_REFERENCE],
                          cwd=ROOT, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"reference spawn failed (exit {done.returncode})")
    return time.perf_counter() - start


def timed_setup(sample, samples: int) -> tuple[float, float]:
    """Host-normalized and raw median of ``samples`` set-up times.

    ``sample()`` performs one set-up and returns its seconds.  The host
    speed drifts within seconds, so each sample is divided by the mean
    of the reference spawns on either side of it and scaled to
    :data:`SPAWN_NOMINAL_S`; the median of these ratios is the set-up
    time (over ten such medians its quartile spread was about a third
    of the raw medians').
    """
    reference = reference_spawn()
    normalized, raw = [], []
    for _ in range(samples):
        elapsed = sample()
        following = reference_spawn()
        raw.append(elapsed)
        normalized.append(elapsed * SPAWN_NOMINAL_S
                          / ((reference + following) / 2))
        reference = following
    return statistics.median(normalized), statistics.median(raw)


def probe_once(kind: str, workdir: Path) -> float:
    """One set-up sample of a closed loop, in seconds.

    Starts ``setup_probe.py`` and times, from the spawn to its ``ready``
    line, what a user's process does before its first op: start Python,
    import the program and load the inputs.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(probe), kind, str(workdir)],
            stdout=subprocess.PIPE, env=program_env(),
            cwd=ROOT, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed (exit {code})")
    return elapsed


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Median traced op time over median untraced, on the same inputs."""
    n = min(len(untraced), len(traced))
    return 100.0 * (statistics.median(traced[:n])
                    / statistics.median(untraced[:n]) - 1.0)


def end_to_end(setup_s: float, latencies: list[float], busy_s: float,
               improvements: list[float], rss_mb: float) -> dict:
    """The end-to-end metric values of one untraced run."""
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(latencies) / busy_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "improvement_pct": (statistics.fmean(improvements)
                            if improvements else 0.0),
        "peak_rss_mb": rss_mb,
    }


def wall_metrics(latencies: list[float], speeds: list[float]) -> dict:
    """Raw wall-time quantiles and the host speed they were taken at."""
    return {"wall.latency_p50_s": statistics.median(latencies),
            "wall.latency_p90_s": percentile(latencies, 90),
            "host.speed": statistics.median(speeds)}


def layer_metrics(totals: dict, counts: dict, ops: int) -> dict:
    """Per-op layer metrics from a recorder's aggregates."""
    def incl(*names):
        return sum(totals.get(n, (0, 0, 0))[1] for n in names) / 1e9 / ops

    def self_s(name):
        return totals.get(name, (0, 0, 0))[2] / 1e9 / ops

    def calls(name):
        return totals.get(name, (0, 0, 0))[0] / ops

    def per_op(name):
        return counts.get(name, 0) / ops

    kernel_rows = counts.get("costmodel.kernel_rows", 0)
    searches = totals.get("incremental.search", (0, 0, 0))[0]
    return {
        "sql.parse_s": incl("sql.parse"),
        "sql.statements": calls("sql.parse"),
        "optimizer.plan_s": incl("optimizer.plan"),
        "optimizer.plans": calls("optimizer.plan"),
        "workload.analyze_self_s": self_s("workload.analyze"),
        "workload.subplans": per_op("workload.subplans"),
        "workload.graph_s": incl("workload.graph"),
        "workload.drift_s": incl("workload.drift"),
        "partitioning.kl_s": incl("partitioning.kl"),
        "greedy.fresh_self_s": self_s("greedy.fresh"),
        "greedy.seeded_self_s": self_s("greedy.seeded"),
        "greedy.iterations": per_op("greedy.iterations"),
        "greedy.evaluations": per_op("greedy.evaluations"),
        "layout.stripe_fractions_s": incl("layout.stripe_fractions"),
        "layout.stripe_fractions_calls": calls("layout.stripe_fractions"),
        "costmodel.build_s": incl("costmodel.build"),
        "costmodel.kernel_s": incl("costmodel.kernel"),
        "costmodel.kernel_calls": calls("costmodel.kernel"),
        "costmodel.kernel_rows": kernel_rows / ops,
        "costmodel.pruned_share": (counts.get("costmodel.pruned_rows", 0)
                                   / kernel_rows if kernel_rows else 0.0),
        "costmodel.commit_s": incl("costmodel.commit"),
        "costmodel.commits": calls("costmodel.commit"),
        "costmodel.group_eval_s": incl("costmodel.group_eval"),
        "costmodel.scalar_s": incl("costmodel.scalar"),
        "incremental.search_s": incl("incremental.search"),
        "incremental.projected_moves": per_op("incremental.projected_moves"),
        "incremental.full_relayout_share": (
            counts.get("incremental.full_relayouts", 0) / searches
            if searches else 0.0),
        "portfolio.search_s": incl("portfolio.search"),
        "portfolio.trajectories": per_op("portfolio.trajectories"),
        "portfolio.failed_trajectories":
            per_op("portfolio.failed_trajectories"),
        "storage.plan_s": incl("storage.plan"),
        "storage.steps": per_op("storage.steps"),
        "storage.execute_s": incl("storage.execute"),
        "storage.journal_records": per_op("storage.journal_records"),
        "storage.journal_bytes": per_op("storage.journal_bytes"),
        "analysis.preflight_s": incl("analysis.preflight"),
        "analysis.audit_s": incl("analysis.audit"),
        "report.render_s": incl("report.render"),
        "catalog.save_s": incl("catalog.save"),
    }


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, table) -> str:
    """The final JSON line: every metric of ``table`` with its unit."""
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in table}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def write_trace(workload: str, seed: int, payload: dict,
                path: Path | None = None) -> Path:
    """Write a traced run's spans and per-op records."""
    if path is None:
        TRACE_ROOT.mkdir(exist_ok=True)
        path = TRACE_ROOT / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(payload))
    return path
