"""The flight recorder: an append-only, typed, structured event log.

The flight recorder answers "*what happened, in what order*": every
advisor run can emit a single ordered JSONL timeline of typed events,
written by :class:`repro.obs.Telemetry` — pipeline phases (each span
is a ``phase-start``/``phase-end`` pair, so the same stream also
answers "how long did each phase take"), greedy/KL/annealing
iterations, portfolio trajectory lifecycle, resilience incidents
(retries, timeouts, worker crashes, serial fallbacks, degraded
results), drift scores and migration steps — that survives the
process and can be shipped, diffed and rendered later
(``repro-advisor inspect events.jsonl``).

Event record (one JSON object per line)::

    {"seq": 17, "ts_s": 0.0813, "run_id": "a3f1c9d2e4b5",
     "source": "trajectory-2", "type": "greedy-iteration",
     "data": {"iteration": 3, "candidates": 41, ...}}

* ``seq`` is the parent-assigned append order — the total order of the
  timeline.  Worker events are relayed by the portfolio engine's one
  :meth:`~repro.obs.Telemetry.merge` and re-sequenced there in
  trajectory order, so a ``jobs=4`` run produces the same ordered
  timeline as ``jobs=1``.
* ``ts_s`` is a monotonic timestamp relative to the emitting
  handle's epoch (wall-clock free, machine-independent in meaning
  though not in value).
* ``run_id`` identifies the run; relayed worker events are re-stamped
  with the parent's run id.
* ``source`` is ``"parent"``, ``"trajectory-<i>"`` or ``"server"``.
* ``type`` must be declared in :data:`EVENT_TYPES` — an undeclared
  type raises ``ValueError`` at emit time, so the schema below is the
  schema, not a convention.
* A ``phase-end`` carries the span's attributes next to ``phase``,
  ``wall_s`` and ``cpu_s``.

Determinism: two identical seeded runs produce byte-identical event
files once the volatile fields (timestamps, run ids, measured
durations — see :data:`VOLATILE_FIELDS` / :data:`VOLATILE_DATA_KEYS`)
are stripped; :func:`canonical_lines` does exactly that and is what the
determinism tests compare.
"""

from __future__ import annotations

import json
import uuid
from pathlib import Path
from typing import Any, Sequence

from repro.errors import EventLogFormatError

#: Current schema version, stamped into ``run-start`` events.
EVENT_SCHEMA_VERSION = 1

#: Every event type the pipeline may emit, with a one-line description.
#: ``Telemetry.emit`` rejects anything not declared here.
EVENT_TYPES: dict[str, str] = {
    "run-start": "an advisor CLI/bench run began (command, inputs)",
    "run-end": "the run finished (status, wall_s)",
    "phase-start": "a traced pipeline phase opened (phase)",
    "phase-end": "a traced pipeline phase closed (phase, wall_s, cpu_s, "
                 "the span's attributes)",
    "workload-ingest": "a profiler trace was folded into a workload "
                       "(path, statements, groups, overlap_factor)",
    "greedy-iteration": "one TS-GREEDY step-2 iteration (iteration, "
                        "candidates, best_cost, accepted, changed)",
    "kl-pass": "one KL partitioning pass converged (pass_index, "
               "cut_weight)",
    "anneal-step": "sampled annealing progress (proposal, best_cost, "
                   "temperature)",
    "trajectory-start": "a portfolio trajectory was dispatched "
                        "(index, label)",
    "trajectory-end": "a portfolio trajectory completed (index, label, "
                      "cost)",
    "trajectory-failed": "a trajectory produced no result (index, "
                         "label, cause, attempts, message)",
    "retry": "a failed trajectory is being re-attempted in-process "
             "(index, label, attempt)",
    "timeout": "a trajectory exceeded its budget (index, label, "
               "budget_s)",
    "worker-crash": "a trajectory was lost to a dead worker process "
                    "(index, label, message)",
    "serial-fallback": "a lost trajectory is re-run in-process "
                       "(index, label, cause)",
    "degraded": "the run returned a partial result (failed, total, "
                "causes)",
    "drift-score": "a workload drift comparison finished (score, "
                   "node_drift, edge_drift, relayout_recommended)",
    "migration-plan": "a migration plan was produced (steps, "
                      "moved_blocks, staged_blocks, est_seconds)",
    "migration-step": "one planned move (step, obj, src, dst, blocks, "
                      "staged)",
    "migration-exec-start": "a journaled migration execution began "
                            "(mode, steps, journal)",
    "migration-intent": "a step's intent record was journaled (step, "
                        "phase, obj, src, dst, blocks, staged)",
    "migration-step-done": "a step's transfer completed and was "
                           "journaled (step, phase, attempts)",
    "migration-exec-end": "a journaled migration execution finished "
                          "(status, executed, skipped)",
    "migration-resume": "execution resumed from a journal (done, "
                        "pending)",
    "migration-rollback": "a capacity-safe reverse path was planned "
                          "(steps, from_step)",
    "migration-window": "one online-migration foreground window "
                        "(window, foreground_s, baseline_s, "
                        "migration_blocks)",
    "server-start": "the advisor service began accepting requests "
                    "(workers, max_queue)",
    "server-stop": "the advisor service drained and shut down "
                   "(jobs_completed)",
    "server-tenant": "a tenant catalog or workload was uploaded "
                     "(tenant, kind)",
    "server-job-queued": "a job was admitted to the queue (job_id, "
                         "tenant, method, fingerprint, depth)",
    "server-job-started": "a worker picked a job up (job_id)",
    "server-job-finished": "a job completed (job_id, status, degraded, "
                           "cache)",
    "server-job-rejected": "a submission was bounced with 429 (tenant, "
                           "depth, retry_after_s)",
    "server-cache-hit": "a submission was served from the fingerprint "
                        "cache (job_id, fingerprint)",
    "note": "free-form annotation (message)",
}

#: Top-level record fields stripped by :func:`canonical_lines` —
#: timestamps and run identity vary between otherwise-identical runs.
VOLATILE_FIELDS = ("ts_s", "run_id")

#: ``data`` keys stripped by :func:`canonical_lines` — measured
#: durations are real time, never deterministic.
VOLATILE_DATA_KEYS = ("wall_s", "cpu_s", "budget_s", "elapsed_s")

#: Fields every well-formed event record must carry.
REQUIRED_FIELDS = ("seq", "ts_s", "run_id", "source", "type", "data")


def new_run_id() -> str:
    """A short unique run identifier (12 hex chars)."""
    return uuid.uuid4().hex[:12]


# -- reading and validating event files ---------------------------------------


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL event file back into event records.

    Raises:
        EventLogFormatError: When the file cannot be read, a line is
            not valid JSON, or a record is not a JSON object; the
            message names the file and the offending line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise EventLogFormatError(
            f"cannot read event log: {error}",
            path=str(path)) from None
    events: list[dict[str, Any]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise EventLogFormatError(
                f"event log line is not valid JSON: {error}",
                path=str(path), line=number) from None
        if not isinstance(record, dict):
            raise EventLogFormatError(
                f"event record must be a JSON object, got "
                f"{type(record).__name__}", path=str(path), line=number)
        events.append(record)
    return events


def validate_events(events: Sequence[dict[str, Any]]) -> list[str]:
    """Structural problems of an event timeline (empty list = valid).

    Checks: required fields present, event types declared, ``seq``
    strictly increasing from 0 (the single-total-order property the
    ``inspect`` renderer relies on), one ``run_id`` per file.
    """
    problems: list[str] = []
    run_ids = set()
    for position, event in enumerate(events):
        missing = [f for f in REQUIRED_FIELDS if f not in event]
        if missing:
            problems.append(f"event {position}: missing fields "
                            f"{missing}")
            continue
        if event["type"] not in EVENT_TYPES:
            problems.append(f"event {position}: undeclared type "
                            f"{event['type']!r}")
        if event["seq"] != position:
            problems.append(f"event {position}: seq {event['seq']} "
                            f"breaks the total order")
        if not isinstance(event["data"], dict):
            problems.append(f"event {position}: data is not an object")
        run_ids.add(event["run_id"])
    if len(run_ids) > 1:
        problems.append(f"multiple run_ids in one timeline: "
                        f"{sorted(run_ids)}")
    return problems


def canonical_lines(events: Sequence[dict[str, Any]]) -> list[str]:
    """Deterministic rendering of a timeline, volatile fields stripped.

    Two identical seeded runs must produce byte-identical canonical
    lines; this is the form the determinism tests compare.  Strips
    :data:`VOLATILE_FIELDS` from each record and
    :data:`VOLATILE_DATA_KEYS` from each record's ``data``.
    """
    lines = []
    for event in events:
        record = {k: v for k, v in event.items()
                  if k not in VOLATILE_FIELDS}
        record["data"] = {k: v for k, v in event.get("data", {}).items()
                          if k not in VOLATILE_DATA_KEYS}
        lines.append(json.dumps(record, sort_keys=True))
    return lines


# -- the `inspect` renderer ----------------------------------------------------

#: Event types shown line-by-line in the timeline (high-level
#: lifecycle; per-iteration events are summarized, not listed).
_TIMELINE_TYPES = frozenset({
    "run-start", "run-end", "workload-ingest",
    "trajectory-start", "trajectory-end", "trajectory-failed",
    "retry", "timeout", "worker-crash", "serial-fallback", "degraded",
    "drift-score", "migration-plan",
    "migration-exec-start", "migration-exec-end",
    "migration-resume", "migration-rollback",
    "server-start", "server-stop", "server-tenant",
    "server-job-queued", "server-job-started", "server-job-finished",
    "server-job-rejected", "server-cache-hit",
})


def _describe(event: dict[str, Any]) -> str:
    data = event.get("data", {})
    pairs = ", ".join(f"{k}={v}" for k, v in data.items()
                      if not isinstance(v, (list, dict)))
    return pairs


def render_timeline(events: Sequence[dict[str, Any]],
                    top: int = 10) -> str:
    """Human-readable timeline + hotspot table for ``inspect``.

    Shows the run header, the lifecycle timeline (phases collapsed to
    their closing event, per-iteration events summarized as counts),
    and a top-``top`` hotspot table aggregating ``phase-end`` wall/CPU
    time by phase name across every source.
    """
    if not events:
        return "(empty event log)"
    run_id = events[0].get("run_id", "?")
    sources = sorted({e.get("source", "?") for e in events})
    counts: dict[str, int] = {}
    for event in events:
        counts[event.get("type", "?")] = \
            counts.get(event.get("type", "?"), 0) + 1
    lines = [
        f"=== flight recorder: run {run_id} ===",
        f"{len(events)} events from {len(sources)} source(s): "
        f"{', '.join(sources)}",
        "",
        "--- timeline ---",
    ]
    for event in events:
        type_ = event.get("type", "?")
        if type_ in _TIMELINE_TYPES:
            lines.append(f"  [{event.get('seq', '?'):>4}] "
                         f"{event.get('source', '?'):14s} "
                         f"{type_:18s} {_describe(event)}")
        elif type_ == "phase-end":
            data = event.get("data", {})
            lines.append(f"  [{event.get('seq', '?'):>4}] "
                         f"{event.get('source', '?'):14s} "
                         f"{'phase':18s} "
                         f"{data.get('phase', '?')} "
                         f"({data.get('wall_s', 0.0):.4f}s)")
    iteration_counts = {t: n for t, n in sorted(counts.items())
                        if t in ("greedy-iteration", "kl-pass",
                                 "anneal-step", "migration-step",
                                 "migration-intent",
                                 "migration-step-done",
                                 "migration-window")}
    if iteration_counts:
        summary = ", ".join(f"{n} {t}" for t, n
                            in iteration_counts.items())
        lines.append(f"  (iteration events summarized: {summary})")
    hotspots = _hotspots(events)
    if hotspots:
        lines.append("")
        lines.append(f"--- top {min(top, len(hotspots))} hotspots "
                     f"(by wall time) ---")
        lines.append(f"  {'phase':28s} {'count':>5s} {'wall':>9s} "
                     f"{'cpu':>9s}")
        for phase, (count, wall, cpu) in hotspots[:top]:
            lines.append(f"  {phase:28s} {count:5d} {wall:8.4f}s "
                         f"{cpu:8.4f}s")
    degraded = [e for e in events if e.get("type") == "degraded"]
    if degraded:
        data = degraded[-1].get("data", {})
        lines.append("")
        lines.append(f"degraded run: {data.get('failed', '?')}/"
                     f"{data.get('total', '?')} trajectories failed "
                     f"({data.get('causes', '?')})")
    return "\n".join(lines)


def _hotspots(events: Sequence[dict[str, Any]],
              ) -> list[tuple[str, tuple[int, float, float]]]:
    """(phase, (count, wall_s, cpu_s)) aggregated over phase-end
    events, sorted by wall time descending (name-tiebroken)."""
    totals: dict[str, list[float]] = {}
    for event in events:
        if event.get("type") != "phase-end":
            continue
        data = event.get("data", {})
        phase = str(data.get("phase", "?"))
        entry = totals.setdefault(phase, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += float(data.get("wall_s", 0.0))
        entry[2] += float(data.get("cpu_s", 0.0))
    return sorted(
        ((phase, (int(c), w, cpu))
         for phase, (c, w, cpu) in totals.items()),
        key=lambda item: (-item[1][1], item[0]))
