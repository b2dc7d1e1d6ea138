"""Deterministic per-phase profiling for the bench and the perf gate.

Aggregates a run's ``phase-end`` events and metric counts into a fixed
set of algorithm phases — the paper's pipeline decomposition — so
`BENCH_search.json` can carry a versioned per-phase breakdown and the
CI perf gate can attribute a wall-time regression to the phase that
grew (see :func:`repro.perf_gate` — the violation message names the
slowest-growing phase).

The phase set is deliberately closed and stable: every breakdown
contains all five phases (zeroed when a phase did not run), so gate
comparisons never have to reconcile schemas.  Version 3 dropped the
count-only ``evaluate`` and ``bound-prune`` phases, which had no span
and always reported zero time; their counts stay in the
``costmodel.batch_rows`` and ``costmodel.bound_evaluations`` counters.
"""

from __future__ import annotations

from typing import Any

#: Schema version of the ``phases`` block in bench payloads.
PROFILE_VERSION = 3

#: The closed set of profiled phases, in pipeline order.
PHASES = ("expand", "kl", "greedy", "anneal", "migration-plan")

#: span name -> phase.  Spans not listed here (orchestration wrappers
#: like ``recommend`` or ``portfolio``) contribute no time themselves;
#: the mapping names only leaf-level phase spans, so nested phases are
#: counted once.
_SPAN_PHASE: dict[str, str] = {
    "analyze-workload": "expand",
    "expand-concurrency": "expand",
    "build-access-graph": "expand",
    "build-evaluator": "expand",
    "ts-greedy/step1": "kl",
    "ts-greedy/step2": "greedy",
    "annealing": "anneal",
    "plan-migration": "migration-plan",
}

#: phase -> counter whose value is the phase's work count.
_PHASE_COUNTER: dict[str, str] = {
    "expand": "analyze.statements",
    "kl": "partition.kl_passes",
    "greedy": "greedy.evaluations",
    "anneal": "annealing.proposals",
    "migration-plan": "incremental.migration_steps",
}


def phase_breakdown(telemetry) -> dict[str, Any]:
    """Aggregate a run's phases and counts into the five-phase schema.

    Args:
        telemetry: A :class:`repro.obs.Telemetry`.  Every ``phase-end``
            in its stream whose phase maps to a profiled phase
            contributes its wall and CPU time — merged portfolio
            workers' phases included; its counters supply each
            phase's work count.

    Returns:
        ``{"version": 3, "phases": {phase: {"wall_s", "cpu_s",
        "count"}}}`` with every phase of :data:`PHASES` present.
    """
    totals = {phase: {"wall_s": 0.0, "cpu_s": 0.0,
                      "count": float(telemetry.value(
                          _PHASE_COUNTER[phase]))}
              for phase in PHASES}
    for event in telemetry.events:
        if event["type"] != "phase-end":
            continue
        phase = _SPAN_PHASE.get(event["data"]["phase"])
        if phase is not None:
            totals[phase]["wall_s"] += float(event["data"]["wall_s"])
            totals[phase]["cpu_s"] += float(event["data"]["cpu_s"])
    return {
        "version": PROFILE_VERSION,
        "phases": {phase: {"wall_s": round(entry["wall_s"], 9),
                           "cpu_s": round(entry["cpu_s"], 9),
                           "count": entry["count"]}
                   for phase, entry in totals.items()},
    }


def render_breakdown(breakdown: dict[str, Any]) -> str:
    """One-line-per-phase rendering for bench output."""
    lines = [f"{'phase':16s} {'count':>12s} {'wall':>10s} {'cpu':>10s}"]
    for phase in PHASES:
        entry = breakdown.get("phases", {}).get(phase)
        if entry is None:
            continue
        lines.append(f"{phase:16s} {entry['count']:12.0f} "
                     f"{entry['wall_s']:9.4f}s {entry['cpu_s']:9.4f}s")
    return "\n".join(lines)
