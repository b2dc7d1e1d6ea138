"""DBA-facing recommendation reports.

The paper's tool hands the DBA a recommendation plus an estimated
improvement percentage.  This module renders that into (a) a readable
report and (b) an implementation script in SQL-Server-style DDL —
filegroups per distinct disk set, files per disk, and the object
assignments — which is how a layout is actually realized (Section 2.1).
"""

from __future__ import annotations

from repro.core.advisor import Recommendation
from repro.core.layout import Layout
from repro.obs.metrics import percentile
from repro.storage.disk import BLOCK_BYTES


def render_report(recommendation: Recommendation,
                  top_statements: int = 10) -> str:
    """A human-readable summary of a recommendation.

    Args:
        recommendation: The advisor's output.
        top_statements: How many statements to list in the per-statement
            breakdown (ordered by absolute improvement).
    """
    rec = recommendation
    lines = [
        "=== database layout recommendation ===",
        f"estimated workload I/O time: {rec.estimated_cost:.1f}s",
        f"current layout I/O time:     {rec.current_cost:.1f}s",
        f"estimated improvement:       {rec.improvement_pct:.0f}%",
        "",
        "--- placement ---",
        rec.layout.describe(),
    ]
    if rec.per_statement:
        ranked = sorted(rec.per_statement,
                        key=lambda row: -(row[1] - row[2]))
        lines.append("")
        lines.append("--- statements with the largest changes ---")
        for name, current, proposed in ranked[:top_statements]:
            delta = current - proposed
            sign = "saves" if delta >= 0 else "costs"
            lines.append(f"{name:12s} {current:8.2f}s -> "
                         f"{proposed:8.2f}s  ({sign} {abs(delta):.2f}s)")
    movement = rec.data_movement_blocks
    if movement is not None and movement > 0:
        moved_gb = movement * BLOCK_BYTES / 1024 ** 3
        lines.append("")
        lines.append(f"implementing this layout moves "
                     f"{moved_gb:.2f} GB ({movement:.0f} blocks)")
    if rec.migration is not None:
        lines.append("")
        lines.append(render_migration(rec.migration,
                                      farm=rec.layout.farm,
                                      movement_budget=rec.movement_budget))
    if rec.search is not None:
        lines.append("")
        lines.append(f"search: {rec.search.iterations} iterations, "
                     f"{rec.search.evaluations} layouts costed, "
                     f"{rec.search.elapsed_s:.2f}s")
        diagnostics = render_search_diagnostics(rec.search)
        if diagnostics:
            lines.append("")
            lines.append(diagnostics)
    if rec.diagnostics:
        lines.append("")
        lines.append("--- layout audit (static analysis) ---")
        for finding in sorted(rec.diagnostics,
                              key=lambda d: -d.severity.rank):
            lines.append(finding.render())
    return "\n".join(lines)


def render_migration(plan, farm=None,
                     movement_budget: float | None = None,
                     max_steps: int = 12) -> str:
    """The migration plan, rendered for the DBA.

    Lists the ordered per-object moves (head and tail kept, middle
    elided past ``max_steps``), the totals, and — when the run carried
    a movement budget — the moved fraction against it.

    Args:
        plan: A :class:`repro.storage.migration.MigrationPlan`.
        farm: The :class:`~repro.storage.disk.DiskFarm` the plan's disk
            indices refer to; names the disks when given.
        movement_budget: The Δ fraction the search ran under, if any.
        max_steps: Cap on steps listed individually.
    """
    def disk(j: int) -> str:
        return farm[j].name if farm is not None else f"disk{j}"

    lines = ["--- migration plan ---"]
    if not plan.steps:
        lines.append("no data movement required")
        return "\n".join(lines)
    steps = list(plan.steps)
    shown_from = shown_until = None
    if len(steps) > max_steps:
        shown_from, shown_until = max_steps - 2, len(steps) - 2
    for index, step in enumerate(steps):
        if shown_from is not None and shown_from <= index < shown_until:
            if index == shown_from:
                lines.append(f"  ... {shown_until - shown_from} "
                             f"steps elided ...")
            continue
        staged = "  (staged)" if step.staged else ""
        lines.append(f"  step {index + 1:3d}: {step.obj:20s} "
                     f"{disk(step.src)} -> {disk(step.dst)}  "
                     f"{step.blocks:10.0f} blocks  "
                     f"{step.est_seconds:7.1f}s{staged}")
    moved_gb = plan.moved_blocks * BLOCK_BYTES / 1024 ** 3
    totals = (f"total: {len(plan.steps)} steps, "
              f"{plan.moved_blocks:.0f} blocks ({moved_gb:.2f} GB) "
              f"moved, est. {plan.est_seconds:.1f}s transfer time")
    if plan.staged_blocks > 0:
        totals += (f"; {plan.staged_blocks:.0f} blocks staged "
                   f"through a temporary disk (moved twice)")
    lines.append(totals)
    if movement_budget is not None:
        lines.append(f"moved fraction: {plan.moved_fraction:.1%} of "
                     f"the database (budget {movement_budget:.0%})")
    return "\n".join(lines)


def render_migration_execution(result) -> str:
    """An execution outcome, rendered for the DBA.

    Args:
        result: A :class:`repro.storage.executor.ExecutionResult`
            (duck-typed; any object with the same fields renders).
    """
    lines = ["--- migration execution ---"]
    lines.append(f"status: {result.status}")
    lines.append(f"  executed: {result.executed_steps} steps"
                 + (f"  (skipped {result.skipped_steps} already done)"
                    if result.skipped_steps else ""))
    if result.retried_steps:
        lines.append(f"  retried: {result.retried_steps} steps needed "
                     f"more than one attempt")
    lines.append(f"  transfer: est. {result.transfer_seconds:.1f}s")
    lines.append(f"  state:    {result.state_digest}")
    lines.append(f"  journal:  {result.journal_path}")
    return "\n".join(lines)


def render_online_migration(report) -> str:
    """Live-traffic impact of a migration, rendered for the DBA.

    Args:
        report: A
            :class:`repro.simulator.concurrent.OnlineMigrationReport`
            (duck-typed).
    """
    lines = ["--- online migration impact ---"]
    throttle = "unthrottled" if report.throttle_mb_s is None \
        else f"{report.throttle_mb_s:.0f} MB/s throttle"
    lines.append(f"foreground pass: {report.baseline_s:.2f}s before, "
                 f"{report.target_s:.2f}s after migration "
                 f"({throttle})")
    for window, factor in zip(report.windows, report.degradation):
        lines.append(f"  window {window.index + 1:3d}: "
                     f"{window.foreground_s:8.2f}s foreground "
                     f"({factor:5.2f}x baseline), "
                     f"{window.migration_blocks:10.0f} blocks moved")
    lines.append(f"mean degradation: {report.mean_degradation:.2f}x  "
                 f"peak: {report.peak_degradation:.2f}x  "
                 f"overhead: {report.overhead_s:.2f}s")
    benefit = report.time_to_benefit_s
    if benefit is None:
        lines.append("time to benefit: never (the target layout is "
                     "not faster on this workload)")
    else:
        lines.append(f"time to benefit: {benefit:.1f}s of "
                     f"post-migration work repays the overhead "
                     f"(each pass saves "
                     f"{report.per_pass_saving_s:.2f}s)")
    return "\n".join(lines)


def render_search_diagnostics(search, max_steps: int = 8) -> str:
    """The search's per-iteration telemetry, rendered for the DBA.

    Shows the KL partitioning convergence (cut weight per pass) and the
    greedy trajectory (candidates tried and best cost per accepted
    move).  Portfolio runs get a summary line (trajectories, workers,
    winner) and pruned-candidate counts their own line.  Returns the
    empty string when the search carried no telemetry (e.g. full
    striping or a plain exhaustive run).

    Args:
        search: A :class:`repro.core.greedy.SearchResult`.
        max_steps: Cap on greedy steps listed; the trajectory keeps its
            head and tail and elides the middle.
    """
    lines: list[str] = []
    kl_passes = getattr(search, "kl_passes", 0)
    cut_weights = list(getattr(search, "kl_cut_weights", ()) or ())
    steps = list(getattr(search, "steps", ()) or ())
    extras = dict(getattr(search, "extras", {}) or {})
    if "trajectories" in extras:
        trajectories = int(extras.pop("trajectories"))
        workers = int(extras.pop("workers", 1))
        best = int(extras.pop("best_trajectory", 0))
        extras.pop("best_trajectory_cost", None)
        # More than one worker means the process pool ran.
        where = f"on {workers} worker processes" if workers > 1 \
            else "in-process"
        lines.append(f"portfolio: {trajectories} trajectories {where}; "
                     f"winner: trajectory {best}")
        failures = list(getattr(search, "failures", ()) or ())
        if failures:
            causes = ", ".join(sorted({f.cause for f in failures})) \
                or "unknown"
            lines.append(f"degraded: {len(failures)}/{trajectories} "
                         f"trajectories failed ({causes}); result is "
                         f"the exact best over the rest")
            for failure in failures:
                lines.append(f"  {failure.describe()}")
    pruned = extras.pop("pruned_candidates", None)
    bound_evals = extras.pop("bound_evaluations", None)
    if pruned is not None:
        line = f"pruning: {int(pruned)} candidates skipped"
        if bound_evals is not None:
            line += f" via {int(bound_evals)} lower-bound evaluations"
        lines.append(line + " (result unchanged by construction)")
    evaluations = int(getattr(search, "evaluations", 0) or 0)
    elapsed_s = float(getattr(search, "elapsed_s", 0.0) or 0.0)
    if evaluations > 0 and elapsed_s > 0:
        lines.append(f"throughput: {evaluations / elapsed_s:,.0f} "
                     f"candidates/s ({evaluations} evaluated in "
                     f"{elapsed_s:.3f}s)")
    if kl_passes or cut_weights:
        trail = " -> ".join(f"{w:.0f}" for w in cut_weights)
        lines.append(f"partitioning: {kl_passes} KL pass(es), "
                     f"cut weight {trail}" if trail else
                     f"partitioning: {kl_passes} KL pass(es)")
    if steps:
        accepted = [s for s in steps if s.accepted]
        candidates = sum(s.candidates for s in steps)
        lines.append(f"greedy: {len(accepted)} accepted moves over "
                     f"{len(steps)} iterations "
                     f"({candidates} candidates tried)")
        per_iteration = [s.candidates for s in steps]
        lines.append(
            "  candidates/iteration: "
            f"p50={percentile(per_iteration, 50):g} "
            f"p95={percentile(per_iteration, 95):g} "
            f"p99={percentile(per_iteration, 99):g}")
        shown = accepted
        elided = 0
        if len(accepted) > max_steps:
            head = accepted[:max_steps - 2]
            tail = accepted[-2:]
            elided = len(accepted) - len(head) - len(tail)
            shown = head + tail
        for step in shown:
            if elided and step is shown[-2]:
                lines.append(f"  ... {elided} moves elided ...")
            changed = ", ".join(step.changed) if step.changed else "-"
            lines.append(f"  iter {step.iteration:3d}: "
                         f"best {step.best_cost:10.2f}s  "
                         f"({step.candidates} candidates; {changed})")
    if extras:
        rendered = ", ".join(f"{key}={value:g}"
                             for key, value in sorted(extras.items()))
        lines.append(f"search counters: {rendered}")
    if not lines:
        return ""
    return "\n".join(["--- search diagnostics ---", *lines])


def render_filegroup_script(layout: Layout,
                            database_name: str = "targetdb") -> str:
    """An implementation script for the layout.

    Emits one filegroup per distinct disk set, one file per member disk
    (sized to the objects' share on that disk), and the object-to-
    filegroup assignments — mirroring how a DBA realizes a layout with
    SQL Server filegroups or Oracle/DB2 tablespaces.
    """
    farm = layout.farm
    lines = [f"-- layout implementation script for {database_name}",
             f"-- {len(layout.object_names)} objects over "
             f"{len(farm)} disk drives", ""]
    for number, (disks, objects) in enumerate(
            sorted(layout.filegroups().items()), start=1):
        group = f"FG_{number}"
        lines.append(f"ALTER DATABASE {database_name} "
                     f"ADD FILEGROUP {group};")
        for disk in disks:
            blocks = sum(
                layout.size_of(obj) * layout.fraction(obj, disk)
                for obj in objects)
            size_mb = max(1, int(blocks * BLOCK_BYTES / 1024 / 1024))
            lines.append(
                f"ALTER DATABASE {database_name} ADD FILE "
                f"(NAME = {group}_{farm[disk].name}, "
                f"FILENAME = '{farm[disk].name}:\\{database_name}"
                f"\\{group}.ndf', SIZE = {size_mb}MB) "
                f"TO FILEGROUP {group};")
        for obj in sorted(objects):
            lines.append(f"-- move {obj} onto {group} "
                         f"(disks {', '.join(farm[d].name for d in disks)})")
            lines.append(f"ALTER TABLE {obj} MOVE TO {group};")
        lines.append("")
    return "\n".join(lines)
