"""The diagnostics engine: run analyzers, collect a report, gate runs.

Three entry points, one per pipeline position:

* :func:`analyze_inputs` — the ``repro-advisor lint`` pass: check
  whatever inputs were supplied (catalog, farm, workload, constraints,
  layout) and report everything found, never raising on bad *input*
  (un-analyzable inputs become ALR000 diagnostics);
* :func:`preflight` — the advisor's gate: same rules, but error-level
  diagnostics raise :class:`~repro.errors.AnalysisError` naming the
  rule IDs, before any search work starts;
* :func:`audit_recommendation` — the post-search audit: re-read a
  finished recommendation against the access graph and flag placements
  the cost model considers expensive.
"""

from __future__ import annotations

import logging
from typing import Any, Mapping, Sequence

from repro.analysis.audit_rules import (
    check_journal,
    check_migration,
    check_recommendation,
    check_rollback,
)
from repro.analysis.constraint_rules import ALR015, check_constraints
from repro.analysis.diagnostics import (
    AnalysisReport,
    Severity,
    register,
)
from repro.analysis.layout_rules import check_layout
from repro.analysis.workload_rules import check_workload
from repro.catalog.schema import Database
from repro.core.constraints import ConstraintSet
from repro.core.layout import Layout
from repro.errors import AnalysisError, ReproError
from repro.obs import NULL_TELEMETRY
from repro.storage.disk import DiskFarm
from repro.workload.access import AnalyzedWorkload, analyze_workload
from repro.workload.access_graph import AccessGraph, build_access_graph
from repro.workload.workload import Workload

logger = logging.getLogger("repro.analysis")

ALR000 = register(
    "ALR000", Severity.ERROR, "engine",
    "Input could not be loaded or analyzed")


def _layout_parts(layout: "Layout | Mapping[str, Any]",
                  db: Database | None,
                  ) -> tuple[Mapping[str, int],
                             Mapping[str, Sequence[float]]]:
    """``(object_sizes, fractions)`` from a Layout or its JSON dict.

    Accepting the raw dict matters: a *invalid* layout cannot be
    constructed as a :class:`Layout` at all, and the lint pass exists
    precisely to report on such inputs instead of crashing.
    """
    if isinstance(layout, Layout):
        return layout.object_sizes, {
            name: layout.fractions_of(name)
            for name in layout.object_names}
    sizes = dict(layout.get("object_sizes") or {})
    if not sizes and db is not None:
        sizes = db.object_sizes()
    return sizes, dict(layout.get("fractions") or {})


def analyze_inputs(db: Database | None = None,
                   farm: DiskFarm | None = None,
                   workload: "Workload | AnalyzedWorkload | None" = None,
                   constraints: ConstraintSet | None = None,
                   layout: "Layout | Mapping[str, Any] | None" = None,
                   graph: AccessGraph | None = None,
                   ) -> AnalysisReport:
    """Run every applicable rule over the supplied inputs.

    Each analyzer runs only when its inputs are present: constraint
    rules need ``constraints`` + ``farm`` + ``db``; layout rules need
    ``layout`` + ``farm``; workload rules need ``workload`` (plus ``db``
    to plan a raw :class:`Workload` and to find never-accessed
    objects); the recommendation audit needs ``layout`` plus a graph
    (given, or built from the workload).

    Returns:
        An :class:`AnalysisReport`; never raises on rule violations.
    """
    report = AnalysisReport()

    analyzed: AnalyzedWorkload | None = None
    if isinstance(workload, AnalyzedWorkload):
        analyzed = workload
    elif workload is not None and db is not None:
        try:
            analyzed = analyze_workload(workload, db)
        except ReproError as bad:
            report.extend([ALR000.diagnostic(
                f"workload could not be analyzed: {bad}",
                location=f"workload:{workload.name}",
                suggestion="fix the statement the error names; run "
                           "`repro-advisor analyze` for plans")])

    if constraints is not None and farm is not None and db is not None:
        report.extend(check_constraints(constraints, farm,
                                        db.object_sizes()))

    audit_layout: Layout | None = None
    if layout is not None and farm is not None:
        sizes, fractions = _layout_parts(layout, db)
        report.extend(check_layout(
            farm, sizes, fractions,
            catalog_objects=list(db.object_sizes()) if db else None))
        if isinstance(layout, Layout):
            audit_layout = layout
        else:
            try:
                audit_layout = Layout(farm, sizes, fractions)
            except ReproError:
                audit_layout = None  # already reported by check_layout

    if analyzed is not None:
        report.extend(check_workload(analyzed, db=db, graph=graph))

    if audit_layout is not None and analyzed is not None:
        audit_graph = graph if graph is not None \
            else build_access_graph(analyzed, db)
        report.extend(check_recommendation(audit_layout, audit_graph))

    return report


def constraint_construction_diagnostic(error: ReproError,
                                       source: str = "constraints",
                                       ) -> AnalysisReport:
    """ALR015 report for a constraint set that failed to construct.

    :class:`~repro.core.constraints.ConstraintSet` rejects per-object
    contradictions (two availability levels for one object) in its
    constructor, so such sets never reach :func:`check_constraints`;
    the loader catches the error and reports it through this helper.
    """
    return AnalysisReport([ALR015.diagnostic(
        f"constraint set could not be built: {error}",
        location=f"constraint:{source}",
        suggestion="remove one of the conflicting requirements")])


def preflight(db: Database,
              farm: DiskFarm,
              constraints: ConstraintSet | None = None,
              analyzed: AnalyzedWorkload | None = None,
              telemetry=NULL_TELEMETRY) -> AnalysisReport:
    """Gate an advisor run on its inputs being analyzably sane.

    Runs the constraint and workload analyzers (layout rules are not
    relevant pre-search — the advisor *produces* the layout).  Warnings
    and info are returned in the report and recorded as
    ``analysis.warnings`` / ``analysis.info`` metrics in ``telemetry``
    (which also gets a ``preflight`` span); error-level diagnostics
    abort the run.

    Raises:
        AnalysisError: If any error-level diagnostic was found; the
            message lists each rule ID and message.
    """
    with telemetry.span("preflight") as span:
        report = AnalysisReport()
        if constraints is not None:
            report.extend(check_constraints(constraints, farm,
                                            db.object_sizes()))
        if analyzed is not None:
            report.extend(check_workload(analyzed, db=db))
        counts = report.counts()
        span.set("errors", counts["error"])
        span.set("warnings", counts["warning"])
        telemetry.inc("analysis.errors", counts["error"])
        telemetry.inc("analysis.warnings", counts["warning"])
        telemetry.inc("analysis.info", counts["info"])
        for diagnostic in report.warnings:
            logger.warning("preflight %s: %s", diagnostic.rule_id,
                           diagnostic.message)
        errors = report.errors
        if errors:
            summary = "; ".join(f"{d.rule_id}: {d.message}"
                                for d in errors)
            raise AnalysisError(
                f"pre-flight failed with {len(errors)} error-level "
                f"diagnostic(s): {summary}",
                diagnostics=tuple(errors))
    return report


def audit_recommendation(layout: Layout,
                         graph: AccessGraph,
                         telemetry=NULL_TELEMETRY) -> AnalysisReport:
    """Post-search audit of a recommended layout.

    Runs the audit rules (seek blowup, load skew) plus the layout
    smells that apply to a finished layout (idle disks, mixed
    availability); records ``analysis.audit_findings`` in
    ``telemetry``.
    """
    with telemetry.span("audit-recommendation") as span:
        report = AnalysisReport()
        report.extend(check_layout(
            layout.farm, layout.object_sizes,
            {name: layout.fractions_of(name)
             for name in layout.object_names}))
        report.extend(check_recommendation(layout, graph))
        span.set("findings", len(report))
        telemetry.inc("analysis.audit_findings", len(report))
    return report


def audit_migration(plan, current: Layout,
                    movement_budget: float | None = None,
                    telemetry=NULL_TELEMETRY) -> AnalysisReport:
    """Post-search audit of an incremental run's migration plan.

    Runs the migration rules (ALR032 budget respected, ALR033
    intermediate capacity safe) and records
    ``analysis.migration_findings`` in ``telemetry``.  A clean report is
    the run's proof that the Section-2.3 incrementality guarantees
    actually held.
    """
    with telemetry.span("audit-migration") as span:
        report = AnalysisReport()
        report.extend(check_migration(plan, current,
                                      movement_budget=movement_budget))
        span.set("findings", len(report))
        telemetry.inc("analysis.migration_findings", len(report))
    return report


def audit_journal(records, plan=None, source: Layout | None = None,
                  telemetry=NULL_TELEMETRY) -> AnalysisReport:
    """Audit a migration execution journal (ALR034/ALR035).

    ALR034 proves the journal is internally consistent and belongs to
    the given plan and source layout; ALR035 proves the journaled
    intermediate state still has a capacity-safe reverse path back to
    the source (rollback feasibility is checked only when both ``plan``
    and ``source`` are supplied).  Records
    ``analysis.migration_findings`` in ``telemetry``.

    Args:
        records: Parsed journal records
            (:func:`repro.storage.executor.read_journal` output).
        plan: The forward :class:`~repro.storage.migration.MigrationPlan`
            the journal executes.
        source: The layout the journal's replay starts from.
    """
    with telemetry.span("audit-journal") as span:
        report = AnalysisReport()
        report.extend(check_journal(records, plan=plan, source=source))
        if not report.errors and plan is not None \
                and source is not None:
            report.extend(check_rollback(records, plan, source))
        span.set("findings", len(report))
        telemetry.inc("analysis.migration_findings", len(report))
    return report
