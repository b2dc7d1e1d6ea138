"""The end-to-end layout advisor (the paper's Figure-3 architecture).

Inputs: a database catalog, a workload, a disk-farm description, and
optional constraints.  Output: a layout recommendation with the estimated
percentage improvement in I/O response time over the current layout —
exactly the tool interface the paper describes.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Sequence, TypeGuard

from repro.catalog.schema import Database
from repro.core.constraints import ConstraintSet
from repro.core.costmodel import CostModel, WorkloadCostEvaluator
from repro.core.exhaustive import exhaustive_search
from repro.core.fullstripe import full_striping
from repro.core.greedy import SearchResult, TsGreedySearch
from repro.core.layout import Layout
from repro.errors import DegradedResult, LayoutError
from repro.obs import NULL_TELEMETRY
from repro.optimizer.planner import Planner
from repro.resilience import Deadline, FaultPlan, RetryPolicy
from repro.storage.disk import DiskFarm
from repro.storage.migration import MigrationPlan, plan_migration
from repro.workload.access import AnalyzedWorkload, analyze_workload
from repro.workload.access_graph import AccessGraph, build_access_graph
from repro.workload.concurrency import (
    ConcurrencySpec,
    build_access_graph_concurrent,
    concurrent_cost_workload,
)
from repro.workload.workload import Workload

if TYPE_CHECKING:
    from repro.analysis.diagnostics import AnalysisReport, Diagnostic
    from repro.parallel.portfolio import TrajectorySpec

logger = logging.getLogger("repro.core.advisor")


@dataclass
class Recommendation:
    """A layout recommendation with its estimated benefit.

    Attributes:
        layout: The recommended layout.
        estimated_cost: Estimated workload I/O response time under it.
        current_cost: Estimated workload I/O response time under the
            current layout (full striping unless one was supplied).
        improvement_pct: ``100 * (current - estimated) / current``.
        per_statement: (statement name or index, current cost, new cost)
            triples for reporting.
        search: Raw search telemetry.
        diagnostics: Static-analysis findings attached to the run —
            pre-flight warnings plus the post-search audit of the
            recommended layout (``repro.analysis`` rule IDs).
        migration: Ordered capacity-safe move plan from
            ``current_layout`` to ``layout`` (incremental runs only).
        movement_budget: The Δ movement-budget fraction the search ran
            under (incremental runs only).
    """

    layout: Layout
    estimated_cost: float
    current_cost: float
    per_statement: list[tuple[str, float, float]] = field(
        default_factory=list)
    search: SearchResult | None = None
    current_layout: Layout | None = None
    diagnostics: "list[Diagnostic]" = field(default_factory=list)
    migration: MigrationPlan | None = None
    movement_budget: float | None = None

    @property
    def improvement_pct(self) -> float:
        if self.current_cost <= 0:
            return 0.0
        return 100.0 * (self.current_cost - self.estimated_cost) \
            / self.current_cost

    @property
    def data_movement_blocks(self) -> float | None:
        """Blocks that must move to implement the recommendation, or
        ``None`` when no current layout was recorded."""
        if self.current_layout is None:
            return None
        return self.current_layout.data_movement_blocks(self.layout)

    @property
    def moved_fraction(self) -> float | None:
        """Moved blocks as a fraction of the database's total blocks,
        or ``None`` when no current layout was recorded."""
        moved = self.data_movement_blocks
        if moved is None:
            return None
        total = sum(self.layout.object_sizes.values())
        return moved / total if total else 0.0


#: Search methods :meth:`LayoutAdvisor.recommend` runs.
METHODS = ("ts-greedy", "portfolio", "incremental", "full-striping",
           "exhaustive")

#: :class:`SearchOptions` field roles, stored under the ``"role"`` key
#: of each field's metadata.  A ``CONTENT`` field can change what the
#: search recommends; an ``SLO`` field bounds only how long the search
#: may run and how it survives failures.
CONTENT = "content"
SLO = "slo"


def _option(default: Any, role: str) -> Any:
    return field(default=default, metadata={"role": role})


def _is_int(value: object) -> TypeGuard[int]:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> TypeGuard[float]:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_specs(value: object) -> bool:
    """A non-empty sequence of :class:`repro.parallel.TrajectorySpec`."""
    if not isinstance(value, (list, tuple)) or not value:
        return False
    from repro.parallel import TrajectorySpec
    return all(isinstance(spec, TrajectorySpec) for spec in value)


@dataclass(frozen=True)
class SearchOptions:
    """The search parameters of :meth:`LayoutAdvisor.recommend`.

    The library, the CLI and the advisor service all build this one
    object, so each parameter is defined and validated once: a bad
    value raises :class:`~repro.errors.LayoutError` at construction.
    Each field's metadata ``role`` is :data:`CONTENT` or :data:`SLO`;
    :meth:`content` returns the content fields, from which the service
    derives its job fingerprint.

    Attributes:
        method: One of :data:`METHODS`; ``"ts-greedy"`` by default.
        k: TS-GREEDY's widening parameter (>= 1).
        jobs: Worker count for ``method="portfolio"``: 1 runs the
            portfolio serially in-process, 0 auto-sizes to the
            machine; the pool never starts more workers than usable
            cores.  Results are identical either way.
        portfolio: For ``method="portfolio"``: a trajectory count, a
            sequence of :class:`repro.parallel.TrajectorySpec`, or
            ``None`` for the default portfolio.
        deadline: For ``method="portfolio"``: wall-clock budget for
            the search, its one time bound — seconds (counting from
            when the search begins) or a live
            :class:`repro.resilience.Deadline`.  When it expires the
            advisor returns the exact best layout over the
            trajectories that completed (a *degraded* result; a
            :class:`~repro.errors.DegradedResult` warning is emitted)
            rather than raising.
        retries: For ``method="portfolio"``: extra in-process attempts
            a failed trajectory gets after its first.
        faults: For ``method="portfolio"``: a
            :class:`repro.resilience.FaultPlan` for tests and chaos
            runs (``None`` falls back to the ``REPRO_FAULTS``
            environment variable).
        movement_budget: For ``method="incremental"``: Δ, the maximum
            fraction of the database's blocks that may change disks
            relative to the current layout (``None`` means 1.0, i.e.
            unbounded).  The search is seeded from the current layout,
            over-budget moves are projected back onto the budget, and
            the recommendation carries an ordered capacity-safe
            :class:`MigrationPlan` (see ``docs/incremental.md``).
    """

    method: str = _option("ts-greedy", CONTENT)
    k: int = _option(1, CONTENT)
    jobs: int = _option(1, SLO)
    portfolio: int | Sequence[TrajectorySpec] | None = _option(
        None, CONTENT)
    deadline: float | Deadline | None = _option(None, SLO)
    retries: int = _option(1, SLO)
    faults: FaultPlan | None = _option(None, SLO)
    movement_budget: float | None = _option(None, CONTENT)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise LayoutError(f"unknown search method {self.method!r}; "
                              f"expected one of {', '.join(METHODS)}")
        if not _is_int(self.k) or self.k < 1:
            raise LayoutError(f"k must be an integer >= 1, "
                              f"got {self.k!r}")
        if not _is_int(self.jobs) or self.jobs < 0:
            raise LayoutError(f"jobs must be an integer >= 0 "
                              f"(0 = all cores), got {self.jobs!r}")
        portfolio = self.portfolio
        if _is_specs(portfolio):
            object.__setattr__(self, "portfolio", tuple(portfolio))
        elif portfolio is not None \
                and not (_is_int(portfolio) and portfolio >= 1):
            raise LayoutError(
                f"portfolio must be a trajectory count >= 1 or a "
                f"non-empty sequence of TrajectorySpec, "
                f"got {portfolio!r}")
        deadline = self.deadline
        if not (deadline is None
                or isinstance(deadline, Deadline)
                or (_is_number(deadline) and deadline >= 0)):
            raise LayoutError(
                f"deadline must be seconds >= 0 or a Deadline, "
                f"got {deadline!r}")
        if not _is_int(self.retries) or self.retries < 0:
            raise LayoutError(f"retries must be an integer >= 0, "
                              f"got {self.retries!r}")
        if self.faults is not None \
                and not isinstance(self.faults, FaultPlan):
            raise LayoutError(f"faults must be a FaultPlan, "
                              f"got {self.faults!r}")
        budget = self.movement_budget
        if budget is not None \
                and not (_is_number(budget) and 0.0 <= budget <= 1.0):
            raise LayoutError(
                f"movement budget must be a fraction in [0, 1], "
                f"got {budget!r}")
        if budget is not None:
            # 1 and 1.0 are one budget: one content fingerprint.
            object.__setattr__(self, "movement_budget", float(budget))

    def content(self) -> dict[str, Any]:
        """The :data:`CONTENT` fields by name: everything here that can
        change the recommendation."""
        return {option.name: getattr(self, option.name)
                for option in fields(self)
                if option.metadata["role"] == CONTENT}


class LayoutAdvisor:
    """Recommends a database layout for a workload.

    Args:
        db: Database catalog (tables, indexes, views, statistics).
        farm: Available disk drives with their characteristics.
        constraints: Optional manageability/availability constraints.
        planner: Optional custom planner (defaults to one over ``db``).
        telemetry: Optional :class:`repro.obs.Telemetry`; every pipeline
            phase of :meth:`recommend` opens a span under a
            ``recommend`` root, the search loops, the portfolio engine
            and the migration planner emit their typed events into it,
            and the pipeline's components record their instruments in
            its metrics.

    With no ``telemetry`` the shared :data:`~repro.obs.NULL_TELEMETRY`
    is used: results are bit-identical and the overhead is a handful of
    cheap method calls per phase (nothing per candidate layout).
    """

    def __init__(self, db: Database, farm: DiskFarm,
                 constraints: ConstraintSet | None = None,
                 planner: Planner | None = None,
                 telemetry=NULL_TELEMETRY):
        self._db = db
        self._farm = farm
        self._constraints = constraints or ConstraintSet()
        self._planner = planner or Planner(db)
        self._telemetry = telemetry

    # -- analysis --------------------------------------------------------------

    def analyze(self, workload: Workload) -> AnalyzedWorkload:
        """Run the Analyze Workload component (plan, decompose)."""
        return analyze_workload(workload, self._db, self._planner,
                                telemetry=self._telemetry)

    def access_graph(self, analyzed: AnalyzedWorkload) -> AccessGraph:
        """Build the co-access graph for an analyzed workload."""
        return build_access_graph(analyzed, self._db,
                                  telemetry=self._telemetry)

    def evaluator(self,
                  analyzed: AnalyzedWorkload) -> WorkloadCostEvaluator:
        """Precompile the workload for repeated cost evaluation."""
        with self._telemetry.span("build-evaluator"):
            return WorkloadCostEvaluator(analyzed, self._farm,
                                         sorted(self._db.object_sizes()),
                                         telemetry=self._telemetry)

    # -- static analysis ---------------------------------------------------------

    def _preflight(self,
                   analyzed: AnalyzedWorkload) -> "AnalysisReport":
        """Gate the run on its inputs (raises AnalysisError on errors)."""
        # Deferred import: repro.analysis is a higher layer built on top
        # of repro.core, so repro.core modules must not import it at
        # load time.
        from repro.analysis.engine import preflight
        return preflight(self._db, self._farm,
                         constraints=self._constraints,
                         analyzed=analyzed,
                         telemetry=self._telemetry)

    def _audit(self, layout: Layout,
               graph: AccessGraph) -> "AnalysisReport":
        """Post-search audit of the recommended layout."""
        from repro.analysis.engine import audit_recommendation
        return audit_recommendation(layout, graph,
                                    telemetry=self._telemetry)

    def _audit_migration(self, migration: MigrationPlan,
                         current_layout: Layout,
                         movement_budget: float) -> "AnalysisReport":
        """Post-search audit of an incremental run's migration plan."""
        from repro.analysis.engine import audit_migration
        return audit_migration(migration, current_layout,
                               movement_budget,
                               telemetry=self._telemetry)

    # -- recommendation -----------------------------------------------------------

    def recommend(self, workload: Workload | AnalyzedWorkload,
                  current_layout: Layout | None = None,
                  options: SearchOptions | None = None, *,
                  concurrency: ConcurrencySpec | None = None,
                  **overrides: Any) -> Recommendation:
        """Recommend a layout for the workload.

        Args:
            workload: The workload (raw or pre-analyzed).
            current_layout: The database's current layout; defaults to
                full striping, the traditional practice the paper
                compares against.
            options: The search parameters; defaults to
                ``SearchOptions()``.
            concurrency: Overlap information (the paper's stated
                future work): statements grouped by the
                :class:`~repro.workload.concurrency.ConcurrencySpec`
                are treated as co-executing, so both the access graph
                and the cost being optimized include cross-statement
                contention and the parallelism credit of disjoint
                placement.  Only the TS-GREEDY methods take it
                (``"ts-greedy"`` and ``"incremental"``): the expanded
                cost is not bounded below, and the other searches
                chase its negative values.  ``per_statement`` still
                lists each statement's isolated cost.
            **overrides: :class:`SearchOptions` fields set on top of
                ``options``, so ``recommend(w, method="portfolio",
                jobs=2)`` equals ``recommend(w,
                options=SearchOptions(method="portfolio", jobs=2))``.

        Returns:
            A :class:`Recommendation`; its ``improvement_pct`` is the
            estimate the tool reports to the DBA.  Check
            ``recommendation.search.degraded`` / ``.failures`` to see
            whether (and why) trajectories were lost.

        Raises:
            LayoutError: If an option value is invalid, or
                ``concurrency`` is given with a method other than
                ``"ts-greedy"`` or ``"incremental"``.
            AnalysisError: If the pre-flight static analysis finds an
                error-level diagnostic in the constraints or workload.
            WorkloadError: If ``concurrency`` names a statement the
                workload does not have.
            SearchTimeout: If a ``deadline`` expired before *any*
                portfolio trajectory completed.
            WorkerCrash: If every portfolio trajectory was lost to
                worker failures (after serial re-runs).
        """
        options = replace(
            options if options is not None else SearchOptions(),
            **overrides)
        method = options.method
        if concurrency is not None \
                and method not in ("ts-greedy", "incremental"):
            raise LayoutError(
                f"method {method!r} cannot take overlap information: "
                f"the concurrency-expanded cost is not bounded below; "
                f"use ts-greedy or incremental")
        with self._telemetry.span("recommend", method=method) as root:
            analyzed = workload if isinstance(workload, AnalyzedWorkload) \
                else self.analyze(workload)
            # Pre-flight runs on the *un-expanded* workload: the
            # concurrency expansion legitimately adds negative
            # correction weights that ALR022 would flag.
            preflight_report = self._preflight(analyzed)
            sizes = self._db.object_sizes()
            if current_layout is None:
                with self._telemetry.span("baseline-layout"):
                    current_layout = full_striping(sizes, self._farm)
            if concurrency is None:
                evaluator = self.evaluator(analyzed)
                graph = self.access_graph(analyzed)
            else:
                with self._telemetry.span("expand-concurrency"):
                    expanded = concurrent_cost_workload(analyzed,
                                                        concurrency)
                evaluator = self.evaluator(expanded)
                with self._telemetry.span("build-access-graph"):
                    graph = build_access_graph_concurrent(
                        analyzed, concurrency, self._db)
            initial = current_layout \
                if self._constraints.movement is not None else None
            if method == "ts-greedy":
                search = TsGreedySearch(self._farm, evaluator, sizes,
                                        constraints=self._constraints,
                                        k=options.k,
                                        telemetry=self._telemetry)
                result = search.search(graph, initial_layout=initial)
            elif method == "portfolio":
                result = self._portfolio_search(
                    evaluator, sizes, graph, initial, options)
                if result.degraded:
                    detail = "; ".join(f.describe()
                                       for f in result.failures)
                    warnings.warn(
                        f"degraded recommendation: "
                        f"{len(result.failures)}/"
                        f"{int(result.extras.get('trajectories', 0))} "
                        f"trajectories failed ({detail}); the layout "
                        f"is the exact best over the completed ones",
                        DegradedResult, stacklevel=2)
            elif method == "incremental":
                from repro.core.incremental import IncrementalSearch
                budget = 1.0 if options.movement_budget is None \
                    else options.movement_budget
                engine = IncrementalSearch(
                    self._farm, evaluator, sizes,
                    constraints=self._constraints, k=options.k,
                    telemetry=self._telemetry)
                result = engine.search(graph, current_layout, budget)
            elif method == "full-striping":
                with self._telemetry.span("full-striping"):
                    layout = full_striping(sizes, self._farm)
                    cost = evaluator.cost(layout)
                    result = SearchResult(layout=layout, cost=cost,
                                          initial_cost=cost)
            elif method == "exhaustive":
                with self._telemetry.span("exhaustive") as span:
                    result = exhaustive_search(
                        self._farm, evaluator, sizes,
                        constraints=self._constraints)
                    span.set("evaluations", result.evaluations)
            self._constraints.check(result.layout)
            with self._telemetry.span("score-current"):
                current_cost = evaluator.cost(current_layout)
            # Never recommend a layout the model scores worse than what
            # the DBA already has, provided keeping it is allowed.
            if result.cost > current_cost \
                    and self._constraints.is_satisfied(current_layout):
                logger.info(
                    "search result (%.3f) is worse than the current "
                    "layout (%.3f); keeping the current layout",
                    result.cost, current_cost)
                result = result.with_layout(current_layout,
                                            current_cost)
            with self._telemetry.span("per-statement-costs"):
                model = CostModel(self._farm)
                per_statement = []
                for index, analyzed_stmt in enumerate(analyzed):
                    name = analyzed_stmt.statement.name \
                        or f"stmt{index + 1}"
                    per_statement.append((
                        name,
                        model.statement_cost(analyzed_stmt,
                                             current_layout),
                        model.statement_cost(analyzed_stmt,
                                             result.layout)))
            diagnostics = list(preflight_report) \
                + list(self._audit(result.layout, graph))
            migration = None
            budget_used = None
            if method == "incremental":
                budget_used = budget
                migration = plan_migration(current_layout,
                                           result.layout,
                                           telemetry=self._telemetry)
                diagnostics += list(self._audit_migration(
                    migration, current_layout, budget_used))
            recommendation = Recommendation(
                layout=result.layout, estimated_cost=result.cost,
                current_cost=current_cost, per_statement=per_statement,
                search=result, current_layout=current_layout,
                diagnostics=diagnostics, migration=migration,
                movement_budget=budget_used)
            root.set("improvement_pct",
                     round(recommendation.improvement_pct, 3))
            self._telemetry.set_gauge("advisor.improvement_pct",
                                      recommendation.improvement_pct)
            logger.info(
                "recommendation: %.3fs -> %.3fs (%.1f%% improvement, "
                "method=%s)", current_cost, result.cost,
                recommendation.improvement_pct, method)
            return recommendation

    def _portfolio_search(self, evaluator: WorkloadCostEvaluator,
                          sizes: dict[str, int], graph: AccessGraph,
                          initial: Layout | None,
                          options: SearchOptions) -> SearchResult:
        """Run the multi-start portfolio engine (method="portfolio")."""
        # Deferred import: repro.parallel builds on repro.core, so the
        # dependency must point parallel -> core at module-load time.
        from repro.parallel import PortfolioSearch, default_portfolio
        constrained = bool(self._constraints.co_located
                           or self._constraints.availability
                           or self._constraints.movement)
        portfolio = options.portfolio
        if portfolio is None:
            specs = default_portfolio(
                k=options.k, include_annealing=not constrained)
        elif isinstance(portfolio, int):
            specs = default_portfolio(
                portfolio, k=options.k, include_annealing=not constrained)
        else:
            specs = list(portfolio)
        engine = PortfolioSearch(
            self._farm, evaluator, sizes, constraints=self._constraints,
            specs=specs, jobs=options.jobs, deadline=options.deadline,
            retry=RetryPolicy(attempts=1 + options.retries),
            faults=options.faults, telemetry=self._telemetry)
        return engine.search(graph, initial_layout=initial)
