"""repro — reproduction of *Automating Layout of Relational Databases*
(Agrawal, Chaudhuri, Das, Narasayya; ICDE 2003).

A workload-aware database layout advisor: it analyzes a SQL workload's
execution plans, builds a co-access graph, and searches for an assignment
of tables/indexes to disk drives that trades I/O parallelism against the
random-I/O penalty of co-locating co-accessed objects — together with
every substrate the paper relied on (SQL parser, cost-based optimizer,
catalog, disk models, and an I/O simulator standing in for the paper's
measured SQL Server testbed).

Quickstart::

    from repro import LayoutAdvisor, winbench_farm
    from repro.benchdb import tpch

    db = tpch.tpch_database()
    advisor = LayoutAdvisor(db, winbench_farm(8))
    rec = advisor.recommend(tpch.tpch22_workload())
    print(rec.improvement_pct, rec.layout.describe())
"""

from repro.errors import (
    AnalysisError,
    CatalogError,
    ConstraintError,
    LayoutError,
    PlanningError,
    ReproError,
    SimulationError,
    SqlSyntaxError,
    WorkloadError,
)
from repro.catalog import (
    Column,
    ColumnStats,
    Database,
    DbObject,
    Histogram,
    Index,
    MaterializedView,
    ObjectKind,
    Table,
)
from repro.storage import (
    Availability,
    BLOCK_BYTES,
    DiskFarm,
    DiskSpec,
    MigrationPlan,
    MigrationStep,
    plan_migration,
    uniform_farm,
    winbench_farm,
)
from repro.workload import (
    AccessGraph,
    AnalyzedWorkload,
    ConcurrencySpec,
    DriftReport,
    Statement,
    Workload,
    analyze_workload,
    build_access_graph,
    detect_drift,
    load_trace,
)
from repro.optimizer import Planner, explain, plan_statement
from repro.core import (
    AvailabilityRequirement,
    CoLocated,
    ConstraintSet,
    CostModel,
    IncrementalSearch,
    Layout,
    LayoutAdvisor,
    MaxDataMovement,
    Recommendation,
    SearchOptions,
    TsGreedySearch,
    WorkloadCostEvaluator,
    exhaustive_search,
    full_striping,
    random_layout,
    stripe_fractions,
)
from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze_inputs,
    audit_recommendation,
    preflight,
)
from repro.parallel import (
    PortfolioSearch,
    TrajectorySpec,
    default_portfolio,
)
from repro.simulator import SimulationReport, WorkloadSimulator
from repro.obs import MetricsRegistry, NULL_TELEMETRY, Span, Telemetry

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "AnalysisError", "CatalogError", "SqlSyntaxError",
    "PlanningError", "LayoutError", "ConstraintError", "SimulationError",
    "WorkloadError",
    # catalog
    "Column", "ColumnStats", "Database", "DbObject", "Histogram", "Index",
    "MaterializedView", "ObjectKind", "Table",
    # storage
    "Availability", "BLOCK_BYTES", "DiskFarm", "DiskSpec", "MigrationPlan",
    "MigrationStep", "plan_migration", "uniform_farm", "winbench_farm",
    # workload
    "AccessGraph", "AnalyzedWorkload", "ConcurrencySpec", "DriftReport",
    "Statement", "Workload", "analyze_workload", "build_access_graph",
    "detect_drift", "load_trace",
    # optimizer
    "Planner", "explain", "plan_statement",
    # core
    "AvailabilityRequirement", "CoLocated", "ConstraintSet", "CostModel",
    "IncrementalSearch", "Layout", "LayoutAdvisor", "MaxDataMovement",
    "Recommendation", "SearchOptions", "TsGreedySearch",
    "WorkloadCostEvaluator",
    "exhaustive_search", "full_striping", "random_layout",
    "stripe_fractions",
    # static analysis
    "AnalysisReport", "Diagnostic", "Severity", "analyze_inputs",
    "audit_recommendation", "preflight",
    # parallel portfolio search
    "PortfolioSearch", "TrajectorySpec", "default_portfolio",
    # simulator
    "SimulationReport", "WorkloadSimulator",
    # observability
    "MetricsRegistry", "NULL_TELEMETRY", "Span", "Telemetry",
    "__version__",
]
