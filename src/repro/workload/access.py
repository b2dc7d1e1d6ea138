"""Plan decomposition into non-blocking subplans (Section 4.2).

"Our method first decomposes the execution plan into sub-plans, each of
which consists only of non-blocking (i.e., pipelined) operators.  This
decomposition is achieved by introducing a 'cut' in the execution plan at
each blocking operator."

Objects accessed within the same non-blocking subplan are *co-accessed*;
objects in different subplans are not, no matter how many of them appear
in the full plan (the paper's Example 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog.schema import Database
from repro.obs import NULL_TELEMETRY
from repro.optimizer.operators import ObjectAccess, PlanOp
from repro.optimizer.planner import Planner, TEMPDB
from repro.sql import parse_statement
from repro.workload.workload import Statement, Workload


@dataclass
class SubplanAccess:
    """Aggregated object accesses of one non-blocking subplan.

    Attributes:
        accesses: The raw per-operator accesses in this subplan.
    """

    accesses: list[ObjectAccess] = field(default_factory=list)

    def blocks_by_object(self, include_temp: bool = False) -> dict[
            tuple[str, bool], float]:
        """Blocks per ``(object, is_write)``, summed over the subplan."""
        totals: dict[tuple[str, bool], float] = {}
        for access in self.accesses:
            if not include_temp and access.object_name == TEMPDB:
                continue
            key = (access.object_name, access.write)
            totals[key] = totals.get(key, 0.0) + access.blocks
        return totals

    def objects(self, include_temp: bool = False) -> set[str]:
        """Distinct objects accessed in this subplan."""
        return {a.object_name for a in self.accesses
                if include_temp or a.object_name != TEMPDB}

    @property
    def is_empty(self) -> bool:
        return not self.accesses


def decompose(plan: PlanOp) -> list[SubplanAccess]:
    """Cut ``plan`` at blocking edges into non-blocking subplans.

    Returns only subplans that access at least one stored object, in
    deterministic pre-order discovery order.
    """
    subplans: list[SubplanAccess] = []

    def visit(node: PlanOp, current: SubplanAccess) -> None:
        current.accesses.extend(node.accesses)
        for child, blocking in zip(node.children, node.blocking_edges):
            if blocking:
                fresh = SubplanAccess()
                subplans.append(fresh)
                visit(child, fresh)
            else:
                visit(child, current)

    root = SubplanAccess()
    subplans.append(root)
    visit(plan, root)
    return [s for s in subplans if not s.is_empty]


@dataclass
class AnalyzedStatement:
    """One statement together with its plan and subplan decomposition.

    ``weight_override`` exists for *synthetic* costing entries (the
    concurrency extension's expected-cost expansion uses negative
    correction weights, which real statements cannot have).
    """

    statement: Statement
    plan: PlanOp
    subplans: list[SubplanAccess]
    weight_override: float | None = None

    @property
    def weight(self) -> float:
        if self.weight_override is not None:
            return self.weight_override
        return self.statement.weight


class AnalyzedWorkload:
    """A workload whose statements have all been planned and decomposed.

    This is the unit of work shared between the access-graph builder, the
    analytical cost model and the I/O simulator: planning happens once,
    layouts are evaluated many times against the cached decomposition.
    """

    def __init__(self, statements: Sequence[AnalyzedStatement],
                 name: str = "workload"):
        self.statements = list(statements)
        self.name = name

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    def referenced_objects(self) -> set[str]:
        """Every stored object (tempdb excluded) the workload touches."""
        out: set[str] = set()
        for analyzed in self.statements:
            for subplan in analyzed.subplans:
                out |= subplan.objects()
        return out


def analyze_workload(workload: Workload, db: Database,
                     planner: Planner | None = None,
                     telemetry=NULL_TELEMETRY) -> AnalyzedWorkload:
    """Plan and decompose every statement of a workload.

    This is the paper's *Analyze Workload* component: statements are
    optimized in "no-execute" mode (our planner), never run.

    Args:
        workload: The SQL workload to analyze.
        db: The database catalog to plan against.
        planner: Optional custom planner (defaults to one over ``db``).
        telemetry: Optional :class:`repro.obs.Telemetry`; opens one
            ``analyze-workload`` span covering the whole analysis and
            records ``analyze.statements`` and the per-statement
            subplan distribution ``analyze.subplans_per_statement``.
    """
    planner = planner or Planner(db)
    analyzed = []
    with telemetry.span("analyze-workload",
                        statements=len(workload)) as span:
        for stmt in workload:
            plan = planner.plan(parse_statement(stmt.sql))
            subplans = decompose(plan)
            analyzed.append(AnalyzedStatement(statement=stmt, plan=plan,
                                              subplans=subplans))
            telemetry.inc("analyze.statements")
            telemetry.observe("analyze.subplans_per_statement",
                              len(subplans))
        span.set("subplans",
                 sum(len(a.subplans) for a in analyzed))
    return AnalyzedWorkload(analyzed, name=workload.name)
