"""Ablations for the design choices the paper asserts but does not plot.

* ``run_greedy_vs_exhaustive`` — Section 6.2 claims TS-GREEDY with
  ``k = 1`` finds solutions "comparable to exhaustive enumeration in
  most cases"; we check it on instances small enough to enumerate.
* ``run_k_sweep`` — the effect of the greedy widening parameter ``k``
  on solution quality and search cost.
* ``run_step_roles`` — what each of TS-GREEDY's two steps contributes:
  the partition-only layout (step 1), greedy refinement from a
  round-robin singleton start (step 2 without the partitioner), and the
  full algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchdb import ctrl, tpch
from repro.catalog.schema import Column, Database, Table
from repro.catalog.stats import ColumnStats
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.exhaustive import exhaustive_search
from repro.core.fullstripe import full_striping
from repro.core.greedy import TsGreedySearch
from repro.core.layout import Layout, stripe_fractions
from repro.experiments import common
from repro.obs import Telemetry
from repro.storage.disk import uniform_farm
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph
from repro.workload.workload import Workload


def _small_database(n_tables: int = 4) -> Database:
    """A small catalog for exhaustive enumeration."""
    tables = []
    for index in range(n_tables):
        rows = 50_000 * (index + 1)
        tables.append(Table(f"t{index}", rows, [
            Column("id", 8, ColumnStats(ndv=rows, lo=1, hi=rows)),
            Column("v", 92, ColumnStats(ndv=rows, lo=0, hi=rows)),
        ], clustered_on=["id"]))
    return Database("small", tables)


def _small_workload(n_tables: int = 4) -> Workload:
    """Joins between adjacent tables plus individual scans."""
    workload = Workload(name="small")
    for index in range(n_tables - 1):
        workload.add(
            f"SELECT COUNT(*) FROM t{index} a, t{index + 1} b "
            f"WHERE a.id = b.id", name=f"join{index}")
    for index in range(n_tables):
        workload.add(f"SELECT SUM(x.v) FROM t{index} x",
                     name=f"scan{index}")
    return workload


@dataclass
class GreedyVsExhaustiveResult:
    greedy_cost: float
    exhaustive_cost: float
    greedy_evaluations: int
    exhaustive_evaluations: int

    @property
    def quality_ratio(self) -> float:
        """TS-GREEDY cost / optimal cost (1.0 = optimal)."""
        return self.greedy_cost / self.exhaustive_cost


def run_greedy_vs_exhaustive(n_tables: int = 4,
                             m_disks: int = 3
                             ) -> GreedyVsExhaustiveResult:
    """Compare TS-GREEDY (k=1) with exhaustive search."""
    db = _small_database(n_tables)
    farm = uniform_farm(m_disks, capacity_gb=2.0)
    analyzed = analyze_workload(_small_workload(n_tables), db)
    sizes = db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm, sorted(sizes))
    graph = build_access_graph(analyzed, db)
    greedy = TsGreedySearch(farm, evaluator, sizes, k=1).search(graph)
    optimal = exhaustive_search(farm, evaluator, sizes)
    return GreedyVsExhaustiveResult(
        greedy_cost=greedy.cost, exhaustive_cost=optimal.cost,
        greedy_evaluations=greedy.evaluations,
        exhaustive_evaluations=optimal.evaluations)


@dataclass
class KSweepResult:
    """Cost / evaluations / time per value of k."""

    rows: list[tuple[int, float, int, float]] = field(
        default_factory=list)


def run_k_sweep(k_values: tuple[int, ...] = (1, 2, 3),
                workload: Workload | None = None) -> KSweepResult:
    """Sweep the greedy widening parameter on TPCH1G / WK-CTRL2."""
    db = tpch.tpch_database()
    farm = common.paper_farm()
    analyzed = analyze_workload(workload or ctrl.wk_ctrl2(), db)
    sizes = db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm, sorted(sizes))
    graph = build_access_graph(analyzed, db)
    result = KSweepResult()
    for k in k_values:
        telemetry = Telemetry()
        search = TsGreedySearch(farm, evaluator, sizes, k=k,
                                telemetry=telemetry)
        outcome = search.search(graph)
        result.rows.append((k, outcome.cost, outcome.evaluations,
                            telemetry.find("ts-greedy").duration_s))
    return result


@dataclass
class StepRolesResult:
    """Workload cost of each search variant (lower is better)."""

    full_striping_cost: float
    partition_only_cost: float
    greedy_only_cost: float
    ts_greedy_cost: float


def run_step_roles(workload: Workload | None = None) -> StepRolesResult:
    """Isolate the contribution of TS-GREEDY's two steps on TPCH."""
    db = tpch.tpch_database()
    farm = common.paper_farm()
    analyzed = analyze_workload(workload or tpch.tpch22_workload(), db)
    sizes = db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm, sorted(sizes))
    graph = build_access_graph(analyzed, db)
    search = TsGreedySearch(farm, evaluator, sizes, k=1)
    full = evaluator.cost(full_striping(sizes, farm))
    ts = search.search(graph)
    # Greedy-only: start from a round-robin one-disk-per-object layout.
    names = sorted(sizes)
    round_robin = Layout(farm, sizes, {
        name: stripe_fractions([i % len(farm)], farm)
        for i, name in enumerate(names)})
    greedy_only = search.search(graph, initial_layout=round_robin)
    return StepRolesResult(
        full_striping_cost=full,
        partition_only_cost=ts.initial_cost,
        greedy_only_cost=greedy_only.cost,
        ts_greedy_cost=ts.cost)


@dataclass
class TempAwareErrorResult:
    """Mean relative estimation error of the two cost-model variants."""

    actual_total_s: float
    blind_total_s: float
    aware_total_s: float
    blind_mean_rel_error: float
    aware_mean_rel_error: float


def run_temp_aware_error(seed: int = 9_100, n_queries: int = 12,
                         big_sort_probability: float = 0.7,
                         ) -> TempAwareErrorResult:
    """Quantify the temp-I/O blind spot (the paper's Section-7 excuse).

    A deterministic finding first: temp I/O lands on a dedicated drive,
    so it shifts every layout's cost by (nearly) the same amount — it
    cannot flip *rankings* in a noise-free world, which is why the
    rank-agreement experiment barely moves with or without temp
    awareness.  Where the blind model does pay is *absolute* accuracy:
    on sort-heavy workloads it underestimates statement times by the
    whole spill cost.  This ablation measures that gap.
    """
    from repro.benchdb.synth import synthetic_workload
    from repro.core.costmodel import CostModel
    from repro.core.fullstripe import full_striping as fs

    db = tpch.tpch_database()
    farm = common.paper_farm()
    workload = synthetic_workload(
        n_queries, seed=seed,
        big_sort_probability=big_sort_probability)
    analyzed = analyze_workload(workload, db)
    layout = fs(db.object_sizes(), farm)
    simulated = common.simulator().run(analyzed, layout)
    blind = CostModel(farm)
    aware = CostModel(farm, tempdb=common.tempdb_disk())

    def mean_rel_error(model: CostModel) -> float:
        errors = []
        for statement in analyzed:
            actual = simulated.seconds_of(statement.statement.name)
            if actual <= 0:
                continue
            estimated = model.statement_cost(statement, layout)
            errors.append(abs(estimated - actual) / actual)
        return sum(errors) / len(errors)

    return TempAwareErrorResult(
        actual_total_s=simulated.total_seconds,
        blind_total_s=blind.workload_cost(analyzed, layout),
        aware_total_s=aware.workload_cost(analyzed, layout),
        blind_mean_rel_error=mean_rel_error(blind),
        aware_mean_rel_error=mean_rel_error(aware))


def main() -> None:
    """Print the experiment's paper-style table."""
    gve = run_greedy_vs_exhaustive()
    print("TS-GREEDY vs exhaustive (4 objects, 3 disks):")
    print(f"  greedy cost     {gve.greedy_cost:10.2f}  "
          f"({gve.greedy_evaluations} layouts)")
    print(f"  optimal cost    {gve.exhaustive_cost:10.2f}  "
          f"({gve.exhaustive_evaluations} layouts)")
    print(f"  quality ratio   {gve.quality_ratio:10.3f}")

    sweep = run_k_sweep()
    print("\nk sweep (WK-CTRL2):")
    print(common.format_table(
        ["k", "cost", "evaluations", "seconds"],
        [[k, f"{cost:.2f}", evals, f"{secs:.2f}"]
         for k, cost, evals, secs in sweep.rows]))

    roles = run_step_roles()
    print("\nstep roles (TPCH-22): lower cost is better")
    print(common.format_table(
        ["variant", "cost"],
        [["full striping", f"{roles.full_striping_cost:.1f}"],
         ["step 1 only (partition)", f"{roles.partition_only_cost:.1f}"],
         ["step 2 only (greedy from round-robin)",
          f"{roles.greedy_only_cost:.1f}"],
         ["TS-GREEDY (both steps)", f"{roles.ts_greedy_cost:.1f}"]]))


if __name__ == "__main__":
    main()
