"""Concurrency-extension study (the paper's Section-2.2 future work).

Compares the sequential advisor with the concurrency-aware advisor on a
workload of always-overlapping report scans, measuring both under
*simulated concurrent execution* — the end-to-end validation that the
extension's layouts actually help when statements really do overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchdb import tpch
from repro.core.advisor import LayoutAdvisor
from repro.experiments import common
from repro.simulator.concurrent import ConcurrentWorkloadSimulator
from repro.workload.concurrency import ConcurrencySpec
from repro.workload.workload import Workload


@dataclass
class ConcurrencyStudyResult:
    """Simulated concurrent times of the two advisors' layouts."""

    sequential_layout_s: float
    aware_layout_s: float
    tables_disjoint: bool

    @property
    def improvement_pct(self) -> float:
        return common.improvement_pct(self.sequential_layout_s,
                                      self.aware_layout_s)


def overlapping_reports_workload() -> Workload:
    """Two report scans that the scheduler always runs together."""
    workload = Workload(name="overlapping-reports")
    workload.add("SELECT SUM(l.l_extendedprice) FROM lineitem l",
                 name="report_lineitem")
    workload.add("SELECT AVG(ps.ps_supplycost) FROM partsupp ps",
                 name="report_partsupp")
    return workload


def run_concurrency_study(overlap_factor: float = 1.0
                          ) -> ConcurrencyStudyResult:
    """Run the sequential-vs-aware comparison under concurrent
    simulation."""
    db = tpch.tpch_database()
    farm = common.paper_farm()
    workload = overlapping_reports_workload()
    advisor = LayoutAdvisor(db, farm)
    analyzed = advisor.analyze(workload)
    spec = ConcurrencySpec.from_groups([[0, 1]],
                                       overlap_factor=overlap_factor)
    sequential = advisor.recommend(analyzed)
    aware = advisor.recommend(analyzed, concurrency=spec)
    sim = ConcurrentWorkloadSimulator(tempdb=common.tempdb_disk())
    sequential_s = sim.run_concurrent(analyzed, sequential.layout,
                                      spec).total_seconds
    aware_s = sim.run_concurrent(analyzed, aware.layout,
                                 spec).total_seconds
    lineitem = set(aware.layout.disks_of("lineitem"))
    partsupp = set(aware.layout.disks_of("partsupp"))
    return ConcurrencyStudyResult(
        sequential_layout_s=sequential_s,
        aware_layout_s=aware_s,
        tables_disjoint=not (lineitem & partsupp))


def main() -> None:
    """Print the concurrency study's result."""
    result = run_concurrency_study()
    print(common.format_table(
        ["layout", "simulated concurrent time"],
        [["sequential advisor (full striping)",
          f"{result.sequential_layout_s:.2f}s"],
         ["concurrency-aware advisor",
          f"{result.aware_layout_s:.2f}s"]]))
    print(f"\ntables disjoint: {result.tables_disjoint}; "
          f"improvement {result.improvement_pct:.0f}%")


if __name__ == "__main__":
    main()
