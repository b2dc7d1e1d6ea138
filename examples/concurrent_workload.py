"""Scenario: layout for *concurrently executing* statements.

The paper models the workload as a set of statements run one at a time
and names concurrency its main piece of future work: sequential analysis
"has the effect of underestimating the amount of co-access between
objects".  This example shows the implemented extension.

Two nightly report queries each scan a different large table.  Run
back-to-back they never co-access anything, so the advisor fully stripes
both tables.  But the scheduler actually runs them *simultaneously* —
declaring that via a ConcurrencySpec makes the advisor separate the two
tables onto disjoint drives, trading per-query parallelism for freedom
from cross-query interference.

Run:  python examples/concurrent_workload.py
"""

from repro import LayoutAdvisor, Workload, winbench_farm
from repro.benchdb import tpch
from repro.workload.concurrency import ConcurrencySpec


def main() -> None:
    db = tpch.tpch_database()
    farm = winbench_farm(8)
    workload = Workload(name="nightly-reports")
    workload.add("SELECT SUM(l.l_extendedprice) FROM lineitem l",
                 name="report_lineitem")
    workload.add("SELECT AVG(ps.ps_supplycost) FROM partsupp ps",
                 name="report_partsupp")

    advisor = LayoutAdvisor(db, farm)
    analyzed = advisor.analyze(workload)
    sizes = db.object_sizes()

    # Sequential analysis (the paper's model).
    sequential = advisor.recommend(analyzed)
    print("sequential model:")
    print(f"  lineitem on {len(sequential.layout.disks_of('lineitem'))}"
          f" disks, partsupp on "
          f"{len(sequential.layout.disks_of('partsupp'))} disks "
          f"(both fully striped — no co-access was seen)")

    # Concurrency-aware analysis: the two reports always overlap.
    spec = ConcurrencySpec.from_groups([[0, 1]], overlap_factor=1.0)
    rec = advisor.recommend(analyzed, concurrency=spec)

    lineitem = set(rec.layout.disks_of("lineitem"))
    partsupp = set(rec.layout.disks_of("partsupp"))
    print()
    print("concurrency-aware model:")
    print(f"  lineitem on disks {sorted(lineitem)}")
    print(f"  partsupp on disks {sorted(partsupp)}")
    print(f"  disjoint: {not (lineitem & partsupp)}")
    print(f"  expected concurrent I/O time: {rec.estimated_cost:.1f}s "
          f"vs {rec.current_cost:.1f}s fully striped "
          f"({rec.improvement_pct:.0f}% better)")

    # Validate with concurrent simulation (not just the model).
    from repro.simulator.concurrent import ConcurrentWorkloadSimulator
    sim = ConcurrentWorkloadSimulator()
    striped_s = sim.run_concurrent(analyzed, sequential.layout,
                                   spec).total_seconds
    aware_s = sim.run_concurrent(analyzed, rec.layout,
                                 spec).total_seconds
    print(f"  simulated concurrent execution: {aware_s:.1f}s vs "
          f"{striped_s:.1f}s "
          f"({100 * (striped_s - aware_s) / striped_s:.0f}% better)")


if __name__ == "__main__":
    main()
