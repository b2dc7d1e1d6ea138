"""Scenario: a fully trace-driven advisor run.

The paper's architecture starts from a profiler trace ("a representative
workload for the system can be gathered using profiling tools … e.g.,
the SQL Server Profiler").  This example takes that literally: a trace
of executed statements with start/end timestamps is the ONLY workload
input.  The profiler module derives

* the weighted workload (execution counts become statement weights) and
* the overlap structure (which statements actually ran concurrently),

and the advisor produces a concurrency-aware layout from them.

Run:  python examples/trace_driven.py
"""

import tempfile
from pathlib import Path

from repro import LayoutAdvisor, winbench_farm
from repro.benchdb import tpch
from repro.workload.profiler import load_trace

#: A morning of activity: the lineitem report runs hourly and always
#: overlaps the partsupp report; the customer lookup runs alone.
TRACE = """\
start,end,sql
0,95,SELECT SUM(l.l_extendedprice) FROM lineitem l
5,90,SELECT AVG(ps.ps_supplycost) FROM partsupp ps
120,125,SELECT COUNT(*) FROM customer c WHERE c.c_custkey = 42
3600,3693,SELECT SUM(l.l_extendedprice) FROM lineitem l
3610,3700,SELECT AVG(ps.ps_supplycost) FROM partsupp ps
3720,3724,SELECT COUNT(*) FROM customer c WHERE c.c_custkey = 99042
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "profiler_trace.csv"
        trace_path.write_text(TRACE)
        workload, spec = load_trace(trace_path)

    print("derived workload:")
    for statement in workload:
        print(f"  weight {statement.weight:.0f}: "
              f"{statement.sql[:60]}")
    print(f"derived overlap groups: "
          f"{sorted(map(sorted, spec.groups))} "
          f"(overlap factor {spec.overlap_factor:.2f})")

    db = tpch.tpch_database()
    advisor = LayoutAdvisor(db, winbench_farm(8))
    rec = advisor.recommend(workload, concurrency=spec)
    lineitem = set(rec.layout.disks_of("lineitem"))
    partsupp = set(rec.layout.disks_of("partsupp"))
    print()
    print(f"recommendation ({rec.improvement_pct:.0f}% estimated "
          f"improvement under the observed concurrency):")
    print(f"  lineitem on disks {sorted(lineitem)}")
    print(f"  partsupp on disks {sorted(partsupp)}")
    print(f"  separated because the trace shows them co-executing: "
          f"{not (lineitem & partsupp)}")


if __name__ == "__main__":
    main()
