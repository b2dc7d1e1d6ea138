"""Figure 11 (Section 7.2): TS-GREEDY running time vs number of disks.

The paper varies the farm from 4 to 64 disks (doubling each step) for
TPCH-22, APB-800 and SALES-45 and plots the running time *ratio*
relative to the 4-disk run, observing slightly-more-than-quadratic
growth (~6x per doubling) consistent with the O(m^2 n^2) analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchdb import apb, sales, tpch
from repro.catalog.schema import Database
from repro.core.advisor import LayoutAdvisor
from repro.experiments import common
from repro.obs import Telemetry
from repro.workload.workload import Workload

#: Disk counts used by the paper.
DISK_COUNTS = (4, 8, 16, 32, 64)


@dataclass
class Figure11Result:
    """Per-workload runtime series over disk counts."""

    disk_counts: tuple[int, ...]
    seconds: dict[str, list[float]] = field(default_factory=dict)

    def ratios(self, name: str) -> list[float]:
        """Runtime ratio relative to the smallest disk count."""
        series = self.seconds[name]
        base = series[0] or 1e-9
        return [s / base for s in series]


def figure11_cases() -> list[tuple[Database, Workload]]:
    """The paper's three (database, workload) pairs."""
    return [
        (tpch.tpch_database(), tpch.tpch22_workload()),
        (apb.apb_database(), apb.apb800_workload()),
        (sales.sales_database(), sales.sales45_workload()),
    ]


def run_figure11(disk_counts: tuple[int, ...] = DISK_COUNTS,
                 cases: list[tuple[Database, Workload]] | None = None,
                 method: str = "ts-greedy", jobs: int = 1,
                 ) -> Figure11Result:
    """Measure TS-GREEDY runtime as the number of disks grows.

    Workload analysis (planning) happens once per workload; only the
    search is timed, as in the paper.

    Args:
        disk_counts: Farm sizes to sweep.
        cases: (database, workload) pairs; default: the paper's three.
        method: ``"ts-greedy"`` (the paper's run) or ``"portfolio"``.
        jobs: Worker processes when ``method="portfolio"``.
    """
    cases = cases if cases is not None else figure11_cases()
    result = Figure11Result(disk_counts=tuple(disk_counts))
    for db, workload in cases:
        base_farm = common.paper_farm(max(disk_counts))
        analyzed = LayoutAdvisor(db, base_farm).analyze(workload)
        series: list[float] = []
        for m in disk_counts:
            farm = common.paper_farm(m)
            telemetry = Telemetry()
            advisor = LayoutAdvisor(db, farm, telemetry=telemetry)
            advisor.recommend(analyzed, method=method, jobs=jobs)
            series.append(telemetry.find("recommend").duration_s)
        result.seconds[workload.name] = series
    return result


def main() -> None:
    """Print the experiment's paper-style table."""
    result = run_figure11()
    rows = []
    for name in result.seconds:
        ratios = result.ratios(name)
        rows.append([name] + [f"{r:.1f}x" for r in ratios])
    headers = ["workload"] + [f"{m} disks"
                              for m in result.disk_counts]
    print(common.format_table(headers, rows))
    print("\npaper: ratio grows ~6x per doubling (slightly more than "
          "quadratic)")


if __name__ == "__main__":
    main()
