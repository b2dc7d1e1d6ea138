"""Figure 12 (Section 7.2): TS-GREEDY running time vs number of objects.

The paper replicates TPCH1G N times (TPCH1G-N, N = 1..6), generates an
88-query workload per N (qgen output with table names randomly remapped
to one of the N copies), fixes 8 disks, and plots TS-GREEDY's running
time relative to N = 1 — observing quadratic growth (~40x at N = 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchdb import tpch
from repro.core.advisor import LayoutAdvisor
from repro.experiments import common
from repro.obs import Telemetry

#: Replication factors used by the paper.
REPLICATION_FACTORS = (1, 2, 3, 4, 5, 6)


@dataclass
class Figure12Result:
    """Runtime series over replication factors."""

    factors: tuple[int, ...]
    seconds: list[float] = field(default_factory=list)
    n_objects: list[int] = field(default_factory=list)

    def ratios(self) -> list[float]:
        """Runtime ratios relative to the N=1 run."""
        base = self.seconds[0] or 1e-9
        return [s / base for s in self.seconds]


def run_figure12(factors: tuple[int, ...] = REPLICATION_FACTORS,
                 m_disks: int = 8,
                 with_indexes: bool = False,
                 method: str = "ts-greedy",
                 jobs: int = 1) -> Figure12Result:
    """Measure TS-GREEDY runtime as the number of objects grows.

    ``with_indexes=False`` keeps the object count equal to the table
    count (8 N objects), matching the paper's description most closely;
    pass True to also replicate the index set.  ``method="portfolio"``
    with ``jobs > 1`` sweeps the parallel multi-start engine instead of
    the single canonical run.
    """
    result = Figure12Result(factors=tuple(factors))
    farm = common.paper_farm(m_disks)
    for n in factors:
        db = tpch.replicated_database(n, with_indexes=with_indexes)
        workload = tpch.tpch88_workload(n)
        telemetry = Telemetry()
        advisor = LayoutAdvisor(db, farm, telemetry=telemetry)
        analyzed = advisor.analyze(workload)
        advisor.recommend(analyzed, method=method, jobs=jobs)
        result.seconds.append(telemetry.find("recommend").duration_s)
        result.n_objects.append(len(db.objects()))
    return result


def main() -> None:
    """Print the experiment's paper-style table."""
    result = run_figure12()
    rows = [[f"N={n}", objects, f"{seconds:.2f}s", f"{ratio:.1f}x"]
            for n, objects, seconds, ratio
            in zip(result.factors, result.n_objects, result.seconds,
                   result.ratios())]
    print(common.format_table(
        ["copies", "objects", "search time", "ratio to N=1"], rows))
    print("\npaper: ~40x at N=6 (quadratic in the number of objects)")


if __name__ == "__main__":
    main()
