"""WK-SCALE: advisor runtime vs workload size.

The paper's Table 1 introduces WK-SCALE(N) — "workloads of increasing
size on TPCH1G", N = 100..3200 queries — as part of the scalability
study, though the published figures only plot disks (Fig. 11) and
objects (Fig. 12).  This experiment completes the third axis: how
analysis (planning + graph building) and search scale with the number
of workload statements.

Expected shape: analysis is linear in N; the search is *sub*-linear
thanks to workload compression (template-generated statements repeat
subplan signatures), approaching flat once the signature set saturates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchdb import scale, tpch
from repro.core.advisor import LayoutAdvisor
from repro.core.costmodel import WorkloadCostEvaluator
from repro.experiments import common
from repro.obs import Telemetry


@dataclass
class WkScaleResult:
    """Per-size timings and compression statistics."""

    sizes: tuple[int, ...]
    analysis_seconds: list[float] = field(default_factory=list)
    search_seconds: list[float] = field(default_factory=list)
    compressed_subplans: list[int] = field(default_factory=list)
    raw_subplans: list[int] = field(default_factory=list)


def run_wkscale(sizes: tuple[int, ...] = (100, 200, 400, 800),
                m_disks: int = 8) -> WkScaleResult:
    """Measure analysis and search time across WK-SCALE sizes."""
    db = tpch.tpch_database()
    farm = common.paper_farm(m_disks)
    result = WkScaleResult(sizes=tuple(sizes))
    for n in sizes:
        workload = scale.wk_scale(n)
        telemetry = Telemetry()
        advisor = LayoutAdvisor(db, farm, telemetry=telemetry)
        analyzed = advisor.analyze(workload)
        result.analysis_seconds.append(
            telemetry.find("analyze-workload").duration_s)
        evaluator = WorkloadCostEvaluator(analyzed, farm,
                                          sorted(db.object_sizes()))
        result.compressed_subplans.append(evaluator.n_subplans)
        result.raw_subplans.append(evaluator.n_compressed_from)
        advisor.recommend(analyzed)
        result.search_seconds.append(
            telemetry.find("recommend").duration_s)
    return result


def main() -> None:
    """Print the WK-SCALE scaling table."""
    result = run_wkscale()
    rows = []
    for n, analysis, search, compressed, raw in zip(
            result.sizes, result.analysis_seconds,
            result.search_seconds, result.compressed_subplans,
            result.raw_subplans):
        rows.append([n, f"{analysis:.2f}s", f"{search:.2f}s",
                     f"{compressed}/{raw}"])
    print(common.format_table(
        ["queries", "analysis", "search", "subplans (unique/raw)"],
        rows))


if __name__ == "__main__":
    main()
