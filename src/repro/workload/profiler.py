"""Profiler-trace ingestion.

The paper gathers workloads "using profiling tools available in modern
commercial database systems, e.g., the SQL Server Profiler", and names
"exploiting sequence and execution overlap information in the workload"
as the way to bring concurrency into the model.  This module does both:
it reads a profiler-style trace — one record per executed statement with
start/end timestamps — and derives

* a :class:`~repro.workload.workload.Workload` whose statement weights
  are the statements' multiplicities (identical SQL collapses into one
  weighted statement), and
* a :class:`~repro.workload.concurrency.ConcurrencySpec` whose groups
  are the sets of statements observed running at the same time, with
  the overlap factor estimated from the measured interval overlaps.

Trace format (CSV, header required)::

    start,end,sql
    0.0,4.2,SELECT COUNT(*) FROM big b
    1.0,5.0,"SELECT SUM(m.w) FROM mid m"

Timestamps are seconds (any epoch); quoting per Python's ``csv`` module.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import WorkloadError
from repro.workload.concurrency import ConcurrencySpec
from repro.workload.workload import Workload


@dataclass(frozen=True)
class TraceRecord:
    """One executed statement in a trace."""

    start: float
    end: float
    sql: str

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise WorkloadError(
                f"trace record ends before it starts: {self.sql[:40]!r}")
        if not self.sql.strip():
            raise WorkloadError("trace record has empty SQL")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlap_with(self, other: "TraceRecord") -> float:
        """Seconds the two executions coincide."""
        return max(0.0, min(self.end, other.end)
                   - max(self.start, other.start))


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Parse a CSV trace file into records (in file order)."""
    records: list[TraceRecord] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"start", "end", "sql"}
        if reader.fieldnames is None \
                or not required <= set(reader.fieldnames):
            raise WorkloadError(
                f"trace file needs columns {sorted(required)}")
        for line_number, row in enumerate(reader, start=2):
            try:
                records.append(TraceRecord(start=float(row["start"]),
                                           end=float(row["end"]),
                                           sql=row["sql"]))
            except (TypeError, ValueError) as error:
                raise WorkloadError(
                    f"trace line {line_number}: {error}") from None
    if not records:
        raise WorkloadError("trace file has no records")
    return records


def workload_from_trace(records: Sequence[TraceRecord],
                        name: str = "trace") -> Workload:
    """Collapse a trace into a weighted workload.

    Statements with identical SQL become one workload entry whose
    weight is the execution count — the paper's "weight may indicate
    the multiplicity of that statement in the workload".
    """
    counts: dict[str, int] = {}
    order: list[str] = []
    for record in records:
        sql = record.sql.strip()
        if sql not in counts:
            order.append(sql)
        counts[sql] = counts.get(sql, 0) + 1
    workload = Workload(name=name)
    for index, sql in enumerate(order):
        workload.add(sql, weight=float(counts[sql]),
                     name=f"T{index + 1}")
    return workload


def concurrency_from_trace(records: Sequence[TraceRecord],
                           min_overlap_fraction: float = 0.05
                           ) -> ConcurrencySpec:
    """Derive overlap groups from trace timestamps.

    Two *workload statements* (distinct SQL texts) are grouped when any
    of their executions overlap by at least ``min_overlap_fraction`` of
    the shorter execution.  The spec's overlap factor is the mean
    observed overlap fraction across all overlapping execution pairs —
    a single scalar, matching :class:`ConcurrencySpec`'s model.

    The statement indices in the returned groups refer to the workload
    produced by :func:`workload_from_trace` on the same records.
    """
    if not 0.0 <= min_overlap_fraction <= 1.0:
        raise WorkloadError("min_overlap_fraction must be in [0, 1]")
    index_of: dict[str, int] = {}
    for record in records:
        sql = record.sql.strip()
        if sql not in index_of:
            index_of[sql] = len(index_of)
    pair_fractions: dict[tuple[int, int], list[float]] = {}
    for a, b in itertools.combinations(records, 2):
        overlap = a.overlap_with(b)
        if overlap <= 0:
            continue
        shorter = max(min(a.duration, b.duration), 1e-12)
        fraction = min(1.0, overlap / shorter)
        if fraction < min_overlap_fraction:
            continue
        i, j = index_of[a.sql.strip()], index_of[b.sql.strip()]
        if i == j:
            continue
        pair_fractions.setdefault((min(i, j), max(i, j)),
                                  []).append(fraction)
    if not pair_fractions:
        return ConcurrencySpec((), overlap_factor=1.0)
    groups = [frozenset(pair) for pair in pair_fractions]
    all_fractions = [f for fractions in pair_fractions.values()
                     for f in fractions]
    factor = sum(all_fractions) / len(all_fractions)
    return ConcurrencySpec(tuple(groups),
                           overlap_factor=max(0.01, min(1.0, factor)))


def load_trace(path: str | Path,
               min_overlap_fraction: float = 0.05
               ) -> tuple[Workload, ConcurrencySpec]:
    """One-call ingestion: trace file -> (workload, concurrency spec).

    Feed the results straight into
    ``LayoutAdvisor.recommend(workload, concurrency=spec)``.
    """
    records = read_trace(path)
    return (workload_from_trace(records, name=Path(path).stem),
            concurrency_from_trace(
                records, min_overlap_fraction=min_overlap_fraction))
