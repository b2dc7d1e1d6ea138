"""Workload-level simulation: the library's "actually execute it" path.

Plays an analyzed workload against a materialized layout and reports
simulated elapsed I/O time per statement and in (weighted) total.  This
is the stand-in for the paper's measured SQL Server execution times; the
experiments compare these "actual" numbers against the analytical cost
model's estimates, exactly as the paper compares measurements against
its model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.layout import Layout
from repro.errors import SimulationError
from repro.obs import NULL_TELEMETRY
from repro.optimizer.planner import TEMPDB
from repro.simulator.buffer import BufferPool
from repro.simulator.engine import DiskState, SubplanRun
from repro.storage.disk import DiskSpec
from repro.workload.access import AnalyzedStatement, AnalyzedWorkload


@dataclass
class StatementTiming:
    """Simulated timing of one statement."""

    name: str
    seconds: float
    weight: float

    @property
    def weighted_seconds(self) -> float:
        return self.seconds * self.weight


@dataclass
class SimulationReport:
    """Result of simulating a workload under one layout.

    Attributes:
        statements: Per-statement timings, in workload order.
        buffer_hits: Blocks served from the buffer pool.
        buffer_misses: Blocks that required disk I/O.
    """

    statements: list[StatementTiming] = field(default_factory=list)
    buffer_hits: int = 0
    buffer_misses: int = 0
    #: total busy seconds per farm disk (index-aligned with the farm);
    #: the tempdb drive, if any, is reported separately.
    disk_busy_seconds: list[float] = field(default_factory=list)
    tempdb_busy_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Weighted total simulated I/O time (the paper's metric)."""
        return sum(s.weighted_seconds for s in self.statements)

    def utilization(self) -> list[float]:
        """Per-disk busy fraction of the workload's elapsed time.

        A strongly skewed profile is the signature of a bad layout (one
        hot spindle); flat-and-high means the farm is well used.
        """
        unweighted_elapsed = sum(s.seconds for s in self.statements)
        if unweighted_elapsed <= 0:
            return [0.0 for _ in self.disk_busy_seconds]
        return [busy / unweighted_elapsed
                for busy in self.disk_busy_seconds]

    def seconds_of(self, name: str) -> float:
        """Timing of the named statement."""
        for timing in self.statements:
            if timing.name == name:
                return timing.seconds
        raise SimulationError(f"no statement named {name!r} in report")


class WorkloadSimulator:
    """Simulates workload execution against materialized layouts.

    Args:
        tempdb: Drive dedicated to temp objects (the paper placed tempdb
            on a separate 9th disk); ``None`` ignores temp I/O entirely.
        buffer_blocks: Buffer-pool capacity (default ~150 MB, a plausible
            pool for the paper's 256 MB machine).
        readahead_blocks: Read-ahead unit in blocks (default 2 = 128 KB).
        cold_runs: Clear the buffer pool before every statement, matching
            the paper's "average of three cold runs" methodology.
        telemetry: Optional :class:`repro.obs.Telemetry`; :meth:`run`
            opens one ``simulate-workload`` span and records buffer
            hit/miss gauges, and the engine records coarse ``sim.*``
            counters.
    """

    def __init__(self, tempdb: DiskSpec | None = None,
                 buffer_blocks: int = 2400,
                 readahead_blocks: int = 2,
                 cold_runs: bool = True,
                 telemetry=NULL_TELEMETRY):
        self._tempdb = tempdb
        self._buffer_blocks = buffer_blocks
        self._readahead = readahead_blocks
        self._cold_runs = cold_runs
        self._telemetry = telemetry

    def run(self, workload: AnalyzedWorkload,
            layout: Layout) -> SimulationReport:
        """Simulate the whole workload under ``layout``."""
        with self._telemetry.span("simulate-workload",
                                  statements=len(workload)) as span:
            materialized = layout.materialize()
            placements = {name: list(materialized.logical_blocks(name))
                          for name in materialized.object_names}
            disks = [DiskState(spec) for spec in layout.farm]
            temp_state = DiskState(self._tempdb) if self._tempdb \
                else None
            pool = BufferPool(self._buffer_blocks)
            report = SimulationReport()
            for index, analyzed in enumerate(workload):
                if self._cold_runs:
                    pool.clear()
                name = analyzed.statement.name or f"stmt{index + 1}"
                seconds = self._run_statement(analyzed, placements,
                                              disks, temp_state, pool)
                report.statements.append(StatementTiming(
                    name=name, seconds=seconds,
                    weight=analyzed.statement.weight))
            report.buffer_hits = pool.hits
            report.buffer_misses = pool.misses
            report.disk_busy_seconds = [d.total_busy_s for d in disks]
            if temp_state is not None:
                report.tempdb_busy_seconds = temp_state.total_busy_s
            span.set("simulated_seconds",
                     round(report.total_seconds, 6))
            self._telemetry.set_gauge("sim.buffer_hits", pool.hits)
            self._telemetry.set_gauge("sim.buffer_misses", pool.misses)
        return report

    def run_statement(self, analyzed: AnalyzedStatement,
                      layout: Layout) -> float:
        """Simulate a single statement cold, under ``layout``."""
        materialized = layout.materialize()
        placements = {name: list(materialized.logical_blocks(name))
                      for name in materialized.object_names}
        disks = [DiskState(spec) for spec in layout.farm]
        temp_state = DiskState(self._tempdb) if self._tempdb else None
        return self._run_statement(analyzed, placements, disks,
                                   temp_state, BufferPool(
                                       self._buffer_blocks))

    def _run_statement(self, analyzed: AnalyzedStatement, placements,
                       disks, temp_state, pool: BufferPool) -> float:
        runner = SubplanRun(disks=disks, tempdb=temp_state,
                            readahead_blocks=self._readahead,
                            telemetry=self._telemetry)
        temp_cursor = [0]
        total = 0.0
        for subplan in analyzed.subplans:
            total += runner.run(subplan.accesses, placements, pool,
                                temp_cursor, TEMPDB)
        return total
