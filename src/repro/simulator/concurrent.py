"""Concurrent-execution simulation.

Extends the simulator to play statements *simultaneously*, which the
sequential measurement path cannot: each statement in a concurrency
group becomes a session; each session's block requests (its subplans'
interleaved streams, in order) are merged round-robin across sessions —
the disk-level picture of several queries in flight — and executed on
the shared drives.  The group's elapsed time is the busiest disk's
total; per-session times are the paper's response-time analogue under
contention.

This is the measurement counterpart of
:mod:`repro.workload.concurrency`: the advisor's concurrency-aware
layouts can be validated against simulated concurrent execution, not
just the analytical expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.layout import Layout
from repro.errors import SimulationError
from repro.optimizer.planner import TEMPDB
from repro.simulator.buffer import BufferPool
from repro.simulator.engine import DiskState, SubplanRun, _Stream
from repro.simulator.measure import StatementTiming, WorkloadSimulator
from repro.storage.allocation import proportional_deal
from repro.storage.disk import BLOCK_BYTES
from repro.storage.executor import FarmState
from repro.storage.migration import EPS_BLOCKS
from repro.workload.access import AnalyzedWorkload
from repro.workload.concurrency import ConcurrencySpec


@dataclass
class ConcurrentReport:
    """Result of a concurrent simulation run.

    Attributes:
        group_seconds: Elapsed wall time per concurrency group, in
            group order.
        solo_statements: Timings of statements outside every group
            (executed sequentially, cold).
    """

    group_seconds: list[float] = field(default_factory=list)
    solo_statements: list[StatementTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total elapsed time: groups serialized, solos sequential."""
        return sum(self.group_seconds) \
            + sum(t.weighted_seconds for t in self.solo_statements)


class ConcurrentWorkloadSimulator(WorkloadSimulator):
    """A :class:`WorkloadSimulator` that can overlap statements.

    Statements inside a :class:`ConcurrencySpec` group run together;
    statements outside every group run sequentially as usual.
    """

    def run_concurrent(self, workload: AnalyzedWorkload, layout: Layout,
                       spec: ConcurrencySpec) -> ConcurrentReport:
        """Simulate the workload with the given overlap structure."""
        materialized = layout.materialize()
        placements = {name: list(materialized.logical_blocks(name))
                      for name in materialized.object_names}
        disks = [DiskState(s) for s in layout.farm]
        temp_state = DiskState(self._tempdb) if self._tempdb else None
        pool = BufferPool(self._buffer_blocks)
        report = ConcurrentReport()
        grouped: set[int] = set()
        statements = workload.statements
        for group in spec.groups:
            members = sorted(group)
            if any(index >= len(statements) for index in members):
                raise SimulationError(
                    "concurrency group references a missing statement")
            grouped.update(members)
            if self._cold_runs:
                pool.clear()
            report.group_seconds.append(self._run_group(
                [statements[index] for index in members], placements,
                disks, temp_state, pool))
        for index, analyzed in enumerate(statements):
            if index in grouped:
                continue
            if self._cold_runs:
                pool.clear()
            seconds = self._run_statement(analyzed, placements, disks,
                                          temp_state, pool)
            report.solo_statements.append(StatementTiming(
                name=analyzed.statement.name or f"stmt{index + 1}",
                seconds=seconds, weight=analyzed.statement.weight))
        return report

    def _run_group(self, members, placements, disks, temp_state,
                   pool: BufferPool) -> float:
        """Execute one group's sessions merged at the request level."""
        elapsed = self._group_elapsed(members, placements, disks,
                                      temp_state, pool)
        return max(elapsed.values(), default=0.0)

    def _group_elapsed(self, members, placements, disks, temp_state,
                       pool: BufferPool) -> dict[int, float]:
        """Per-disk elapsed seconds of one merged session group."""
        runner = SubplanRun(disks=disks, tempdb=temp_state,
                            readahead_blocks=self._readahead)
        sessions: list[list[tuple[_Stream, int]]] = []
        for analyzed in members:
            temp_cursor = [0]
            requests: list[tuple[_Stream, int]] = []
            for subplan in analyzed.subplans:
                streams = runner._expand(subplan.accesses, placements,
                                         temp_cursor, TEMPDB)
                if not streams:
                    continue
                chunk = self._readahead
                counts = [max(1, -(-len(s.indices) // chunk))
                          for s in streams]
                cursors = [0] * len(streams)
                for which in proportional_deal(counts):
                    stream = streams[which]
                    start = cursors[which] * chunk
                    cursors[which] += 1
                    for index in stream.indices[start:start + chunk]:
                        requests.append((stream, index))
            sessions.append(requests)
        elapsed: dict[int, float] = {}
        session_cursors = [0] * len(sessions)
        # Merge sessions round-robin in proportion to their lengths —
        # the same dealing discipline used for streams within a subplan.
        for which in proportional_deal([len(s) for s in sessions]):
            stream, index = sessions[which][session_cursors[which]]
            session_cursors[which] += 1
            runner._request(stream, index, placements, pool, elapsed)
        return elapsed


@dataclass
class MigrationWindow:
    """One foreground-workload pass executed while migration traffic
    shares the disks.

    Attributes:
        index: Window number, from 0.
        foreground_s: Elapsed time of the foreground pass in this
            window (busiest disk, migration charges included).
        migration_blocks: Blocks the migration transferred during the
            window.
    """

    index: int
    foreground_s: float
    migration_blocks: float


@dataclass
class OnlineMigrationReport:
    """Live-traffic impact of executing a migration plan.

    Attributes:
        baseline_s: One foreground pass on the source layout with no
            migration running (the "before" response time).
        target_s: One foreground pass on the target layout (the
            "after" response time the migration buys).
        windows: Per-window foreground timings while migrating.
        throttle_mb_s: The migration bandwidth cap, or ``None`` for
            unthrottled.
    """

    baseline_s: float
    target_s: float
    windows: list[MigrationWindow] = field(default_factory=list)
    throttle_mb_s: float | None = None

    @property
    def degradation(self) -> list[float]:
        """Per-window foreground slowdown factor (1.0 = no impact)."""
        if self.baseline_s <= 0:
            return [1.0 for _ in self.windows]
        return [w.foreground_s / self.baseline_s for w in self.windows]

    @property
    def mean_degradation(self) -> float:
        factors = self.degradation
        return sum(factors) / len(factors) if factors else 1.0

    @property
    def peak_degradation(self) -> float:
        return max(self.degradation, default=1.0)

    @property
    def overhead_s(self) -> float:
        """Total extra foreground seconds the migration cost."""
        return sum(max(0.0, w.foreground_s - self.baseline_s)
                   for w in self.windows)

    @property
    def per_pass_saving_s(self) -> float:
        """Seconds each post-migration pass is faster than baseline."""
        return self.baseline_s - self.target_s

    @property
    def time_to_benefit_s(self) -> float | None:
        """Post-migration seconds until the overhead is repaid.

        The migration cost ``overhead_s`` of foreground slowdown; each
        pass on the target layout then saves ``per_pass_saving_s``.
        ``None`` when the target is no faster (the migration never
        pays back on this workload).
        """
        saving = self.per_pass_saving_s
        if saving <= 0.0:
            return None
        return self.overhead_s / saving * self.target_s


class OnlineMigrationSimulator(ConcurrentWorkloadSimulator):
    """Interleaves migration transfers with a live foreground workload.

    The foreground workload runs as one concurrent session group per
    window (every statement a session, the live-traffic picture);
    migration transfer time is charged onto the participating disks'
    busy time during the window.  Two documented simplifications keep
    the model tractable: the foreground reads the *source* placements
    for the whole migration (block-level forwarding is below this
    simulator's resolution), and migration transfers charge the
    spec-level seek + sequential rate rather than walking the disk-head
    model.
    """

    def run_online(self, workload: AnalyzedWorkload, source: Layout,
                   plan, target: Layout | None = None,
                   throttle_mb_s: float | None = None,
                   max_windows: int = 64) -> OnlineMigrationReport:
        """Execute ``plan``'s transfers under live traffic.

        Args:
            workload: The foreground workload (one pass per window).
            source: The layout the data starts in.
            plan: The :class:`~repro.storage.migration.MigrationPlan`
                being executed.
            target: The post-migration layout; derived from
                ``source + plan`` when omitted.
            throttle_mb_s: Migration bandwidth cap; each window's
                transfer budget is this rate sustained for one
                baseline pass.  ``None`` moves everything in the first
                window.
            max_windows: Guard against a throttle so low the migration
                never finishes.

        Raises:
            SimulationError: When the throttle cannot finish within
                ``max_windows`` windows, or a throttle is given for a
                workload with no foreground I/O.
        """
        if target is None:
            state = FarmState.from_layout(source)
            for step in plan.steps:
                state.apply(step.obj, step.src, step.dst,
                            float(step.blocks))
            target = state.to_layout()
        with self._telemetry.span("simulate-online-migration") as span:
            baseline_s = self._solo_pass(workload, source)
            target_s = self._solo_pass(workload, target)
            if throttle_mb_s is not None and baseline_s <= 0:
                raise SimulationError(
                    "cannot throttle a migration against a workload "
                    "with no foreground I/O")
            budget = None
            if throttle_mb_s is not None:
                budget = throttle_mb_s * (1024 * 1024 / BLOCK_BYTES) \
                    * baseline_s
            farm = source.farm
            materialized = source.materialize()
            placements = {name: list(materialized.logical_blocks(name))
                          for name in materialized.object_names}
            disks = [DiskState(s) for s in farm]
            temp_state = DiskState(self._tempdb) if self._tempdb \
                else None
            pool = BufferPool(self._buffer_blocks)
            remaining = [[step.src, step.dst, float(step.blocks)]
                         for step in plan.steps
                         if float(step.blocks) > EPS_BLOCKS]
            report = OnlineMigrationReport(
                baseline_s=baseline_s, target_s=target_s,
                throttle_mb_s=throttle_mb_s)
            statements = list(workload.statements)
            while remaining:
                window = len(report.windows)
                if window >= max_windows:
                    raise SimulationError(
                        f"migration did not finish within "
                        f"{max_windows} workload windows; the "
                        f"throttle ({throttle_mb_s} MB/s) is too low "
                        f"for this plan")
                if self._cold_runs:
                    pool.clear()
                elapsed = self._group_elapsed(
                    statements, placements, disks, temp_state, pool)
                moved = 0.0
                while remaining and (budget is None
                                     or moved + EPS_BLOCKS < budget):
                    src, dst, blocks = remaining[0]
                    amount = blocks if budget is None \
                        else min(blocks, budget - moved)
                    elapsed[src] = elapsed.get(src, 0.0) \
                        + farm[src].avg_seek_s \
                        + amount / farm[src].read_blocks_s
                    elapsed[dst] = elapsed.get(dst, 0.0) \
                        + farm[dst].avg_seek_s \
                        + amount / farm[dst].write_blocks_s
                    moved += amount
                    if amount + EPS_BLOCKS >= blocks:
                        remaining.pop(0)
                    else:
                        remaining[0][2] = blocks - amount
                foreground_s = max(elapsed.values(), default=0.0)
                report.windows.append(MigrationWindow(
                    index=window, foreground_s=foreground_s,
                    migration_blocks=moved))
                self._telemetry.emit(
                    "migration-window", window=window,
                    foreground_s=round(foreground_s, 6),
                    baseline_s=round(baseline_s, 6),
                    migration_blocks=round(moved, 3))
            span.set("windows", len(report.windows))
            span.set("mean_degradation",
                     round(report.mean_degradation, 6))
            self._telemetry.set_gauge("migration.windows",
                                      len(report.windows))
            self._telemetry.set_gauge("migration.foreground_degradation",
                                      report.mean_degradation)
            benefit = report.time_to_benefit_s
            if benefit is not None:
                self._telemetry.set_gauge("migration.time_to_benefit_s",
                                          benefit)
        return report

    def _solo_pass(self, workload: AnalyzedWorkload,
                   layout: Layout) -> float:
        """One concurrent foreground pass with no migration traffic."""
        materialized = layout.materialize()
        placements = {name: list(materialized.logical_blocks(name))
                      for name in materialized.object_names}
        disks = [DiskState(s) for s in layout.farm]
        temp_state = DiskState(self._tempdb) if self._tempdb else None
        pool = BufferPool(self._buffer_blocks)
        return self._run_group(list(workload.statements), placements,
                               disks, temp_state, pool)
