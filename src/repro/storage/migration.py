"""Migration planning: turning a ``(current, target)`` layout pair into
an ordered, capacity-safe sequence of block moves.

A layout recommendation is only half the story — the DBA still has to
*get there*.  This module converts the difference between two valid
layouts into a :class:`MigrationPlan` of per-object, per-disk moves such
that no disk ever exceeds its capacity at any intermediate step.

Ordering works like a topological sort over freed space: a move is
*executable* when its destination disk currently has room for the
blocks; executing it frees space on the source, which can unblock
further moves.  When every pending move is blocked (a cycle of full
disks), the planner falls back to *temporary staging*: part of one
blocked move is parked on any disk with free space, breaking the cycle,
and forwarded to its real destination once room opens up.  Staged
blocks are counted separately — they move twice.

Per-move time estimates come from the paper's Fig. 7 transfer model:
one average seek on each participating disk plus the sequential
transfer time at the source's read rate and the destination's
(availability-penalized) write rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import LayoutError
from repro.obs import NULL_TELEMETRY
from repro.storage.disk import DiskFarm

if TYPE_CHECKING:
    from repro.core.layout import Layout

# repro.storage is a lower layer than repro.core (core imports storage),
# so the shared capacity tolerance cannot be imported at module load;
# mirror repro.core.tolerance.EPS_CAPACITY here (test-asserted equal).
EPS_CAPACITY = 1e-9  # repro: noqa RPC401 -- layering: storage cannot import core/tolerance; mirrored value is test-asserted equal

#: Block deltas below this are treated as zero (float-fraction noise).
EPS_BLOCKS = 1e-6  # repro: noqa RPC401 -- storage-local rounding unit (block-count noise floor), not a core tolerance


@dataclass(frozen=True)
class MigrationStep:
    """One move: ``blocks`` of ``obj`` from disk ``src`` to disk ``dst``.

    Attributes:
        obj: The database object being (partially) moved.
        src: Farm index of the source disk.
        dst: Farm index of the destination disk.
        blocks: Blocks transferred by this step.
        est_seconds: Estimated wall time of the step (Fig. 7 transfer
            model: seek on both disks + read at the source's rate +
            write at the destination's penalized rate).
        staged: ``True`` when the destination is a temporary staging
            disk rather than the blocks' final home.
    """

    obj: str
    src: int
    dst: int
    blocks: float
    est_seconds: float
    staged: bool = False

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "obj": self.obj, "src": self.src, "dst": self.dst,
            "blocks": float(self.blocks),
            "est_seconds": float(self.est_seconds)}
        if self.staged:
            out["staged"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MigrationStep":
        """Inverse of :meth:`to_dict`."""
        return cls(obj=str(data["obj"]), src=int(data["src"]),
                   dst=int(data["dst"]), blocks=float(data["blocks"]),
                   est_seconds=float(data["est_seconds"]),
                   staged=bool(data.get("staged", False)))


@dataclass
class MigrationPlan:
    """An ordered, capacity-safe realization of a layout change.

    Attributes:
        steps: The moves, in execution order.
        moved_blocks: Net blocks that change disks (equals
            ``current.data_movement_blocks(target)`` up to float noise).
        staged_blocks: Blocks that had to be parked on a staging disk
            first (these transfer twice; 0 in the common case).
        est_seconds: Total estimated migration wall time, assuming the
            steps run sequentially.
        moved_fraction: ``moved_blocks`` over the database's total
            blocks.
        run_id: Flight-recorder run identifier of the run that produced
            the plan, when saved with provenance (see
            :func:`repro.catalog.io.save_migration_plan`).
    """

    steps: list[MigrationStep] = field(default_factory=list)
    moved_blocks: float = 0.0
    staged_blocks: float = 0.0
    est_seconds: float = 0.0
    moved_fraction: float = 0.0
    run_id: str | None = None

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse: :meth:`from_dict`)."""
        out: dict[str, Any] = {
            "steps": [s.to_dict() for s in self.steps],
            "moved_blocks": float(self.moved_blocks),
            "staged_blocks": float(self.staged_blocks),
            "est_seconds": float(self.est_seconds),
            "moved_fraction": float(self.moved_fraction),
        }
        if self.run_id:
            out["run_id"] = str(self.run_id)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MigrationPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        run_id = data.get("run_id")
        return cls(
            steps=[MigrationStep.from_dict(s)
                   for s in data.get("steps", ())],
            moved_blocks=float(data["moved_blocks"]),
            staged_blocks=float(data.get("staged_blocks", 0.0)),
            est_seconds=float(data["est_seconds"]),
            moved_fraction=float(data.get("moved_fraction", 0.0)),
            run_id=str(run_id) if run_id else None)

    def is_capacity_safe(self, current: "Layout") -> bool:
        """Whether no disk overflows at any point while executing.

        Replays the steps against the ``current`` layout's per-disk
        usage, checking each destination *before* the step lands.
        """
        farm = current.farm
        used = [current.disk_used_blocks(j) for j in range(len(farm))]
        for step in self.steps:
            if used[step.dst] + step.blocks \
                    > farm[step.dst].capacity_blocks + EPS_CAPACITY:
                return False
            used[step.dst] += step.blocks
            used[step.src] -= step.blocks
        return True


def _step_seconds(farm: DiskFarm, src: int, dst: int,
                  blocks: float) -> float:
    """Fig.-7-style move time: seeks plus read/write transfers."""
    return (farm[src].avg_seek_s + farm[dst].avg_seek_s
            + blocks / farm[src].read_blocks_s
            + blocks / farm[dst].write_blocks_s)


def _object_transfers(current: "Layout", target: "Layout",
                      ) -> list[list[float]]:
    """Per-object (src, dst, blocks) demands, deterministically matched.

    For each object, disks losing blocks (outflows) are paired with
    disks gaining blocks (inflows) in ascending disk order — the
    classic transportation matching, kept deterministic so plans are
    reproducible.
    """
    transfers: list[list[float]] = []
    for name in current.object_names:
        size = current.size_of(name)
        row_now = current.fractions_of(name)
        row_new = target.fractions_of(name)
        outflows = [[j, size * (row_now[j] - row_new[j])]
                    for j in range(len(row_now))
                    if size * (row_now[j] - row_new[j]) > EPS_BLOCKS]
        inflows = [[j, size * (row_new[j] - row_now[j])]
                   for j in range(len(row_now))
                   if size * (row_new[j] - row_now[j]) > EPS_BLOCKS]
        oi = ii = 0
        while oi < len(outflows) and ii < len(inflows):
            src, available = outflows[oi]
            dst, needed = inflows[ii]
            amount = min(available, needed)
            transfers.append([name, src, dst, amount])
            outflows[oi][1] -= amount
            inflows[ii][1] -= amount
            if outflows[oi][1] <= EPS_BLOCKS:
                oi += 1
            if inflows[ii][1] <= EPS_BLOCKS:
                ii += 1
    return transfers


def plan_migration(current: "Layout", target: "Layout",
                   telemetry=NULL_TELEMETRY) -> MigrationPlan:
    """Build a capacity-safe ordered migration plan between two layouts.

    Args:
        current: The layout the data is in now.
        target: The layout the advisor recommended.
        telemetry: Optional :class:`repro.obs.Telemetry`; opens one
            ``plan-migration`` span, records
            ``incremental.migration_steps`` /
            ``incremental.staged_blocks`` / ``incremental.moved_blocks``,
            and emits one ``migration-plan`` summary event plus one
            ``migration-step`` event per planned move.

    Returns:
        A :class:`MigrationPlan` whose steps never overflow any disk at
        any intermediate point (verifiable via
        :meth:`MigrationPlan.is_capacity_safe`).

    Raises:
        LayoutError: If the layouts cover different objects/farms, or no
            disk has any free space to stage through when every pending
            move is blocked (migration is then impossible without a
            scratch disk).
    """
    farm = current.farm
    if len(target.farm) != len(farm):
        raise LayoutError("cannot plan a migration across different "
                          "disk farms")
    with telemetry.span("plan-migration") as span:
        # data_movement_blocks also validates the object sets match.
        net_moved = current.data_movement_blocks(target)
        pending = _object_transfers(current, target)
        free = [farm[j].capacity_blocks - current.disk_used_blocks(j)
                for j in range(len(farm))]
        steps: list[MigrationStep] = []
        staged_total = 0.0
        # Each round either executes (part of) a pending move into real
        # free space or stages one to break a full-disk cycle; both
        # strictly shrink the pending volume or strictly advance staged
        # blocks toward their destination, so the loop terminates.  The
        # cap is a defense against float-noise livelock only.
        max_rounds = 4 * (len(pending) + 1) * (len(farm) + 1)
        for _ in range(max_rounds):
            if not pending:
                break
            progressed = False
            # Full moves first (fewest steps), then partial moves.
            for entry in pending:
                name, src, dst, blocks = entry
                if free[dst] + EPS_CAPACITY >= blocks:
                    steps.append(MigrationStep(
                        name, src, dst, blocks,
                        _step_seconds(farm, src, dst, blocks)))
                    free[dst] -= blocks
                    free[src] += blocks
                    pending.remove(entry)
                    progressed = True
                    break
            if progressed:
                continue
            for entry in pending:
                name, src, dst, blocks = entry
                amount = min(blocks, free[dst])
                if amount > EPS_BLOCKS:
                    steps.append(MigrationStep(
                        name, src, dst, amount,
                        _step_seconds(farm, src, dst, amount)))
                    free[dst] -= amount
                    free[src] += amount
                    entry[3] -= amount
                    progressed = True
                    break
            if progressed:
                continue
            # Every destination is full: stage part of the first pending
            # move on any disk with room, and forward it later.
            name, src, dst, blocks = pending[0]
            stage = max(range(len(farm)), key=lambda j: free[j])
            amount = min(blocks, free[stage])
            if amount <= EPS_BLOCKS:
                raise LayoutError(
                    "migration is blocked: every disk is full, nothing "
                    "can be staged (add a scratch disk or loosen the "
                    "target layout)")
            steps.append(MigrationStep(
                name, src, stage, amount,
                _step_seconds(farm, src, stage, amount),
                staged=True))
            free[stage] -= amount
            free[src] += amount
            staged_total += amount
            pending[0][3] -= amount
            if pending[0][3] <= EPS_BLOCKS:
                pending.pop(0)
            pending.append([name, stage, dst, amount])
        else:
            raise LayoutError(
                "migration planner failed to converge (float-noise "
                "livelock); this is a bug")
        total_blocks = sum(current.object_sizes.values())
        plan = MigrationPlan(
            steps=steps,
            moved_blocks=net_moved,
            staged_blocks=staged_total,
            est_seconds=sum(s.est_seconds for s in steps),
            moved_fraction=net_moved / total_blocks if total_blocks
            else 0.0)
        span.set("steps", len(steps))
        span.set("moved_blocks", round(net_moved, 3))
        span.set("staged_blocks", round(staged_total, 3))
        telemetry.inc("incremental.migration_steps", len(steps))
        telemetry.set_gauge("incremental.moved_blocks", net_moved)
        telemetry.set_gauge("incremental.staged_blocks", staged_total)
        telemetry.emit("migration-plan", steps=len(steps),
                       moved_blocks=round(float(net_moved), 3),
                       staged_blocks=round(float(staged_total), 3),
                       est_seconds=round(float(plan.est_seconds), 6))
        for index, step in enumerate(steps):
            telemetry.emit("migration-step", step=index,
                           obj=step.obj, src=step.src, dst=step.dst,
                           blocks=round(float(step.blocks), 3),
                           staged=step.staged)
    return plan
