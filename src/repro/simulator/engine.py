"""Per-disk execution engine.

A statement executes subplan by subplan (blocking operators serialize
subplans); within a subplan, every stored-object access is a *stream* of
block requests, streams are interleaved in proportion to their lengths
(the access pattern of merge joins, index-lookup pipelines and friends),
and each disk services its requests in arrival order.  The subplan's
elapsed time is the busiest disk's time — the same "last disk to finish"
semantics the analytical model uses, but with positional seeks, read-
ahead coalescing and buffer hits.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError
from repro.obs import NULL_TELEMETRY
from repro.optimizer.operators import ObjectAccess
from repro.simulator.buffer import BufferPool
from repro.simulator.geometry import SeekModel
from repro.storage.allocation import proportional_deal
from repro.storage.disk import DiskSpec


class DiskState:
    """Mutable run state of one drive: head position and seek model."""

    def __init__(self, spec: DiskSpec):
        self.spec = spec
        self.seek = SeekModel.for_disk(spec)
        self.head_lba = 0
        self.total_busy_s = 0.0

    def service_seconds(self, lba: int, write: bool) -> float:
        """Service one block request; advances the head; returns time."""
        seconds = self.seek.seek_seconds(self.head_lba, lba) \
            + 1.0 / self.spec.transfer_blocks_s(write=write)
        self.head_lba = lba + 1
        self.total_busy_s += seconds
        return seconds


def _scatter_indices(object_name: str, size: int, count: int) -> list[int]:
    """Deterministic scattered block indices for a random-access stream.

    ``count`` indices spread evenly over ``[0, size)`` and then visited
    in a seeded shuffled order, so distinct runs are reproducible while
    still exercising distance-dependent seeks.
    """
    if size <= 0 or count <= 0:
        return []
    count = min(count, size)
    stride = size / count
    indices = [min(size - 1, int(i * stride + stride / 2))
               for i in range(count)]
    # Fisher-Yates with a seed derived from the object identity.
    seed = zlib.crc32(f"{object_name}:{count}".encode())
    state = seed or 1
    for i in range(count - 1, 0, -1):
        state = (1103515245 * state + 12345) % (1 << 31)
        j = state % (i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    return indices


@dataclass
class _Stream:
    """One object access expanded into concrete logical block indices."""

    object_name: str
    indices: list[int]
    write: bool
    is_temp: bool = False


@dataclass
class SubplanRun:
    """Executes one non-blocking subplan's streams against the disks.

    Args:
        disks: Per-farm-index drive states (shared across subplans so
            head positions persist).
        tempdb: Optional dedicated temp drive state.
        readahead_blocks: Streams are interleaved in units of this many
            consecutive blocks — the drive-level read-ahead that makes
            real seek counts lower than the model's per-block estimate.
        telemetry: Optional :class:`repro.obs.Telemetry`; records
            coarse ``sim.*`` counters (per subplan, never per block).
    """

    disks: Sequence[DiskState]
    tempdb: DiskState | None
    readahead_blocks: int = 2
    telemetry: object = NULL_TELEMETRY

    def run(self, accesses: Sequence[ObjectAccess],
            placements: dict[str, list[tuple[int, int]]],
            pool: BufferPool, temp_cursor: list[int],
            temp_name: str) -> float:
        """Execute the subplan; returns its elapsed (busiest-disk) time."""
        if self.readahead_blocks < 1:
            raise SimulationError("readahead must be at least one block")
        streams = self._expand(accesses, placements, temp_cursor,
                               temp_name)
        self.telemetry.inc("sim.subplans")
        self.telemetry.inc("sim.streams", len(streams))
        self.telemetry.inc("sim.blocks",
                           sum(len(s.indices) for s in streams))
        if not streams:
            return 0.0
        elapsed: dict[int, float] = {}
        chunk = self.readahead_blocks
        unit_counts = [max(1, -(-len(s.indices) // chunk))
                       for s in streams]
        cursors = [0] * len(streams)
        for which in proportional_deal(unit_counts):
            stream = streams[which]
            start = cursors[which] * chunk
            cursors[which] += 1
            for index in stream.indices[start:start + chunk]:
                self._request(stream, index, placements, pool, elapsed)
        return max(elapsed.values(), default=0.0)

    def _expand(self, accesses, placements, temp_cursor,
                temp_name) -> list[_Stream]:
        streams = []
        for access in accesses:
            count = int(access.blocks + 0.5)
            if count <= 0:
                continue
            if access.object_name == temp_name:
                if self.tempdb is None:
                    continue
                start = temp_cursor[0]
                if access.write:
                    temp_cursor[0] += count
                indices = list(range(start, start + count)) if access.write \
                    else list(range(max(0, start - count), start))
                streams.append(_Stream(temp_name, indices, access.write,
                                       is_temp=True))
                continue
            placement = placements.get(access.object_name)
            if placement is None:
                raise SimulationError(
                    f"object {access.object_name!r} is not materialized")
            size = len(placement)
            if access.sequential:
                indices = [i % size for i in range(count)]
            else:
                indices = _scatter_indices(access.object_name, size, count)
            streams.append(_Stream(access.object_name, indices,
                                   access.write))
        return streams

    def _request(self, stream: _Stream, index: int, placements,
                 pool: BufferPool, elapsed: dict[int, float]) -> None:
        if stream.is_temp:
            assert self.tempdb is not None
            seconds = self.tempdb.service_seconds(index % max(
                1, self.tempdb.spec.capacity_blocks), stream.write)
            elapsed[-1] = elapsed.get(-1, 0.0) + seconds
            return
        if not stream.write and pool.access(stream.object_name, index):
            return
        if stream.write:
            pool.access(stream.object_name, index)  # write-through fill
        disk, lba = placements[stream.object_name][index]
        seconds = self.disks[disk].service_seconds(lba, stream.write)
        elapsed[disk] = elapsed.get(disk, 0.0) + seconds
