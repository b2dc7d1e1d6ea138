"""Block-level materialization of a database layout.

A layout (the paper's ``x_ij`` fraction matrix) is declarative; this module
turns it into concrete block placement, the way the storage engine would
when objects are assigned to filegroups: each object receives a contiguous
region on every disk that holds a non-zero fraction of it, and the object's
*logical* blocks are dealt out to those regions round-robin in proportion
to the fractions — i.e. striped at block granularity.

The materialized form is what the I/O simulator executes against, and it
is also where capacity violations surface as hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import LayoutError
from repro.storage.disk import DiskFarm


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks belonging to one object on one disk.

    Attributes:
        disk: Farm index of the disk holding the extent.
        start_lba: First block address of the extent on that disk.
        n_blocks: Number of blocks in the extent.
    """

    disk: int
    start_lba: int
    n_blocks: int


def validate_fractions(fractions: Sequence[float],
                       obj: str | None = None,
                       n_disks: int | None = None) -> None:
    """Check one fraction row against Definition 2's row invariants.

    The single home of the full-allocation check: non-negativity plus
    "fractions sum to 1" within :data:`repro.core.tolerance.EPS_FRACTION`.
    Both the materializer (:func:`apportion_blocks`) and the static
    analyzer's layout rules call this, so the two can never disagree on
    what counts as a fully-allocated object.

    Args:
        fractions: Per-disk fractions of one object.
        obj: Object name to include in error messages, when known.
        n_disks: Expected row length (the farm size), when known.

    Raises:
        LayoutError: Naming ``obj`` when given, if the row is malformed.
    """
    # Deferred import: repro.core depends on this module at import time
    # (layout -> allocation), so the tolerance constants are looked up
    # at call time to keep the layering acyclic.
    from repro.core.tolerance import EPS_FRACTION
    label = f"object {obj!r}" if obj is not None else "fraction row"
    if n_disks is not None and len(fractions) != n_disks:
        raise LayoutError(
            f"{label}: expected {n_disks} fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions):
        raise LayoutError(f"{label}: fractions must be non-negative")
    total_fraction = sum(fractions)
    if abs(total_fraction - 1.0) > EPS_FRACTION:
        raise LayoutError(
            f"{label}: fractions must sum to 1 "
            f"(got {total_fraction:.9f})")


def apportion_blocks(total_blocks: int,
                     fractions: Sequence[float],
                     obj: str | None = None) -> list[int]:
    """Split ``total_blocks`` across disks per the given fractions.

    Uses largest-remainder rounding so the per-disk integer counts always
    sum exactly to ``total_blocks`` and every disk with a positive fraction
    of a non-empty object receives at least its rounded share.

    Args:
        total_blocks: Size of the object in blocks.
        fractions: Per-disk fractions; must be non-negative and sum to ~1.
        obj: Object name used in error messages, when known.

    Returns:
        Integer block counts, one per disk, summing to ``total_blocks``.

    Raises:
        LayoutError: If the fractions are negative or do not sum to 1.
    """
    if total_blocks < 0:
        raise LayoutError(
            f"object {obj!r} size cannot be negative" if obj is not None
            else "object size cannot be negative")
    validate_fractions(fractions, obj=obj)
    raw = [f * total_blocks for f in fractions]
    counts = [int(r) for r in raw]
    shortfall = total_blocks - sum(counts)
    # Assign leftover blocks to the largest fractional remainders,
    # breaking ties by disk index for determinism.
    remainders = sorted(range(len(fractions)),
                        key=lambda j: (-(raw[j] - counts[j]), j))
    for j in remainders[:shortfall]:
        counts[j] += 1
    return counts


def proportional_deal(counts: Sequence[int]) -> Iterator[int]:
    """Yield disk indices dealing blocks in proportion to ``counts``.

    This is the striping order: if disk A holds 200 blocks of an object
    and disk B holds 100, the object's logical blocks visit A twice as
    often as B, interleaved as evenly as possible (error-diffusion /
    Bresenham dealing).  Exactly ``counts[j]`` blocks land on disk ``j``.
    """
    remaining = list(counts)
    total = sum(remaining)
    if total == 0:
        return
    # Error-diffusion: each step pick the disk whose achieved share lags
    # its target share the most.
    credit = [0.0] * len(counts)
    weights = [c / total for c in counts]
    for _ in range(total):
        for j, w in enumerate(weights):
            if remaining[j] > 0:
                credit[j] += w
        best = max((j for j in range(len(counts)) if remaining[j] > 0),
                   key=lambda j: (credit[j], -j))
        credit[best] -= 1.0
        remaining[best] -= 1
        yield best


class MaterializedLayout:
    """Concrete block placement of a set of objects on a disk farm.

    Objects are allocated in the order given; each disk maintains an
    allocation cursor so every object's blocks on a given disk form a
    single contiguous :class:`Extent` — the layout's analogue of a file
    in a filegroup.

    Args:
        farm: The available disk drives.
        object_sizes: Mapping from object name to size in blocks.
        fractions: Mapping from object name to its per-disk fraction row
            (length ``len(farm)``).

    Raises:
        LayoutError: On capacity violation or malformed fractions.
    """

    def __init__(self,
                 farm: DiskFarm,
                 object_sizes: Mapping[str, int],
                 fractions: Mapping[str, Sequence[float]]):
        self._farm = farm
        self._extents: dict[str, list[Extent]] = {}
        self._counts: dict[str, list[int]] = {}
        cursors = [0] * len(farm)
        for name, size in object_sizes.items():
            if name not in fractions:
                raise LayoutError(f"no fractions supplied for object {name!r}")
            row = fractions[name]
            validate_fractions(row, obj=name, n_disks=len(farm))
            counts = apportion_blocks(size, row, obj=name)
            self._counts[name] = counts
            extents = []
            for j, n in enumerate(counts):
                if n == 0:
                    continue
                extents.append(Extent(disk=j, start_lba=cursors[j],
                                      n_blocks=n))
                cursors[j] += n
            self._extents[name] = extents
        for j, used in enumerate(cursors):
            if used > farm[j].capacity_blocks:
                raise LayoutError(
                    f"disk {farm[j].name} over capacity: {used} blocks "
                    f"allocated, capacity {farm[j].capacity_blocks}")
        self._fill = cursors

    @property
    def farm(self) -> DiskFarm:
        return self._farm

    @property
    def object_names(self) -> list[str]:
        return list(self._extents)

    def extents(self, name: str) -> list[Extent]:
        """All extents of the named object, one per disk that holds it."""
        self._require(name)
        return list(self._extents[name])

    def block_counts(self, name: str) -> list[int]:
        """Per-disk block counts of the named object."""
        self._require(name)
        return list(self._counts[name])

    def disks_of(self, name: str) -> list[int]:
        """Farm indices of the disks that hold at least one block."""
        self._require(name)
        return [e.disk for e in self._extents[name]]

    def disk_fill(self, disk: int) -> int:
        """Total blocks allocated on the given disk."""
        return self._fill[disk]

    def logical_blocks(self, name: str) -> Iterator[tuple[int, int]]:
        """Yield ``(disk, lba)`` for each logical block, in logical order.

        Logical block *b* of a striped object lands on the disks in
        fraction-proportional round-robin order; within a disk, blocks
        fill that disk's extent sequentially.  Iterating this generator
        therefore reproduces the physical access pattern of a full
        sequential scan of the object.
        """
        self._require(name)
        offsets = {e.disk: e.start_lba for e in self._extents[name]}
        for disk in proportional_deal(self._counts[name]):
            lba = offsets[disk]
            offsets[disk] = lba + 1
            yield disk, lba

    def _require(self, name: str) -> None:
        if name not in self._extents:
            raise LayoutError(f"object {name!r} was not materialized")
