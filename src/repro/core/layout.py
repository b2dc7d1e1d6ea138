"""Database layout: the paper's ``x_ij`` fraction matrix.

Definition 1: *a database layout is an assignment of each database object
to a set of disk drives along with a specification of the fraction of the
object that is allocated to each disk drive.*

Definition 2 (validity): every fraction is non-negative, every object's
fractions sum to 1, and no disk's capacity is exceeded.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.catalog.schema import Database
from repro.core.tolerance import EPS_CAPACITY, EPS_FRACTION, EPS_ZERO
from repro.errors import LayoutError
from repro.storage.allocation import MaterializedLayout
from repro.storage.disk import DiskFarm


def stripe_fractions(disks: Iterable[int], farm: DiskFarm,
                     rate_proportional: bool = True) -> tuple[float, ...]:
    """A fraction row striping an object over the given disks.

    Args:
        disks: Farm indices of the target disks.
        farm: The disk farm (supplies rates and width of the row).
        rate_proportional: Allocate in proportion to each disk's read
            transfer rate (the paper's footnote-1 convention, also used
            by TS-GREEDY's step 6); otherwise allocate evenly.

    Raises:
        LayoutError: If the disk set is empty or out of range.
    """
    disk_set = sorted(set(disks))
    if not disk_set:
        raise LayoutError("cannot stripe over an empty disk set")
    if disk_set[0] < 0 or disk_set[-1] >= len(farm):
        raise LayoutError(f"disk index out of range: {disk_set}")
    row = [0.0] * len(farm)
    if rate_proportional:
        # Accumulated one disk at a time in ascending order (not with
        # sum(), which is compensated from Python 3.12): TS-GREEDY's
        # array frontier reproduces exactly this order.
        total_rate = 0.0
        for j in disk_set:
            total_rate += farm[j].read_mb_s
        for j in disk_set:
            row[j] = farm[j].read_mb_s / total_rate
    else:
        for j in disk_set:
            row[j] = 1.0 / len(disk_set)
    return tuple(row)


class Layout:
    """An immutable valid database layout.

    Args:
        farm: The available disk drives ``{D_1 … D_m}``.
        object_sizes: Mapping from object name to size in blocks
            (``|R_i|``); fixes the row set of the matrix.
        fractions: Mapping from object name to its per-disk fraction row.
        check_capacity: Verify Definition 2's capacity constraint (can be
            disabled for deliberately-invalid test fixtures).

    Raises:
        LayoutError: If the layout violates Definition 2.
    """

    def __init__(self, farm: DiskFarm,
                 object_sizes: Mapping[str, int],
                 fractions: Mapping[str, Sequence[float]],
                 check_capacity: bool = True):
        self._farm = farm
        self._sizes = dict(object_sizes)
        self._fractions: dict[str, tuple[float, ...]] = {}
        for name in self._sizes:
            if name not in fractions:
                raise LayoutError(f"object {name!r} has no fraction row")
            row = tuple(float(f) for f in fractions[name])
            if len(row) != len(farm):
                raise LayoutError(
                    f"object {name!r}: row length {len(row)} != "
                    f"{len(farm)} disks")
            if any(f < -EPS_ZERO for f in row):
                raise LayoutError(f"object {name!r}: negative fraction")
            total = sum(row)
            if abs(total - 1.0) > EPS_FRACTION:
                raise LayoutError(
                    f"object {name!r}: fractions sum to {total:.9f}, not 1")
            self._fractions[name] = row
        extra = set(fractions) - set(self._sizes)
        if extra:
            raise LayoutError(f"fraction rows for unknown objects: "
                              f"{sorted(extra)}")
        if check_capacity:
            self._check_capacity()

    def _check_capacity(self) -> None:
        for j, disk in enumerate(self._farm):
            used = sum(self._sizes[name] * row[j]
                       for name, row in self._fractions.items())
            if used > disk.capacity_blocks + EPS_CAPACITY:
                raise LayoutError(
                    f"disk {disk.name} over capacity: {used:.0f} blocks "
                    f"needed, {disk.capacity_blocks} available")

    # -- accessors ---------------------------------------------------------------

    @property
    def farm(self) -> DiskFarm:
        return self._farm

    @property
    def object_names(self) -> tuple[str, ...]:
        return tuple(self._fractions)

    @property
    def object_sizes(self) -> dict[str, int]:
        return dict(self._sizes)

    def size_of(self, name: str) -> int:
        """Size ``|R_i|`` in blocks of one object."""
        self._require(name)
        return self._sizes[name]

    def fractions_of(self, name: str) -> tuple[float, ...]:
        """The fraction row ``x_i*`` for one object."""
        self._require(name)
        return self._fractions[name]

    def fraction(self, name: str, disk: int) -> float:
        """One matrix cell ``x_ij``."""
        return self.fractions_of(name)[disk]

    def disks_of(self, name: str) -> tuple[int, ...]:
        """Farm indices of disks holding a positive fraction of object."""
        return tuple(j for j, f in enumerate(self.fractions_of(name))
                     if f > EPS_ZERO)

    def disk_used_blocks(self, disk: int) -> float:
        """Blocks allocated on one disk by this layout."""
        return sum(self._sizes[name] * row[disk]
                   for name, row in self._fractions.items())

    # -- derived layouts -----------------------------------------------------------

    def with_fractions(self, name: str,
                       row: Sequence[float],
                       check_capacity: bool = True) -> "Layout":
        """A new layout with one object's fraction row replaced."""
        self._require(name)
        fractions = dict(self._fractions)
        fractions[name] = tuple(row)
        return Layout(self._farm, self._sizes, fractions,
                      check_capacity=check_capacity)

    def data_movement_blocks(self, target: "Layout") -> float:
        """Blocks that must move to transform this layout into ``target``.

        For each object, half the L1 distance between its fraction rows
        times its size (blocks leaving one disk arrive on another, so
        each moved block is counted once).
        """
        if set(target.object_names) != set(self._fractions):
            raise LayoutError("layouts cover different object sets")
        moved = 0.0
        for name, row in self._fractions.items():
            other = target.fractions_of(name)
            if len(other) != len(row):
                raise LayoutError("layouts use different disk farms")
            # Disk by disk in order, as TS-GREEDY's vectorized movement
            # check accumulates it (sum() is compensated from 3.12).
            distance = 0.0
            for a, b in zip(row, other):
                distance += abs(a - b)
            moved += self._sizes[name] * distance / 2.0
        return moved

    # -- exports -------------------------------------------------------------------

    def filegroups(self) -> dict[tuple[int, ...], list[str]]:
        """Group objects by the disk set they live on.

        Each distinct disk set corresponds to one filegroup (tablespace)
        in the commercial-DBMS realization of the layout.
        """
        groups: dict[tuple[int, ...], list[str]] = {}
        for name in self._fractions:
            groups.setdefault(self.disks_of(name), []).append(name)
        return groups

    def materialize(self) -> MaterializedLayout:
        """Concrete block placement of this layout (for the simulator)."""
        return MaterializedLayout(self._farm, self._sizes, self._fractions)

    def describe(self) -> str:
        """Human-readable one-line-per-object summary."""
        lines = []
        for name in sorted(self._fractions):
            parts = ", ".join(
                f"{self._farm[j].name}:{f:.0%}"
                for j, f in enumerate(self._fractions[name]) if f > EPS_ZERO)
            lines.append(f"{name} ({self._sizes[name]} blk) -> {parts}")
        return "\n".join(lines)

    def _require(self, name: str) -> None:
        if name not in self._fractions:
            raise LayoutError(f"no object {name!r} in layout")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({len(self._fractions)} objects on " \
               f"{len(self._farm)} disks)"

    @classmethod
    def from_database(cls, db: Database, farm: DiskFarm,
                      fractions: Mapping[str, Sequence[float]],
                      check_capacity: bool = True) -> "Layout":
        """Build a layout for every object of a database catalog."""
        return cls(farm, db.object_sizes(), fractions,
                   check_capacity=check_capacity)
