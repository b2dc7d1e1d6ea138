"""Schema and physical-design objects.

A :class:`Database` holds tables, indexes and materialized views.  The
layout advisor treats each of these as an opaque *object* with a size in
blocks (the paper's ``R_i`` with size ``|R_i|``); the optimizer addition-
ally uses row counts, row widths and column statistics to estimate how
many blocks of each object a plan touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from repro.catalog.stats import ColumnStats
from repro.errors import CatalogError
from repro.storage.disk import BLOCK_BYTES

#: Per-row storage overhead (header + null bitmap), roughly SQL Server's.
ROW_OVERHEAD_BYTES = 10

#: Row identifier width used to size non-clustered index entries.
RID_BYTES = 8


class ObjectKind(Enum):
    """What kind of database object a layout cell refers to."""

    TABLE = "table"
    INDEX = "index"
    MATERIALIZED_VIEW = "materialized_view"
    TEMP = "temp"


@dataclass(frozen=True)
class Column:
    """A table column.

    Attributes:
        name: Column name, unique within its table.
        width_bytes: Average stored width of a value.
        stats: Optional statistics for selectivity estimation.
    """

    name: str
    width_bytes: int
    stats: ColumnStats | None = None

    def __post_init__(self) -> None:
        if self.width_bytes <= 0:
            raise CatalogError(f"column {self.name}: width must be positive")


def _blocks_for(total_bytes: float) -> int:
    """Blocks needed for ``total_bytes`` of row data, at least 1."""
    blocks = int(-(-total_bytes // BLOCK_BYTES))  # ceil division
    return max(1, blocks)


class Table:
    """A base table with rows, columns and optional clustering key.

    Args:
        name: Table name, unique within the database.
        row_count: Cardinality of the table.
        columns: Column definitions.
        clustered_on: Column names of the clustering key, if the table is
            stored as a clustered index (its leaf level *is* the table, as
            in SQL Server); ``None`` for a heap.
    """

    def __init__(self, name: str, row_count: int,
                 columns: Sequence[Column],
                 clustered_on: Sequence[str] | None = None):
        if row_count < 0:
            raise CatalogError(f"table {name}: negative row count")
        if not columns:
            raise CatalogError(f"table {name}: needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"table {name}: duplicate column names")
        self.name = name
        self.row_count = row_count
        self.columns = tuple(columns)
        self._by_name = {c.name: c for c in self.columns}
        if clustered_on:
            for col in clustered_on:
                if col not in self._by_name:
                    raise CatalogError(
                        f"table {name}: clustering column {col!r} undefined")
        self.clustered_on = tuple(clustered_on) if clustered_on else None

    @property
    def kind(self) -> ObjectKind:
        return ObjectKind.TABLE

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        """True if the table defines a column called ``name``."""
        return name in self._by_name

    @property
    def row_bytes(self) -> int:
        """Average stored row width including per-row overhead."""
        return sum(c.width_bytes for c in self.columns) + ROW_OVERHEAD_BYTES

    @property
    def size_blocks(self) -> int:
        """Size of the table in allocation blocks."""
        return _blocks_for(self.row_count * self.row_bytes)

    @property
    def rows_per_block(self) -> float:
        """Average number of rows stored per allocation block."""
        return max(1.0, BLOCK_BYTES / self.row_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name}, rows={self.row_count}, " \
               f"blocks={self.size_blocks})"


class Index:
    """A non-clustered index over a table.

    (Clustered indexes are represented by ``Table.clustered_on`` because
    their leaf level is the table itself and they are not a separate
    layout object.)

    Args:
        name: Index name, unique within the database.
        table: Name of the indexed table.
        key_columns: Ordered key column names.
        included_columns: Non-key columns carried in the leaf entries.
    """

    def __init__(self, name: str, table: str,
                 key_columns: Sequence[str],
                 included_columns: Sequence[str] = ()):
        if not key_columns:
            raise CatalogError(f"index {name}: needs at least one key column")
        self.name = name
        self.table = table
        self.key_columns = tuple(key_columns)
        self.included_columns = tuple(included_columns)
        self._row_count: int | None = None
        self._entry_bytes: int | None = None

    @property
    def kind(self) -> ObjectKind:
        return ObjectKind.INDEX

    def bind(self, table: Table) -> None:
        """Resolve sizes against the indexed table's catalog entry."""
        if table.name != self.table:
            raise CatalogError(
                f"index {self.name} is on {self.table!r}, not {table.name!r}")
        width = sum(table.column(c).width_bytes
                    for c in self.key_columns + self.included_columns)
        self._entry_bytes = width + RID_BYTES
        self._row_count = table.row_count

    @property
    def row_count(self) -> int:
        self._require_bound()
        return self._row_count  # type: ignore[return-value]

    @property
    def entry_bytes(self) -> int:
        self._require_bound()
        return self._entry_bytes  # type: ignore[return-value]

    @property
    def size_blocks(self) -> int:
        """Leaf-level size of the index in allocation blocks."""
        return _blocks_for(self.row_count * self.entry_bytes)

    def covers(self, columns: Iterable[str]) -> bool:
        """True if every listed column is present in the index entries."""
        carried = set(self.key_columns) | set(self.included_columns)
        return all(c in carried for c in columns)

    def _require_bound(self) -> None:
        if self._row_count is None:
            raise CatalogError(
                f"index {self.name} is not bound to a database")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Index({self.name} ON {self.table}{list(self.key_columns)})"


class MaterializedView:
    """A materialized view, treated as a pre-sized stored object."""

    def __init__(self, name: str, row_count: int, row_bytes: int,
                 definition: str = ""):
        if row_count < 0 or row_bytes <= 0:
            raise CatalogError(f"materialized view {name}: bad size spec")
        self.name = name
        self.row_count = row_count
        self.row_bytes = row_bytes
        self.definition = definition

    @property
    def kind(self) -> ObjectKind:
        return ObjectKind.MATERIALIZED_VIEW

    @property
    def size_blocks(self) -> int:
        return _blocks_for(self.row_count * self.row_bytes)


@dataclass(frozen=True)
class DbObject:
    """A layout-relevant database object: one row of the layout matrix.

    Attributes:
        name: Unique object name (table, index or view name).
        kind: What the object is.
        size_blocks: Total size ``|R_i|`` in allocation blocks.
    """

    name: str
    kind: ObjectKind
    size_blocks: int


class Database:
    """A database: tables plus physical design structures.

    Args:
        name: Database name.
        tables: Base tables.
        indexes: Non-clustered indexes; they are bound to their tables at
            construction so their sizes are immediately available.
        views: Materialized views.
    """

    def __init__(self, name: str,
                 tables: Sequence[Table],
                 indexes: Sequence[Index] = (),
                 views: Sequence[MaterializedView] = ()):
        self.name = name
        self._tables: dict[str, Table] = {}
        for t in tables:
            if t.name in self._tables:
                raise CatalogError(f"duplicate table {t.name!r}")
            self._tables[t.name] = t
        self._indexes: dict[str, Index] = {}
        for ix in indexes:
            if ix.name in self._indexes or ix.name in self._tables:
                raise CatalogError(f"duplicate object name {ix.name!r}")
            if ix.table not in self._tables:
                raise CatalogError(
                    f"index {ix.name} references unknown table {ix.table!r}")
            ix.bind(self._tables[ix.table])
            self._indexes[ix.name] = ix
        self._views: dict[str, MaterializedView] = {}
        for v in views:
            if v.name in self._tables or v.name in self._indexes \
                    or v.name in self._views:
                raise CatalogError(f"duplicate object name {v.name!r}")
            self._views[v.name] = v

    @property
    def tables(self) -> tuple[Table, ...]:
        return tuple(self._tables.values())

    @property
    def indexes(self) -> tuple[Index, ...]:
        return tuple(self._indexes.values())

    @property
    def views(self) -> tuple[MaterializedView, ...]:
        return tuple(self._views.values())

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True if the database defines a table called ``name``."""
        return name in self._tables

    def index(self, name: str) -> Index:
        """Look up a non-clustered index by name."""
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no index named {name!r}") from None

    def indexes_on(self, table: str) -> list[Index]:
        """All non-clustered indexes defined on the given table."""
        return [ix for ix in self._indexes.values() if ix.table == table]

    def objects(self) -> list[DbObject]:
        """The layout-relevant objects, in deterministic catalog order.

        These are the rows of the layout matrix: every table, every
        non-clustered index, and every materialized view.
        """
        out: list[DbObject] = []
        for t in self._tables.values():
            out.append(DbObject(t.name, ObjectKind.TABLE, t.size_blocks))
        for ix in self._indexes.values():
            out.append(DbObject(ix.name, ObjectKind.INDEX, ix.size_blocks))
        for v in self._views.values():
            out.append(DbObject(v.name, ObjectKind.MATERIALIZED_VIEW,
                                v.size_blocks))
        return out

    def object_sizes(self) -> dict[str, int]:
        """Mapping from object name to size in blocks."""
        return {o.name: o.size_blocks for o in self.objects()}

    @property
    def total_size_blocks(self) -> int:
        return sum(o.size_blocks for o in self.objects())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Database({self.name!r}: {len(self._tables)} tables, "
                f"{len(self._indexes)} indexes, {len(self._views)} views)")
