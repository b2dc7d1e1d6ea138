"""Typed execution-plan operators.

A plan is a tree of :class:`PlanOp` nodes.  Two annotations drive the
whole layout pipeline:

* every node lists the :class:`ObjectAccess`\\ es it performs against
  stored objects (tables, indexes, temp objects) — the paper's
  ``B(|R_i|, P)`` block counts; and
* every edge to a child is either *pipelined* or *blocking*
  (``blocking_edges``).  Cutting the tree at blocking edges yields the
  paper's *non-blocking subplans*, whose objects are co-accessed.

Blocking semantics follow the classical operator behaviour: a sort (and a
hash aggregate) consumes its entire input before producing a row, and a
hash join consumes its entire *build* input before probing, while merge
and nested-loops joins pipeline both inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

#: An output-ordering key: (table binding, column name).
OrderKey = tuple[str, str]


@dataclass(frozen=True)
class ObjectAccess:
    """One operator's access to one stored object.

    Attributes:
        object_name: Catalog name of the table / index / temp object.
        blocks: Estimated number of blocks of the object accessed while
            the operator runs (the paper's ``B(|R_i|, P)``).
        rows: Estimated rows produced/consumed through this access.
        write: True for INSERT/UPDATE/DELETE page writes and temp spills.
        sequential: True when the blocks are read in allocation order
            (scans, range seeks); False for scattered accesses (RID
            lookups, index-driven nested loops).
    """

    object_name: str
    blocks: float
    rows: float = 0.0
    write: bool = False
    sequential: bool = True


class PlanOp:
    """Base class for all plan operators.

    Attributes:
        children: Input operators, left to right.
        rows_out: Estimated output cardinality.
        accesses: Stored-object accesses performed *by this node itself*
            (children report their own).
        blocking_edges: One flag per child; True means the child's entire
            output is consumed before this operator produces anything, so
            the child subtree is in a different non-blocking subplan.
        order: Output ordering as a tuple of (binding, column) keys, or
            ``None`` when the output order is unspecified.
    """

    #: Display name; subclasses override.
    op_name = "Op"

    def __init__(self,
                 children: Sequence["PlanOp"] = (),
                 rows_out: float = 0.0,
                 accesses: Sequence[ObjectAccess] = (),
                 blocking_edges: Sequence[bool] | None = None,
                 order: tuple[OrderKey, ...] | None = None):
        self.children = tuple(children)
        self.rows_out = rows_out
        self.accesses = list(accesses)
        if blocking_edges is None:
            blocking_edges = [False] * len(self.children)
        if len(blocking_edges) != len(self.children):
            raise ValueError("blocking_edges must match children")
        self.blocking_edges = tuple(blocking_edges)
        self.order = order

    def label(self) -> str:
        """Short human-readable description used by explain()."""
        return self.op_name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label()} (rows={self.rows_out:.0f})"


def walk(plan: PlanOp) -> Iterator[PlanOp]:
    """Yield every node of the plan in pre-order."""
    yield plan
    for child in plan.children:
        yield from walk(child)


# --------------------------------------------------------------------------
# Leaf access operators
# --------------------------------------------------------------------------

class TableScanOp(PlanOp):
    """Sequential scan of a table (full, or a clustered range seek).

    When the table is stored as a clustered index, the output is ordered
    by the clustering key and ``order`` reflects that.
    """

    op_name = "Table Scan"

    def __init__(self, table: str, binding: str, blocks: float,
                 rows_out: float,
                 order: tuple[OrderKey, ...] | None = None,
                 range_seek: bool = False):
        super().__init__(rows_out=rows_out,
                         accesses=[ObjectAccess(table, blocks,
                                                rows=rows_out)],
                         order=order)
        self.table = table
        self.binding = binding
        self.range_seek = range_seek

    def label(self) -> str:
        kind = "Clustered Seek" if self.range_seek else self.op_name
        return f"{kind}({self.table} as {self.binding})"


class IndexSeekOp(PlanOp):
    """Range/equality seek on a non-clustered index (leaf-range read)."""

    op_name = "Index Seek"

    def __init__(self, index: str, table: str, binding: str,
                 blocks: float, rows_out: float,
                 order: tuple[OrderKey, ...] | None = None,
                 covering: bool = False):
        super().__init__(rows_out=rows_out,
                         accesses=[ObjectAccess(index, blocks,
                                                rows=rows_out)],
                         order=order)
        self.index = index
        self.table = table
        self.binding = binding
        self.covering = covering

    def label(self) -> str:
        cover = ", covering" if self.covering else ""
        return f"Index Seek({self.index} on {self.table} as " \
               f"{self.binding}{cover})"


class IndexScanOp(PlanOp):
    """Full leaf-level scan of a non-clustered index."""

    op_name = "Index Scan"

    def __init__(self, index: str, table: str, binding: str,
                 blocks: float, rows_out: float,
                 order: tuple[OrderKey, ...] | None = None):
        super().__init__(rows_out=rows_out,
                         accesses=[ObjectAccess(index, blocks,
                                                rows=rows_out)],
                         order=order)
        self.index = index
        self.table = table
        self.binding = binding

    def label(self) -> str:
        return f"Index Scan({self.index} on {self.table} as {self.binding})"


class RidLookupOp(PlanOp):
    """Fetch table rows by RID after an index seek (bookmark lookup).

    The child is the index access; the lookups against the base table are
    scattered, so the access is marked non-sequential.
    """

    op_name = "RID Lookup"

    def __init__(self, child: PlanOp, table: str, binding: str,
                 blocks: float, rows_out: float):
        super().__init__(children=[child], rows_out=rows_out,
                         accesses=[ObjectAccess(table, blocks,
                                                rows=rows_out,
                                                sequential=False)],
                         order=child.order)
        self.table = table
        self.binding = binding

    def label(self) -> str:
        return f"RID Lookup({self.table} as {self.binding})"


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------

class _JoinOp(PlanOp):
    """Common state for binary joins."""

    def __init__(self, left: PlanOp, right: PlanOp, rows_out: float,
                 keys: tuple[OrderKey, OrderKey] | None,
                 blocking_edges: Sequence[bool],
                 order: tuple[OrderKey, ...] | None = None):
        super().__init__(children=[left, right], rows_out=rows_out,
                         blocking_edges=blocking_edges, order=order)
        self.keys = keys

    def _keys_label(self) -> str:
        if self.keys is None:
            return ""
        (lb, lc), (rb, rc) = self.keys
        return f" on {lb}.{lc}={rb}.{rc}"


class MergeJoinOp(_JoinOp):
    """Merge join: both inputs pipelined (co-accessed)."""

    op_name = "Merge Join"

    def __init__(self, left: PlanOp, right: PlanOp, rows_out: float,
                 keys: tuple[OrderKey, OrderKey] | None = None,
                 order: tuple[OrderKey, ...] | None = None):
        super().__init__(left, right, rows_out, keys,
                         blocking_edges=(False, False), order=order)

    def label(self) -> str:
        return f"Merge Join{self._keys_label()}"


class HashJoinOp(_JoinOp):
    """Hash join: the *build* (left) edge is blocking, probe pipelined.

    The probe side streams through the in-memory hash table, so the
    output physically preserves the probe input's order — which lets a
    parent merge join consume it without a sort (the dims-on-the-build-
    side star-join pattern).
    """

    op_name = "Hash Join"

    def __init__(self, build: PlanOp, probe: PlanOp, rows_out: float,
                 keys: tuple[OrderKey, OrderKey] | None = None,
                 spill_accesses: Sequence[ObjectAccess] = ()):
        super().__init__(build, probe, rows_out, keys,
                         blocking_edges=(True, False), order=probe.order)
        self.accesses = list(spill_accesses)

    @property
    def build(self) -> PlanOp:
        return self.children[0]

    @property
    def probe(self) -> PlanOp:
        return self.children[1]

    def label(self) -> str:
        return f"Hash Join{self._keys_label()}"


class NestedLoopsJoinOp(_JoinOp):
    """Nested-loops join: both inputs pipelined.

    The inner side is re-executed per outer row; the planner bakes the
    repetition into the inner leaf's block counts before constructing
    this node.
    """

    op_name = "Nested Loops"

    def __init__(self, outer: PlanOp, inner: PlanOp, rows_out: float,
                 keys: tuple[OrderKey, OrderKey] | None = None,
                 order: tuple[OrderKey, ...] | None = None):
        super().__init__(outer, inner, rows_out, keys,
                         blocking_edges=(False, False), order=order)

    def label(self) -> str:
        return f"Nested Loops{self._keys_label()}"


class SemiJoinOp(_JoinOp):
    """(Anti-)semi-join used for IN / EXISTS subqueries.

    In hash form (default) the subquery side is the build input
    (blocking edge) and the outer side is probed and pipelined through.
    In merge form — chosen when both inputs are already ordered on the
    semi-join key, as SQL Server 2000 favoured on clustered keys — both
    edges are pipelined, so the two sides' objects are co-accessed.
    """

    op_name = "Semi Join"

    def __init__(self, build: PlanOp, probe: PlanOp, rows_out: float,
                 keys: tuple[OrderKey, OrderKey] | None = None,
                 anti: bool = False, merge: bool = False):
        edges = (False, False) if merge else (True, False)
        super().__init__(build, probe, rows_out, keys,
                         blocking_edges=edges, order=probe.order)
        self.anti = anti
        self.merge = merge

    def label(self) -> str:
        method = "Merge" if self.merge else "Hash"
        name = f"{method} Anti Semi Join" if self.anti \
            else f"{method} Semi Join"
        return f"{name}{self._keys_label()}"


# --------------------------------------------------------------------------
# Unary operators
# --------------------------------------------------------------------------

class SortOp(PlanOp):
    """Sort: the canonical blocking operator.

    Large sorts spill to a temp object; the spill read+write accesses are
    attached to the sort node itself so the simulator can charge them,
    while the analytical cost model (mirroring the paper's implementation)
    skips temp objects.
    """

    op_name = "Sort"

    def __init__(self, child: PlanOp, rows_out: float,
                 order: tuple[OrderKey, ...],
                 spill_accesses: Sequence[ObjectAccess] = ()):
        super().__init__(children=[child], rows_out=rows_out,
                         accesses=list(spill_accesses),
                         blocking_edges=(True,), order=order)

    def label(self) -> str:
        keys = ", ".join(f"{b}.{c}" for b, c in (self.order or ()))
        return f"Sort({keys})"


class HashAggregateOp(PlanOp):
    """Hash aggregation: blocking (emits only after consuming input)."""

    op_name = "Hash Aggregate"

    def __init__(self, child: PlanOp, rows_out: float,
                 spill_accesses: Sequence[ObjectAccess] = ()):
        super().__init__(children=[child], rows_out=rows_out,
                         accesses=list(spill_accesses),
                         blocking_edges=(True,), order=None)


class StreamAggregateOp(PlanOp):
    """Stream aggregation over sorted input: fully pipelined."""

    op_name = "Stream Aggregate"

    def __init__(self, child: PlanOp, rows_out: float):
        super().__init__(children=[child], rows_out=rows_out,
                         blocking_edges=(False,), order=child.order)


class FilterOp(PlanOp):
    """Residual predicate application: pipelined."""

    op_name = "Filter"

    def __init__(self, child: PlanOp, rows_out: float):
        super().__init__(children=[child], rows_out=rows_out,
                         blocking_edges=(False,), order=child.order)


class TopOp(PlanOp):
    """TOP / LIMIT: pipelined row-count cutoff."""

    op_name = "Top"

    def __init__(self, child: PlanOp, rows_out: float):
        super().__init__(children=[child], rows_out=rows_out,
                         blocking_edges=(False,), order=child.order)


class SequenceOp(PlanOp):
    """Runs children one after another (used for scalar subqueries).

    Every edge is blocking: child *i* finishes before child *i+1* starts,
    so no two children's objects are co-accessed.  The last child is the
    main plan whose rows flow to the client.
    """

    op_name = "Sequence"

    def __init__(self, children: Sequence[PlanOp]):
        super().__init__(children=children,
                         rows_out=children[-1].rows_out,
                         blocking_edges=[True] * len(children),
                         order=children[-1].order)


class DmlOp(PlanOp):
    """INSERT / UPDATE / DELETE apply node.

    The write accesses to the table and every maintained index are
    attached here; the optional child produces the rows to modify.
    """

    def __init__(self, verb: str, child: PlanOp | None,
                 write_accesses: Sequence[ObjectAccess],
                 rows_affected: float):
        children = [child] if child is not None else []
        super().__init__(children=children, rows_out=rows_affected,
                         accesses=list(write_accesses),
                         blocking_edges=[False] * len(children))
        self.verb = verb

    def label(self) -> str:
        return f"{self.verb.title()}"
