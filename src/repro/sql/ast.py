"""Typed abstract syntax tree for the SQL subset.

Every node is an immutable dataclass.  A run of operators of one
precedence level is one flat :class:`Chain`, so an expression is only as
deep as it nests.  :func:`walk` visits an expression's nodes; the
optimizer filters it for column references, subqueries and aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference, e.g. ``l.l_orderkey``."""

    name: str
    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal:
    """A numeric or string constant.  ``value`` is int/float/str/None."""

    value: int | float | str | None


@dataclass(frozen=True)
class BinaryOp:
    """A comparison: ``=``, ``<``, ``>``, ``<=``, ``>=`` or ``<>``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Chain:
    """A run of operators of one precedence level, left-associative:
    ``AND``; ``OR``; ``+``, ``-`` and ``||``; or ``*``, ``/`` and ``%``.

    ``ops[i]`` joins ``operands[i]`` and ``operands[i + 1]``.
    """

    ops: tuple[str, ...]
    operands: tuple["Expr", ...]


@dataclass(frozen=True)
class UnaryOp:
    """Unary minus or NOT."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class FuncCall:
    """An aggregate or scalar function call.

    ``COUNT(*)`` is represented with ``star=True`` and empty args.
    """

    name: str
    args: tuple["Expr", ...] = ()
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class CaseExpr:
    """A searched CASE expression."""

    whens: tuple[tuple["Expr", "Expr"], ...]
    else_: "Expr | None" = None


@dataclass(frozen=True)
class BetweenExpr:
    """``expr [NOT] BETWEEN lo AND hi``."""

    operand: "Expr"
    lo: "Expr"
    hi: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: "Expr"
    values: tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery:
    """``expr [NOT] IN (SELECT ...)``."""

    operand: "Expr"
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr:
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery:
    """A subquery used as a scalar value, e.g. ``x = (SELECT MIN(...) ...)``."""

    subquery: "Select"


@dataclass(frozen=True)
class LikeExpr:
    """``expr [NOT] LIKE pattern``."""

    operand: "Expr"
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class IsNullExpr:
    """``expr IS [NOT] NULL``."""

    operand: "Expr"
    negated: bool = False


Expr = Union[ColumnRef, Literal, BinaryOp, Chain, UnaryOp, FuncCall,
             CaseExpr, BetweenExpr, InList, InSubquery, ExistsExpr,
             ScalarSubquery, LikeExpr, IsNullExpr]

#: The sub-expressions of each expression type, in source order.  A
#: subquery's body is not among them: its names resolve in its own scope.
_CHILDREN = {
    ColumnRef: lambda e: (),
    Literal: lambda e: (),
    BinaryOp: lambda e: (e.left, e.right),
    Chain: lambda e: e.operands,
    UnaryOp: lambda e: (e.operand,),
    FuncCall: lambda e: e.args,
    CaseExpr: lambda e: (*(x for when in e.whens for x in when), e.else_),
    BetweenExpr: lambda e: (e.operand, e.lo, e.hi),
    InList: lambda e: (e.operand, *e.values),
    InSubquery: lambda e: (e.operand,),
    ExistsExpr: lambda e: (),
    ScalarSubquery: lambda e: (),
    LikeExpr: lambda e: (e.operand,),
    IsNullExpr: lambda e: (e.operand,),
}


#: The leaves most expressions are made of: :func:`walk` yields them in
#: place instead of opening a generator for each.
_LEAVES = frozenset({ColumnRef, Literal})


def walk(expr: Expr | None) -> Iterator[Expr]:
    """Yield ``expr`` and every expression inside it, pre-order in source
    order, without entering subquery bodies.  The recursion is as deep
    as the expression nests, which the parser bounds."""
    if expr is None:
        return
    yield expr
    for child in _CHILDREN[type(expr)](expr):
        if type(child) in _LEAVES:
            yield child
        else:
            yield from walk(child)


def column_refs(expr: Expr | None) -> Iterator[ColumnRef]:
    """Yield every :class:`ColumnRef` of ``expr``'s own scope."""
    return (e for e in walk(expr) if type(e) is ColumnRef)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause with an optional alias."""

    table: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the query scope."""
        return self.alias or self.table


@dataclass(frozen=True)
class JoinClause:
    """An explicit ``JOIN ... ON ...`` step in a FROM clause."""

    kind: str            # "INNER", "LEFT", "RIGHT"
    table: TableRef
    condition: Expr


@dataclass(frozen=True)
class SelectItem:
    """One projection item: an expression with an optional output alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with direction."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A SELECT statement (or subquery)."""

    items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    joins: tuple[JoinClause, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False
    top: int | None = None
    select_star: bool = False


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO t [(cols)] VALUES (...)`` or ``INSERT ... SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    values: tuple[tuple[Expr, ...], ...] = ()
    source: Select | None = None


@dataclass(frozen=True)
class Update:
    """``UPDATE t SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Expr | None = None


Statement = Union[Select, Insert, Update, Delete]
