"""Predicate classification and selectivity estimation.

Implements the classical System-R style estimation rules the planner
uses: ``1/NDV`` for equalities, domain-interpolated fractions for ranges,
inclusion for equijoins, and the traditional magic constants when a
predicate compares against an unknown value (e.g. a scalar subquery).
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.catalog.schema import Column, Table
from repro.sql import ast

#: Selectivity of an equality against an unestimable value.
MAGIC_EQ = 0.1

#: Selectivity of a range predicate against an unestimable value.
MAGIC_RANGE = 1.0 / 3.0

#: Selectivity of a LIKE with a fixed prefix (no leading wildcard).
MAGIC_LIKE_PREFIX = 0.05

#: Selectivity of a LIKE with a leading wildcard.
MAGIC_LIKE_CONTAINS = 0.25

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")

def literal_to_float(value: object) -> float | None:
    """Map a literal to the numeric domain used by column statistics.

    Numbers map to themselves; ISO dates map to their proleptic ordinal
    (matching how date-valued column domains are declared in the bench
    catalogs); anything else is unestimable and returns ``None``.
    """
    if isinstance(value, bool):  # bool is an int subclass; reject it
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        match = _DATE_RE.match(value)
        if match:
            year, month, day = (int(g) for g in match.groups())
            try:
                return float(datetime.date(year, month, day).toordinal())
            except ValueError:
                return None
    return None


@dataclass(frozen=True)
class JoinPredicate:
    """An equijoin conjunct ``left.lcol = right.rcol`` between bindings."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str

    def bindings(self) -> frozenset[str]:
        """The two bindings the predicate connects."""
        return frozenset({self.left_binding, self.right_binding})

    def column_for(self, binding: str) -> str:
        """The join column on the given side."""
        if binding == self.left_binding:
            return self.left_column
        if binding == self.right_binding:
            return self.right_column
        raise KeyError(binding)


@dataclass
class ClassifiedPredicates:
    """WHERE-clause conjuncts sorted into planner-relevant groups.

    Attributes:
        local: Per-binding single-table conjuncts.
        joins: Binary equijoin conjuncts.
        subqueries: IN / EXISTS subquery conjuncts (handled by the
            planner's semi-join machinery).
        residual: Everything else — cross-binding non-equi conjuncts,
            ORs spanning tables, conjuncts holding a subquery.  Applied
            as a filter on top of the join tree.
    """

    local: dict[str, list[ast.Expr]] = field(default_factory=dict)
    joins: list[JoinPredicate] = field(default_factory=list)
    subqueries: list[ast.Expr] = field(default_factory=list)
    residual: list[ast.Expr] = field(default_factory=list)

    def add_local(self, binding: str, expr: ast.Expr) -> None:
        """Record a single-table conjunct for ``binding``."""
        self.local.setdefault(binding, []).append(expr)


def split_conjuncts(expr: ast.Expr | None) -> Iterator[ast.Expr]:
    """Yield the top-level AND-ed conjuncts of an expression, left to
    right, flattening parenthesized AND chains."""
    if expr is None:
        return
    if isinstance(expr, ast.Chain) and expr.ops[0] == "AND":
        for operand in expr.operands:
            yield from split_conjuncts(operand)
    else:
        yield expr


class SelectivityEstimator:
    """Estimates predicate selectivities against one table's statistics.

    Args:
        table: The catalog table the predicates apply to.
        resolver: Callable mapping a :class:`ast.ColumnRef` to a column
            name of ``table`` (or raising); supplied by the planner, which
            owns binding resolution.
    """

    def __init__(self, table: Table, resolver):
        self._table = table
        self._resolve = resolver

    def conjunction(self, predicates: Iterable[ast.Expr]) -> float:
        """Selectivity of the AND of the given predicates (independence)."""
        selectivity = 1.0
        for pred in predicates:
            selectivity *= self.predicate(pred)
        return selectivity

    def predicate(self, expr: ast.Expr) -> float:
        """Selectivity of one boolean predicate expression."""
        if isinstance(expr, ast.BinaryOp):
            return self._comparison(expr)
        if isinstance(expr, ast.Chain):
            if expr.ops[0] == "AND":
                return self.conjunction(expr.operands)
            if expr.ops[0] == "OR":
                sel = self.predicate(expr.operands[0])
                for operand in expr.operands[1:]:
                    s2 = self.predicate(operand)
                    sel = min(1.0, sel + s2 - sel * s2)
                return sel
            return MAGIC_RANGE
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return max(0.0, 1.0 - self.predicate(expr.operand))
        if isinstance(expr, ast.BetweenExpr):
            return self._between(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.LikeExpr):
            sel = MAGIC_LIKE_CONTAINS if expr.pattern.startswith("%") \
                else MAGIC_LIKE_PREFIX
            return 1.0 - sel if expr.negated else sel
        if isinstance(expr, ast.IsNullExpr):
            return self._is_null(expr)
        # Anything else (bare column, arithmetic, subquery comparisons
        # that slipped through) is unestimable.
        return MAGIC_RANGE

    # -- helpers ------------------------------------------------------------

    def _column_of(self, expr: ast.Expr) -> Column | None:
        """The table column, if the expression is a plain column ref."""
        if isinstance(expr, ast.ColumnRef):
            name = self._resolve(expr)
            if name is not None and self._table.has_column(name):
                return self._table.column(name)
        return None

    @staticmethod
    def _value_of(expr: ast.Expr) -> float | None:
        if isinstance(expr, ast.Literal):
            return literal_to_float(expr.value)
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            inner = SelectivityEstimator._value_of(expr.operand)
            return None if inner is None else -inner
        return None

    def _comparison(self, expr: ast.BinaryOp) -> float:
        column = self._column_of(expr.left)
        other = expr.right
        op = expr.op
        if column is None:
            column = self._column_of(expr.right)
            other = expr.left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if column is None or column.stats is None:
            return MAGIC_EQ if op == "=" else MAGIC_RANGE
        stats = column.stats
        if op == "=":
            return stats.equality_selectivity()
        if op == "<>":
            return max(0.0, 1.0 - stats.equality_selectivity())
        value = self._value_of(other)
        if value is None:
            return MAGIC_RANGE
        if op in ("<", "<="):
            return stats.range_selectivity(None, value)
        return stats.range_selectivity(value, None)

    def _between(self, expr: ast.BetweenExpr) -> float:
        column = self._column_of(expr.operand)
        lo = self._value_of(expr.lo)
        hi = self._value_of(expr.hi)
        if column is None or column.stats is None or lo is None \
                or hi is None:
            sel = MAGIC_RANGE
        else:
            sel = column.stats.range_selectivity(lo, hi)
        return max(0.0, 1.0 - sel) if expr.negated else sel

    def _in_list(self, expr: ast.InList) -> float:
        column = self._column_of(expr.operand)
        if column is None or column.stats is None:
            eq = MAGIC_EQ
        else:
            eq = column.stats.equality_selectivity()
        sel = min(1.0, eq * len(expr.values))
        return max(0.0, 1.0 - sel) if expr.negated else sel

    def _is_null(self, expr: ast.IsNullExpr) -> float:
        column = self._column_of(expr.operand)
        if column is None or column.stats is None:
            frac = 0.05
        else:
            frac = column.stats.null_fraction
        return max(0.0, 1.0 - frac) if expr.negated else frac


def join_selectivity(left: Table, left_column: str,
                     right: Table, right_column: str) -> float:
    """Selectivity of ``left.lcol = right.rcol`` (containment of values)."""
    def ndv(table: Table, col: str) -> int:
        column = table.column(col)
        if column.stats is not None:
            return column.stats.ndv
        return max(1, table.row_count)
    return 1.0 / max(ndv(left, left_column), ndv(right, right_column), 1)
