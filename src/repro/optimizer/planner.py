"""Cost-based statement planner (Selinger-style, left-deep).

The planner turns a parsed statement into a :class:`~repro.optimizer.
operators.PlanOp` tree.  It resolves bindings against the catalog,
classifies WHERE conjuncts, picks per-table access paths, runs a dynamic
program over left-deep join orders with merge / hash / index-nested-loops
alternatives (tracking interesting orders so sort-free merge joins are
found), and finishes the plan with semi-joins for subqueries, aggregation,
DISTINCT, ORDER BY and TOP.  Enumeration compares cost figures only;
operator trees are built once, for the plan the planner returns.

Planning costs are internal and *layout-insensitive* — just like the
commercial optimizers the paper piggybacks on, which "ignore the current
database layout when determining a plan".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.catalog.schema import Database, Index, Table
from repro.errors import PlanningError
from repro.optimizer import operators as ops
from repro.optimizer.cardinality import (
    bytes_to_blocks,
    grouped_rows,
    sort_cpu_cost,
    yao_blocks_touched,
)
from repro.optimizer.selectivity import (
    ClassifiedPredicates,
    JoinPredicate,
    MAGIC_RANGE,
    SelectivityEstimator,
    join_selectivity,
    split_conjuncts,
)
from repro.sql import ast
from repro.storage.disk import BLOCK_BYTES

# -- planning cost constants (block-I/O equivalents) ------------------------

SEQ_IO = 1.0            #: cost of one sequentially-read block
RAND_IO = 2.5           #: cost of one randomly-read block
CPU_ROW = 0.0005        #: cost of pushing one row through an operator
HASH_BUILD_ROW = 0.0015  #: cost of inserting one row into a hash table
HASH_PROBE_ROW = 0.0007  #: cost of probing one row
MERGE_ROW = 0.0004      #: cost of advancing one row through a merge
SORT_ROW = 0.0004       #: per-row-per-log2(n) sort cost
LOOKUP_CPU = 0.001      #: per-lookup CPU cost of an index nested loop

#: Name of the temp-object every sort/hash spill is charged to.  The paper
#: stores temporaries in the tempdb database on a dedicated drive.
TEMPDB = "tempdb"

#: Semi-join selectivities for subquery predicates (magic constants in the
#: tradition of System R; the access graph only needs plan shape).
SEMI_SEL_EXISTS = 0.75
SEMI_SEL_IN = 0.5

_AGG_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

_SUBQUERY_NODES = (ast.InSubquery, ast.ExistsExpr, ast.ScalarSubquery)


#: An output ordering: (binding, column) keys, or None when unordered.
_Order = tuple[ops.OrderKey, ...] | None


@dataclass(slots=True)
class _Candidate:
    """A partial plan considered during enumeration.

    Enumeration compares cost figures only; ``tree`` is the recipe that
    builds the candidate's operator tree, called once, for the plan the
    planner returns.
    """

    cost: float
    rows: float
    row_bytes: float
    bindings: frozenset[str]
    order: _Order
    tree: Callable[[], ops.PlanOp]


@dataclass(frozen=True, slots=True)
class _SemiJoin:
    """A planned IN / EXISTS subquery, ready to semi-join any outer
    candidate."""

    inner: _Candidate
    keys: tuple[ops.OrderKey, ops.OrderKey] | None
    anti: bool
    sel: float


@dataclass(frozen=True)
class _Correlation:
    """An equality between a subquery column and an outer-scope column."""

    inner_binding: str
    inner_column: str
    outer_binding: str
    outer_column: str


class _Scope:
    """Name-resolution scope: binding -> table, chained to outer scopes."""

    def __init__(self, bindings: dict[str, Table],
                 parent: "_Scope | None" = None):
        self.bindings = bindings
        self.parent = parent

    def resolve_local(self, ref: ast.ColumnRef) -> tuple[str, str] | None:
        """Resolve a column ref in this scope only; None if not found."""
        if ref.qualifier is not None:
            table = self.bindings.get(ref.qualifier)
            if table is not None and table.has_column(ref.name):
                return ref.qualifier, ref.name
            return None
        hits = [(b, ref.name) for b, t in self.bindings.items()
                if t.has_column(ref.name)]
        if len(hits) > 1:
            raise PlanningError(f"ambiguous column {ref.name!r}")
        return hits[0] if hits else None

    def resolve(self, ref: ast.ColumnRef) -> tuple[int, str, str] | None:
        """Resolve walking outward; returns (depth, binding, column)."""
        scope: _Scope | None = self
        depth = 0
        while scope is not None:
            hit = scope.resolve_local(ref)
            if hit is not None:
                return depth, hit[0], hit[1]
            scope = scope.parent
            depth += 1
        return None


class Planner:
    """Plans statements against a database catalog.

    Args:
        db: The catalog to resolve tables, indexes and statistics from.
        memory_blocks: Work memory available to a single sort or hash
            operator, in blocks; inputs larger than this spill to tempdb.
        max_relations: Safety cap on the number of FROM entries (the join
            DP is exponential in it).
    """

    def __init__(self, db: Database, memory_blocks: int = 1024,
                 max_relations: int = 13):
        self._db = db
        self._memory_blocks = memory_blocks
        self._max_relations = max_relations

    # -- public API ---------------------------------------------------------

    def plan(self, stmt: ast.Statement) -> ops.PlanOp:
        """Produce an execution plan for any supported statement kind."""
        if isinstance(stmt, ast.Select):
            return self._plan_select(stmt, outer=None).tree()
        if isinstance(stmt, ast.Insert):
            return self._plan_insert(stmt)
        if isinstance(stmt, ast.Update):
            return self._plan_update(stmt)
        if isinstance(stmt, ast.Delete):
            return self._plan_delete(stmt)
        raise PlanningError(f"unsupported statement type {type(stmt).__name__}")

    # -- SELECT -------------------------------------------------------------

    def _plan_select(self, select: ast.Select,
                     outer: _Scope | None) -> _Candidate:
        scope = self._make_scope(select, outer)
        needed = self._needed_columns(select, scope)
        classified, correlations, subqueries = \
            self._classify(select, scope)
        # Correlations only arise under an outer scope (subqueries planned
        # outside a semi-join come through this entry point).  They are
        # dropped as filters — the subquery still reads the right objects,
        # which is all the access graph needs; top-level IN/EXISTS
        # conjuncts go through _plan_subquery instead, which turns them
        # into semi-join keys.
        del correlations
        return self._plan_resolved(select, scope, needed, classified,
                                   subqueries)

    def _plan_resolved(self, select: ast.Select, scope: _Scope,
                       needed: dict[str, set[str]],
                       classified: ClassifiedPredicates,
                       subqueries: list[ast.Select]) -> _Candidate:
        base = {
            binding: self._access_paths(
                binding, scope.bindings[binding],
                classified.local.get(binding, []),
                needed[binding], scope)
            for binding in scope.bindings
        }
        join_cands = self._join_order(scope, base, classified.joins,
                                      needed)
        semi_joins = [self._plan_subquery(conjunct, scope)
                      for conjunct in classified.subqueries]
        # Finish every interesting-order candidate: a slightly costlier
        # join tree whose order feeds a merge semi-join or saves the
        # final sort can win overall.
        has_agg = _has_aggregate(select)
        cand: _Candidate | None = None
        for joined in join_cands:
            finished = self._apply_residual(joined, classified.residual)
            for semi in semi_joins:
                finished = self._semi_join(finished, semi)
            finished = self._apply_aggregation(finished, select, scope,
                                               has_agg)
            finished = self._apply_order_and_top(finished, select, scope)
            if cand is None or finished.cost < cand.cost:
                cand = finished
        assert cand is not None
        if subqueries:
            subs = [self._plan_select(s, outer=scope) for s in subqueries]
            main = cand
            cand = _Candidate(
                main.cost + sum(c.cost for c in subs), main.rows,
                main.row_bytes, main.bindings, main.order,
                lambda: ops.SequenceOp([c.tree() for c in subs]
                                       + [main.tree()]))
        return cand

    # -- scope / needed columns ----------------------------------------------

    def _make_scope(self, select: ast.Select,
                    outer: _Scope | None) -> _Scope:
        refs = list(select.from_tables) + [j.table for j in select.joins]
        if not refs:
            raise PlanningError("statement has an empty FROM clause")
        if len(refs) > self._max_relations:
            raise PlanningError(
                f"too many relations ({len(refs)} > {self._max_relations})")
        bindings: dict[str, Table] = {}
        for ref in refs:
            if not self._db.has_table(ref.table):
                raise PlanningError(f"unknown table {ref.table!r}")
            if ref.binding in bindings:
                raise PlanningError(f"duplicate binding {ref.binding!r}")
            bindings[ref.binding] = self._db.table(ref.table)
        return _Scope(bindings, parent=outer)

    def _needed_columns(self, select: ast.Select,
                        scope: _Scope) -> dict[str, set[str]]:
        needed: dict[str, set[str]] = {b: set() for b in scope.bindings}
        if select.select_star:
            for binding, table in scope.bindings.items():
                needed[binding].update(c.name for c in table.columns)

        def note(expr: ast.Expr | None) -> None:
            for ref in ast.column_refs(expr):
                hit = scope.resolve(ref)
                if hit is not None and hit[0] == 0:
                    needed[hit[1]].add(hit[2])

        for item in select.items:
            note(item.expr)
        note(select.where)
        for join in select.joins:
            note(join.condition)
        for expr in select.group_by:
            note(expr)
        note(select.having)
        for item in select.order_by:
            note(item.expr)
        # Every binding carries at least one column through the plan.
        for binding, cols in needed.items():
            if not cols:
                cols.add(scope.bindings[binding].columns[0].name)
        return needed

    # -- predicate classification ---------------------------------------------

    def _classify(self, select: ast.Select, scope: _Scope) -> tuple[
            ClassifiedPredicates, list[_Correlation], list[ast.Select]]:
        """Sort the WHERE and ON conjuncts, and collect the subqueries
        planned outside a semi-join: every one in the query block's
        expressions but the top-level IN / EXISTS conjuncts."""
        classified = ClassifiedPredicates()
        correlations: list[_Correlation] = []
        subqueries: list[ast.Select] = []
        conjuncts: list[ast.Expr] = list(split_conjuncts(select.where))
        for join in select.joins:
            conjuncts.extend(split_conjuncts(join.condition))
        for raw in conjuncts:
            conjunct = _normalize_not(raw)
            if isinstance(conjunct, (ast.InSubquery, ast.ExistsExpr)):
                classified.subqueries.append(conjunct)
                if isinstance(conjunct, ast.InSubquery):
                    subqueries.extend(_subqueries(conjunct.operand))
            elif found := _subqueries(conjunct):
                # The subqueries plan separately; the conjunct itself is
                # a residual filter.
                subqueries.extend(found)
                classified.residual.append(conjunct)
            else:
                self._classify_simple(conjunct, scope, classified,
                                      correlations)
        for expr in (*(item.expr for item in select.items),
                     *select.group_by, select.having,
                     *(item.expr for item in select.order_by)):
            subqueries.extend(_subqueries(expr))
        return classified, correlations, subqueries

    def _classify_simple(self, conjunct: ast.Expr, scope: _Scope,
                         classified: ClassifiedPredicates,
                         correlations: list[_Correlation]) -> None:
        local_bindings: set[str] = set()
        outer_refs: list[tuple[str, str]] = []
        local_refs: list[tuple[str, str]] = []
        for ref in ast.column_refs(conjunct):
            hit = scope.resolve(ref)
            if hit is None:
                raise PlanningError(f"cannot resolve column {ref}")
            depth, binding, column = hit
            if depth == 0:
                local_bindings.add(binding)
                local_refs.append((binding, column))
            else:
                outer_refs.append((binding, column))
        if outer_refs:
            if (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
                    and len(local_refs) == 1 and len(outer_refs) == 1):
                correlations.append(_Correlation(
                    inner_binding=local_refs[0][0],
                    inner_column=local_refs[0][1],
                    outer_binding=outer_refs[0][0],
                    outer_column=outer_refs[0][1]))
            else:
                # Non-equi correlation: keep plan shape, drop the filter.
                classified.residual.append(conjunct)
            return
        if len(local_bindings) == 0:
            classified.residual.append(conjunct)
        elif len(local_bindings) == 1:
            classified.add_local(local_bindings.pop(), conjunct)
        elif (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
              and isinstance(conjunct.left, ast.ColumnRef)
              and isinstance(conjunct.right, ast.ColumnRef)
              and len(local_refs) == 2):
            (lb, lc), (rb, rc) = local_refs
            classified.joins.append(JoinPredicate(lb, lc, rb, rc))
        else:
            classified.residual.append(conjunct)

    def _estimator(self, binding: str, table: Table,
                   scope: _Scope) -> SelectivityEstimator:
        def resolver(ref: ast.ColumnRef) -> str | None:
            hit = scope.resolve_local(ref)
            if hit is not None and hit[0] == binding:
                return hit[1]
            return None
        return SelectivityEstimator(table, resolver)

    # -- access paths -----------------------------------------------------------

    def _access_paths(self, binding: str, table: Table,
                      local_preds: list[ast.Expr],
                      needed_cols: set[str],
                      scope: _Scope) -> list[_Candidate]:
        est = self._estimator(binding, table, scope)
        sel_all = est.conjunction(local_preds)
        rows_out = max(0.0, table.row_count * sel_all)
        row_bytes = sum(table.column(c).width_bytes
                        for c in needed_cols) + 10
        singleton = frozenset({binding})
        cands: list[_Candidate] = []

        def add(cost: float, order: _Order,
                tree: Callable[[], ops.PlanOp]) -> None:
            cands.append(_Candidate(cost, rows_out, row_bytes, singleton,
                                    order, tree))

        clustered_order = None
        if table.clustered_on:
            clustered_order = tuple((binding, c) for c in table.clustered_on)

        # 1. Full (clustered) table scan.
        add(table.size_blocks * SEQ_IO + table.row_count * CPU_ROW,
            clustered_order,
            partial(ops.TableScanOp, table.name, binding,
                    blocks=float(table.size_blocks), rows_out=rows_out,
                    order=clustered_order))

        # 2. Clustered range seek on the clustering key's leading column.
        if table.clustered_on:
            sarg = self._sargable(local_preds, table.clustered_on[0],
                                  binding, scope)
            if sarg is not None:
                sel_sarg = est.predicate(sarg)
                blocks = max(1.0, table.size_blocks * sel_sarg)
                add(blocks * SEQ_IO + table.row_count * sel_sarg * CPU_ROW,
                    clustered_order,
                    partial(ops.TableScanOp, table.name, binding,
                            blocks=blocks, rows_out=rows_out,
                            order=clustered_order, range_seek=True))

        # 3. Non-clustered index paths.
        for index in self._db.indexes_on(table.name):
            key_order = tuple((binding, c) for c in index.key_columns)
            covering = index.covers(needed_cols)
            sarg = self._sargable(local_preds, index.key_columns[0],
                                  binding, scope)
            if sarg is not None:
                sel_sarg = est.predicate(sarg)
                leaf_blocks = max(1.0, index.size_blocks * sel_sarg)
                matched = table.row_count * sel_sarg
                seek = partial(ops.IndexSeekOp, index.name, table.name,
                               binding, blocks=leaf_blocks,
                               rows_out=rows_out, order=key_order,
                               covering=covering)
                if covering:
                    add(leaf_blocks * SEQ_IO + matched * CPU_ROW,
                        key_order, seek)
                else:
                    touched = yao_blocks_touched(table.size_blocks, matched)
                    add(leaf_blocks * SEQ_IO + touched * RAND_IO
                        + matched * (CPU_ROW + LOOKUP_CPU), key_order,
                        partial(_rid_lookup, seek, table.name, binding,
                                touched, rows_out))
            if covering:
                # 4. Covering index full scan (smaller than the table).
                add(index.size_blocks * SEQ_IO + table.row_count * CPU_ROW,
                    key_order,
                    partial(ops.IndexScanOp, index.name, table.name,
                            binding, blocks=float(index.size_blocks),
                            rows_out=rows_out, order=key_order))
        return _prune_by_order(cands)

    def _sargable(self, preds: list[ast.Expr], column: str, binding: str,
                  scope: _Scope) -> ast.Expr | None:
        """First predicate usable to seek on ``binding.column``, if any."""
        for pred in preds:
            target: ast.Expr | None = None
            if isinstance(pred, ast.BinaryOp) \
                    and pred.op in ("=", "<", ">", "<=", ">="):
                for side, other in ((pred.left, pred.right),
                                    (pred.right, pred.left)):
                    if isinstance(side, ast.ColumnRef) \
                            and isinstance(other,
                                           (ast.Literal, ast.UnaryOp)):
                        target = side
                        break
            elif isinstance(pred, (ast.BetweenExpr, ast.InList)) \
                    and not pred.negated \
                    and isinstance(pred.operand, ast.ColumnRef):
                target = pred.operand
            if target is None:
                continue
            hit = scope.resolve_local(target)  # type: ignore[arg-type]
            if hit == (binding, column):
                return pred
        return None

    # -- join ordering -----------------------------------------------------------

    def _join_order(self, scope: _Scope,
                    base: dict[str, list[_Candidate]],
                    joins: list[JoinPredicate],
                    needed: dict[str, set[str]]) -> list[_Candidate]:
        bindings = list(scope.bindings)
        if len(bindings) == 1:
            return base[bindings[0]]

        join_map: dict[frozenset[str], list[JoinPredicate]] = {}
        for jp in joins:
            join_map.setdefault(jp.bindings(), []).append(jp)

        # best[subset][order] = cheapest candidate with that output order
        best: dict[frozenset[str], dict[_Order, _Candidate]] = {
            frozenset({b}): {c.order: c for c in base[b]} for b in bindings}
        for size in range(1, len(bindings)):
            subsets = [s for s in best if len(s) == size]
            for subset in subsets:
                extensions = [b for b in bindings if b not in subset]
                connected = [b for b in extensions
                             if any(join_map.get(frozenset({b, o}))
                                    for o in subset)]
                targets = connected or extensions  # cross join as last resort
                for b in targets:
                    # FROM order, not set order: the first predicate
                    # names the merge and index-NL key, and the product
                    # of selectivities is rounded in this order.
                    preds = [(o, jp) for o in bindings if o in subset
                             for jp in join_map.get(frozenset({b, o}), ())]
                    joined = subset | {b}
                    self._extend(scope, list(best[subset].values()), b,
                                 base[b], preds, needed[b], joined,
                                 best.setdefault(joined, {}))
        full = frozenset(bindings)
        if full not in best:
            raise PlanningError("join enumeration failed to cover all tables")
        return list(best[full].values())

    def _extend(self, scope: _Scope, lefts: list[_Candidate], binding: str,
                rights: list[_Candidate],
                preds: list[tuple[str, JoinPredicate]],
                needed_cols: set[str], joined: frozenset[str],
                bucket: dict[_Order, _Candidate]) -> None:
        """Offer every join of a ``lefts`` candidate with an access path
        of ``binding`` to ``bucket``, the incumbents of ``joined`` by
        output order.

        Each hash, merge and index nested-loops join is costed before
        anything is built and offered in a fixed order; it replaces its
        order's incumbent only if strictly cheaper, and only a winner
        becomes a candidate.  Everything that does not depend on the
        left candidate is computed once here, and everything that does
        not depend on the access path once per left candidate.
        """
        table = scope.bindings[binding]
        sel = 1.0
        for other, jp in preds:
            sel *= join_selectivity(scope.bindings[other],
                                    jp.column_for(other),
                                    table, jp.column_for(binding))
        keys = probe = None
        if preds:
            other, lead = preds[0]
            keys = ((other, lead.column_for(other)),
                    (binding, lead.column_for(binding)))
            probe = self._nl_probe(table, keys[1][1], needed_cols)
        # Every access path of one binding has the same rows and width.
        r_rows, r_bytes = rights[0].rows, rights[0].row_bytes
        r_spill = self._spill_cost(r_rows * r_bytes)
        r_build, r_probe = r_rows * HASH_BUILD_ROW, r_rows * HASH_PROBE_ROW
        if keys is not None:
            r_sort = sort_cpu_cost(r_rows, SORT_ROW) + r_spill
            r_sorts = [0.0 if r.order and r.order[0] == keys[1] else r_sort
                       for r in rights]
        for left in lefts:
            l_cost, l_rows, l_order = left.cost, left.rows, left.order
            rows = max(0.0, l_rows * r_rows * sel)
            row_bytes = left.row_bytes + r_bytes
            l_spill = self._spill_cost(l_rows * left.row_bytes)
            l_build, l_probe = l_rows * HASH_BUILD_ROW, l_rows * HASH_PROBE_ROW
            nl_cost = None
            if keys is not None:
                if l_order and l_order[0] == keys[0]:
                    l_sort, merge_order = 0.0, l_order
                else:
                    l_sort = sort_cpu_cost(l_rows, SORT_ROW) + l_spill
                    merge_order = (keys[0],)
                merge_rows = (l_rows + r_rows) * MERGE_ROW
                if probe is not None:
                    nl_cost = _nl_cost(probe, l_cost, l_rows, rows)
            for i, right in enumerate(rights):
                pair_cost = l_cost + right.cost
                # Hash join building the right side, probed by the left.
                cost = pair_cost + r_spill + r_build + l_probe
                held = bucket.get(l_order)
                if held is None or cost < held.cost:
                    bucket[l_order] = _Candidate(
                        cost, rows, row_bytes, joined, l_order,
                        partial(self._hash_join, right, left, rows, keys))
                # Hash join building the left side, probed by the right.
                cost = pair_cost + l_spill + l_build + r_probe
                held = bucket.get(right.order)
                if held is None or cost < held.cost:
                    bucket[right.order] = _Candidate(
                        cost, rows, row_bytes, joined, right.order,
                        partial(self._hash_join, left, right, rows, keys))
                if keys is None:
                    continue
                cost = pair_cost + l_sort + r_sorts[i] + merge_rows
                held = bucket.get(merge_order)
                if held is None or cost < held.cost:
                    bucket[merge_order] = _Candidate(
                        cost, rows, row_bytes, joined, merge_order,
                        partial(self._merge_join, left, right, rows, keys))
                # The index-NL join ignores the access path: a copy
                # offered with a later path could never be cheaper.
                if i == 0 and nl_cost is not None:
                    held = bucket.get(l_order)
                    if held is None or nl_cost < held.cost:
                        bucket[l_order] = _Candidate(
                            nl_cost, rows, row_bytes, joined, l_order,
                            partial(self._nested_loops, left, binding,
                                    table, probe, rows, keys))

    def _nl_probe(self, table: Table, column: str, needed_cols: set[str],
                  ) -> tuple[Index | None, int, int | None] | None:
        """What an index nested-loops join on ``table.column`` probes:
        ``(index, probe blocks, RID-lookup blocks)``.  The index is None
        when the clustered table itself is probed; the lookup blocks are
        None when the probe covers ``needed_cols``.  None when no index
        leads with ``column``."""
        if table.clustered_on and table.clustered_on[0] == column:
            return None, table.size_blocks, None
        for index in self._db.indexes_on(table.name):
            if index.key_columns[0] == column:
                return (index, index.size_blocks,
                        None if index.covers(needed_cols)
                        else table.size_blocks)
        return None

    # -- operator trees of join candidates -----------------------------------

    def _hash_join(self, build: _Candidate, probe: _Candidate, rows: float,
                   keys: tuple[ops.OrderKey, ops.OrderKey] | None,
                   ) -> ops.PlanOp:
        return ops.HashJoinOp(
            build.tree(), probe.tree(), rows_out=rows, keys=keys,
            spill_accesses=self._spill_accesses(build.rows
                                                * build.row_bytes))

    def _merge_join(self, left: _Candidate, right: _Candidate,
                    rows: float, keys: tuple[ops.OrderKey, ops.OrderKey],
                    ) -> ops.PlanOp:
        left_plan = self._sorted_tree(left, keys[0])
        right_plan = self._sorted_tree(right, keys[1])
        return ops.MergeJoinOp(left_plan, right_plan, rows_out=rows,
                               keys=keys, order=left_plan.order)

    def _sorted_tree(self, cand: _Candidate,
                     key: ops.OrderKey) -> ops.PlanOp:
        """``cand``'s tree, under a sort on ``key`` unless already
        ordered on it."""
        if cand.order and cand.order[0] == key:
            return cand.tree()
        return ops.SortOp(cand.tree(), rows_out=cand.rows, order=(key,),
                          spill_accesses=self._spill_accesses(
                              cand.rows * cand.row_bytes))

    def _nested_loops(self, left: _Candidate, binding: str, table: Table,
                      probe: tuple[Index | None, int, int | None],
                      rows: float,
                      keys: tuple[ops.OrderKey, ops.OrderKey],
                      ) -> ops.PlanOp:
        """Index nested-loops: the inner leaf's block counts already
        include the repetition per outer row."""
        index, probe_blocks, lookup_blocks = probe
        blocks = yao_blocks_touched(probe_blocks, max(1.0, left.rows))
        inner: ops.PlanOp
        if index is None:  # clustered-index lookup: the table is the index
            inner = ops.TableScanOp(table.name, binding, blocks=blocks,
                                    rows_out=rows, range_seek=True)
            inner.accesses[0] = ops.ObjectAccess(table.name, blocks,
                                                 rows=rows,
                                                 sequential=False)
        else:
            inner = ops.IndexSeekOp(index.name, table.name, binding,
                                    blocks=blocks, rows_out=rows)
            inner.accesses[0] = ops.ObjectAccess(index.name, blocks,
                                                 rows=rows,
                                                 sequential=False)
            if lookup_blocks is not None:
                inner = ops.RidLookupOp(
                    inner, table.name, binding,
                    blocks=yao_blocks_touched(lookup_blocks, rows),
                    rows_out=rows)
        return ops.NestedLoopsJoinOp(left.tree(), inner, rows_out=rows,
                                     keys=keys, order=left.order)

    def _spill_cost(self, data_bytes: float) -> float:
        """Cost of spilling an operator input that overflows work
        memory to tempdb (written once, read once); 0 when it fits."""
        blocks = bytes_to_blocks(data_bytes, BLOCK_BYTES)
        if blocks <= self._memory_blocks:
            return 0.0
        return 2.0 * blocks * SEQ_IO

    def _spill_accesses(self, data_bytes: float) -> list[ops.ObjectAccess]:
        """The tempdb accesses :meth:`_spill_cost` charges."""
        blocks = bytes_to_blocks(data_bytes, BLOCK_BYTES)
        if blocks <= self._memory_blocks:
            return []
        return [ops.ObjectAccess(TEMPDB, blocks, write=True),
                ops.ObjectAccess(TEMPDB, blocks, write=False)]

    # -- finishing ---------------------------------------------------------------

    def _apply_residual(self, cand: _Candidate,
                        residual: list[ast.Expr]) -> _Candidate:
        if not residual:
            return cand
        rows = cand.rows * (MAGIC_RANGE ** len(residual))
        return _on_top(cand, cand.cost + cand.rows * CPU_ROW, rows,
                       cand.order, partial(ops.FilterOp, rows_out=rows))

    def _plan_subquery(self, conjunct: ast.Expr,
                       scope: _Scope) -> _SemiJoin:
        if isinstance(conjunct, (ast.InSubquery, ast.ExistsExpr)):
            select, negated = conjunct.subquery, conjunct.negated
        else:  # pragma: no cover - classification guarantees the above
            raise PlanningError("unsupported subquery conjunct")
        inner_scope = self._make_scope(select, outer=scope)
        needed = self._needed_columns(select, inner_scope)
        classified, correlations, subqueries = \
            self._classify(select, inner_scope)
        for corr in correlations:
            needed[corr.inner_binding].add(corr.inner_column)
        inner = self._plan_resolved(select, inner_scope, needed,
                                    classified, subqueries)
        keys = None
        if correlations:
            corr = correlations[0]
            keys = ((corr.inner_binding, corr.inner_column),
                    (corr.outer_binding, corr.outer_column))
        elif isinstance(conjunct, ast.InSubquery) \
                and isinstance(conjunct.operand, ast.ColumnRef) \
                and select.items:
            outer_hit = scope.resolve_local(conjunct.operand)
            inner_expr = select.items[0].expr
            if outer_hit is not None and isinstance(inner_expr,
                                                    ast.ColumnRef):
                inner_hit = inner_scope.resolve_local(inner_expr)
                if inner_hit is not None:
                    keys = (inner_hit, outer_hit)
        return _SemiJoin(inner, keys, negated,
                         _subquery_selectivity(conjunct))

    def _semi_join(self, cand: _Candidate, semi: _SemiJoin) -> _Candidate:
        inner, keys, anti = semi.inner, semi.keys, semi.anti
        rows = max(0.0, cand.rows * semi.sel)
        # Merge semi-join when both sides are already ordered on the
        # semi-join key (SQL Server 2000's choice on clustered keys,
        # e.g. the orderkey semi-joins of TPC-H Q4/Q18/Q21): both edges
        # pipeline, so the two sides' objects are co-accessed.
        if keys is not None:
            inner_key, outer_key = keys
            inner_ordered = inner.order is not None \
                and inner.order[0] == inner_key
            outer_ordered = cand.order is not None \
                and cand.order[0] == outer_key
            if inner_ordered and outer_ordered:
                cost = (cand.cost + inner.cost
                        + (cand.rows + inner.rows) * MERGE_ROW)
                return _Candidate(
                    cost, rows, cand.row_bytes, cand.bindings, cand.order,
                    lambda: ops.SemiJoinOp(inner.tree(), cand.tree(),
                                           rows_out=rows, keys=keys,
                                           anti=anti, merge=True))
        data = inner.rows * inner.row_bytes
        cost = (cand.cost + inner.cost + self._spill_cost(data)
                + inner.rows * HASH_BUILD_ROW
                + cand.rows * HASH_PROBE_ROW)

        def tree() -> ops.PlanOp:
            plan = ops.SemiJoinOp(inner.tree(), cand.tree(), rows_out=rows,
                                  keys=keys, anti=anti)
            plan.accesses.extend(self._spill_accesses(data))
            return plan
        return _Candidate(cost, rows, cand.row_bytes, cand.bindings,
                          cand.order, tree)

    def _apply_aggregation(self, cand: _Candidate, select: ast.Select,
                           scope: _Scope, has_agg: bool) -> _Candidate:
        if select.group_by:
            group_keys = self._order_keys(select.group_by, scope)
            ndvs = []
            for expr in select.group_by:
                ndv = self._expr_ndv(expr, scope)
                ndvs.append(ndv if ndv is not None
                            else max(1, int(cand.rows / 10) or 1))
            rows_g = grouped_rows(cand.rows, ndvs)
            cand = self._aggregate_plan(cand, group_keys, rows_g)
        elif has_agg:
            cand = _on_top(cand, cand.cost + cand.rows * CPU_ROW, 1.0,
                           cand.order,
                           partial(ops.StreamAggregateOp, rows_out=1.0))
        if select.having is not None:
            conjuncts = list(split_conjuncts(select.having))
            rows = cand.rows * (MAGIC_RANGE ** len(conjuncts))
            cand = _on_top(cand, cand.cost + cand.rows * CPU_ROW, rows,
                           cand.order, partial(ops.FilterOp, rows_out=rows))
        if select.distinct and not select.group_by and not has_agg:
            rows = max(1.0, cand.rows / 2.0)
            data = cand.rows * cand.row_bytes
            cand = _on_top(cand, cand.cost + self._spill_cost(data)
                           + cand.rows * HASH_BUILD_ROW, rows, None,
                           partial(ops.HashAggregateOp, rows_out=rows,
                                   spill_accesses=self._spill_accesses(data)))
        return cand

    def _aggregate_plan(self, cand: _Candidate,
                        group_keys: tuple[ops.OrderKey, ...] | None,
                        rows_g: float) -> _Candidate:
        ordered = (group_keys is not None and cand.order is not None
                   and len(cand.order) >= len(group_keys)
                   and set(cand.order[:len(group_keys)]) == set(group_keys))
        if ordered:
            return _on_top(cand, cand.cost + cand.rows * CPU_ROW, rows_g,
                           cand.order,
                           partial(ops.StreamAggregateOp, rows_out=rows_g))
        hash_data = rows_g * cand.row_bytes
        hash_cost = cand.rows * HASH_BUILD_ROW + self._spill_cost(hash_data)
        sort_data = cand.rows * cand.row_bytes
        sort_cost = sort_cpu_cost(cand.rows, SORT_ROW) \
            + self._spill_cost(sort_data)
        if group_keys is not None and sort_cost < hash_cost:
            sort = partial(ops.SortOp, rows_out=cand.rows, order=group_keys,
                           spill_accesses=self._spill_accesses(sort_data))
            return _on_top(cand, cand.cost + sort_cost + cand.rows * CPU_ROW,
                           rows_g, group_keys,
                           lambda child: ops.StreamAggregateOp(
                               sort(child), rows_out=rows_g))
        return _on_top(cand, cand.cost + hash_cost, rows_g, None,
                       partial(ops.HashAggregateOp, rows_out=rows_g,
                               spill_accesses=self._spill_accesses(
                                   hash_data)))

    def _apply_order_and_top(self, cand: _Candidate, select: ast.Select,
                             scope: _Scope) -> _Candidate:
        if select.order_by:
            keys = self._order_keys([i.expr for i in select.order_by],
                                    scope)
            already = (keys is not None and cand.order is not None
                       and cand.order[:len(keys)] == keys)
            if not already:
                data = cand.rows * cand.row_bytes
                order = keys or ((("", "<expr>"),))
                cand = _on_top(cand, cand.cost + self._spill_cost(data)
                               + sort_cpu_cost(cand.rows, SORT_ROW),
                               cand.rows, order,
                               partial(ops.SortOp, rows_out=cand.rows,
                                       order=order,
                                       spill_accesses=self._spill_accesses(
                                           data)))
        if select.top is not None:
            rows = min(float(select.top), cand.rows)
            cand = _on_top(cand, cand.cost, rows, cand.order,
                           partial(ops.TopOp, rows_out=rows))
        return cand

    def _order_keys(self, exprs: Sequence[ast.Expr],
                    scope: _Scope) -> tuple[ops.OrderKey, ...] | None:
        keys = []
        for expr in exprs:
            if not isinstance(expr, ast.ColumnRef):
                return None
            hit = scope.resolve_local(expr)
            if hit is None:
                return None
            keys.append(hit)
        return tuple(keys)

    def _expr_ndv(self, expr: ast.Expr, scope: _Scope) -> int | None:
        if isinstance(expr, ast.ColumnRef):
            hit = scope.resolve_local(expr)
            if hit is not None:
                column = scope.bindings[hit[0]].column(hit[1])
                if column.stats is not None:
                    return column.stats.ndv
        return None

    # -- DML ------------------------------------------------------------------

    def _dml_source(self, table_name: str,
                    where: ast.Expr | None) -> tuple[ops.PlanOp, float,
                                                     Table]:
        """Access path producing the rows a DML statement modifies."""
        table = self._db.table(table_name)
        scope = _Scope({table_name: table})
        conjuncts = list(split_conjuncts(where))
        preds = [p for p in conjuncts if not _contains_any_subquery(p)]
        needed = {table_name: {c.name for c in table.columns}}
        paths = self._access_paths(table_name, table, preds,
                                   needed[table_name], scope)
        best = min(paths, key=lambda c: c.cost)
        # A conjunct that holds a subquery filters the rows as it would
        # in a query block; its subqueries plan in _after_subqueries.
        rows = best.rows
        for conjunct in conjuncts:
            if _contains_any_subquery(conjunct):
                rows *= _subquery_selectivity(conjunct)
        return best.tree(), rows, table

    def _index_write_accesses(self, table: Table, rows: float,
                              indexes: Iterable[Index]) -> list[
                                  ops.ObjectAccess]:
        accesses = []
        for index in indexes:
            touched = yao_blocks_touched(index.size_blocks, rows)
            accesses.append(ops.ObjectAccess(index.name, touched, rows=rows,
                                             write=True, sequential=False))
        return accesses

    def _plan_insert(self, stmt: ast.Insert) -> ops.PlanOp:
        table = self._db.table(stmt.table)
        child: ops.PlanOp | None = None
        if stmt.source is not None:
            cand = self._plan_select(stmt.source, outer=None)
            child = cand.tree()
            rows = cand.rows
        else:
            rows = float(len(stmt.values))
        table_blocks = max(1.0, rows / table.rows_per_block)
        writes = [ops.ObjectAccess(table.name, table_blocks, rows=rows,
                                   write=True, sequential=True)]
        writes.extend(self._index_write_accesses(
            table, rows, self._db.indexes_on(table.name)))
        return self._after_subqueries(
            ops.DmlOp("INSERT", child, writes, rows_affected=rows),
            (expr for row in stmt.values for expr in row), None)

    def _plan_update(self, stmt: ast.Update) -> ops.PlanOp:
        child, rows, table = self._dml_source(stmt.table, stmt.where)
        touched = yao_blocks_touched(table.size_blocks, rows)
        writes = [ops.ObjectAccess(table.name, touched, rows=rows,
                                   write=True, sequential=False)]
        updated_cols = {col for col, _ in stmt.assignments}
        affected = [ix for ix in self._db.indexes_on(table.name)
                    if updated_cols & (set(ix.key_columns)
                                       | set(ix.included_columns))]
        writes.extend(self._index_write_accesses(table, rows, affected))
        return self._after_subqueries(
            ops.DmlOp("UPDATE", child, writes, rows_affected=rows),
            (*(expr for _, expr in stmt.assignments), stmt.where),
            _Scope({stmt.table: table}))

    def _plan_delete(self, stmt: ast.Delete) -> ops.PlanOp:
        child, rows, table = self._dml_source(stmt.table, stmt.where)
        touched = yao_blocks_touched(table.size_blocks, rows)
        writes = [ops.ObjectAccess(table.name, touched, rows=rows,
                                   write=True, sequential=False)]
        writes.extend(self._index_write_accesses(
            table, rows, self._db.indexes_on(table.name)))
        return self._after_subqueries(
            ops.DmlOp("DELETE", child, writes, rows_affected=rows),
            (stmt.where,), _Scope({stmt.table: table}))

    def _after_subqueries(self, plan: ops.PlanOp,
                          exprs: Iterable[ast.Expr | None],
                          outer: _Scope | None) -> ops.PlanOp:
        """A DML statement's ``plan``, run after the subqueries in its
        ``exprs``, each planned under ``outer``: one Sequence, as a
        query block runs its subqueries outside a semi-join."""
        subs = [self._plan_select(select, outer=outer).tree()
                for expr in exprs for select in _subqueries(expr)]
        return ops.SequenceOp(subs + [plan]) if subs else plan


# -- module-level helpers -----------------------------------------------------

def _on_top(cand: _Candidate, cost: float, rows: float, order: _Order,
            node: Callable[[ops.PlanOp], ops.PlanOp]) -> _Candidate:
    """A candidate whose tree is ``node`` over ``cand``'s tree."""
    return _Candidate(cost, rows, cand.row_bytes, cand.bindings, order,
                      lambda: node(cand.tree()))


def _rid_lookup(seek: Callable[[], ops.PlanOp], table: str, binding: str,
                blocks: float, rows: float) -> ops.PlanOp:
    return ops.RidLookupOp(seek(), table, binding, blocks=blocks,
                           rows_out=rows)


def _nl_cost(probe: tuple[Index | None, int, int | None], left_cost: float,
             left_rows: float, rows: float) -> float:
    """Cost of an index nested-loops join that probes ``probe`` (see
    :meth:`Planner._nl_probe`) once per left row."""
    _, probe_blocks, lookup_blocks = probe
    lookups = max(1.0, left_rows)
    cost = left_cost + yao_blocks_touched(probe_blocks, lookups) * RAND_IO \
        + lookups * LOOKUP_CPU
    if lookup_blocks is not None:
        cost += yao_blocks_touched(lookup_blocks, rows) * RAND_IO
    return cost


def _prune_by_order(cands: list[_Candidate]) -> list[_Candidate]:
    """Keep only the cheapest candidate per distinct output order."""
    bucket: dict[tuple[ops.OrderKey, ...] | None, _Candidate] = {}
    for cand in cands:
        existing = bucket.get(cand.order)
        if existing is None or cand.cost < existing.cost:
            bucket[cand.order] = cand
    return list(bucket.values())


def _normalize_not(expr: ast.Expr) -> ast.Expr:
    """Fold ``NOT EXISTS`` / ``NOT IN`` into the negated node forms."""
    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        inner = expr.operand
        if isinstance(inner, ast.ExistsExpr):
            return ast.ExistsExpr(inner.subquery, negated=not inner.negated)
        if isinstance(inner, ast.InSubquery):
            return ast.InSubquery(inner.operand, inner.subquery,
                                  negated=not inner.negated)
    return expr


def _subqueries(expr: ast.Expr | None) -> list[ast.Select]:
    """The subqueries in ``expr``'s own scope, in source order."""
    return [e.subquery for e in ast.walk(expr) if type(e) in _SUBQUERY_NODES]


def _contains_any_subquery(expr: ast.Expr) -> bool:
    return bool(_subqueries(expr))


def _subquery_selectivity(conjunct: ast.Expr) -> float:
    """The selectivity a query block gives a WHERE conjunct that holds
    a subquery: a top-level IN / EXISTS semi-joins (anti-joins when
    negated), any other conjunct is a residual filter."""
    conjunct = _normalize_not(conjunct)
    if isinstance(conjunct, ast.InSubquery):
        sel = SEMI_SEL_IN
    elif isinstance(conjunct, ast.ExistsExpr):
        sel = SEMI_SEL_EXISTS
    else:
        return MAGIC_RANGE
    return (1.0 - sel) if conjunct.negated else sel


def _has_aggregate(select: ast.Select) -> bool:
    return any(type(e) is ast.FuncCall and e.name in _AGG_NAMES
               for expr in (*(item.expr for item in select.items),
                            select.having)
               for e in ast.walk(expr))


def plan_statement(stmt: ast.Statement | str, db: Database,
                   memory_blocks: int = 1024) -> ops.PlanOp:
    """Plan a statement (SQL text or parsed AST) against a database.

    Convenience wrapper over :class:`Planner`.
    """
    if isinstance(stmt, str):
        from repro.sql import parse_statement
        stmt = parse_statement(stmt)
    return Planner(db, memory_blocks=memory_blocks).plan(stmt)
