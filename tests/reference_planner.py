"""The statement planner as it was before cost-first join enumeration.

:class:`ReferencePlanner` keeps the join dynamic program that built an
operator tree for every candidate it considered: each hash, merge and
index nested-loops alternative became a ``PlanOp`` node (with its sorts
and spill accesses) before its cost was compared, and every finishing
step wrapped a built tree.  The only change from that code is the one
the production planner also has: a join's predicates are collected in
FROM order, so the lead join key does not depend on string hashing.

The tests compare :class:`repro.optimizer.planner.Planner` against this
planner for exact equality: ``explain()`` text, every
``ObjectAccess`` with exact floats, and the decomposed subplans.
Scope, predicate classification, sargability and DML writes are shared
with the production planner, which this change leaves as they were.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanningError
from repro.optimizer import operators as ops
from repro.optimizer.cardinality import (
    bytes_to_blocks,
    grouped_rows,
    sort_cpu_cost,
    yao_blocks_touched,
)
from repro.optimizer.planner import (
    CPU_ROW,
    HASH_BUILD_ROW,
    HASH_PROBE_ROW,
    LOOKUP_CPU,
    MERGE_ROW,
    RAND_IO,
    SEMI_SEL_EXISTS,
    SEMI_SEL_IN,
    SEQ_IO,
    SORT_ROW,
    TEMPDB,
    Planner,
    _contains_any_subquery,
    _has_aggregate,
    _Scope,
)
from repro.optimizer.selectivity import (
    MAGIC_RANGE,
    join_selectivity,
    split_conjuncts,
)
from repro.sql import ast
from repro.storage.disk import BLOCK_BYTES


@dataclass
class _Candidate:
    """A partial plan considered during enumeration."""

    plan: ops.PlanOp
    cost: float
    rows: float
    row_bytes: float
    bindings: frozenset[str]

    @property
    def order(self):
        return self.plan.order


def _prune_by_order(cands):
    """Keep only the cheapest candidate per distinct output order."""
    bucket = {}
    for cand in cands:
        existing = bucket.get(cand.order)
        if existing is None or cand.cost < existing.cost:
            bucket[cand.order] = cand
    return list(bucket.values())


class ReferencePlanner(Planner):
    """Plans by building every candidate's operator tree first."""

    def plan(self, stmt):
        if isinstance(stmt, ast.Select):
            return self._plan_select(stmt, outer=None).plan
        return super().plan(stmt)

    def _plan_select(self, select, outer):
        scope = self._make_scope(select, outer)
        needed = self._needed_columns(select, scope)
        classified, correlations, scalar_subs = \
            self._classify(select, scope)
        del correlations
        return self._plan_resolved(select, scope, needed, classified,
                                   scalar_subs)

    def _plan_resolved(self, select, scope, needed, classified,
                       scalar_subs):
        base = {
            binding: self._access_paths(
                binding, scope.bindings[binding],
                classified.local.get(binding, []),
                needed[binding], scope)
            for binding in scope.bindings
        }
        join_cands = self._join_order(scope, base, classified.joins,
                                      needed)
        cand = None
        for joined in join_cands:
            finished = self._apply_residual(joined, classified.residual)
            for conjunct in classified.subqueries:
                finished = self._plan_subquery(finished, conjunct, scope)
            finished = self._apply_aggregation(finished, select, scope)
            finished = self._apply_order_and_top(finished, select, scope)
            if cand is None or finished.cost < cand.cost:
                cand = finished
        assert cand is not None
        if scalar_subs:
            sub_cands = [self._plan_select(s, outer=scope)
                         for s in scalar_subs]
            seq = ops.SequenceOp([c.plan for c in sub_cands] + [cand.plan])
            cand = _Candidate(plan=seq,
                              cost=cand.cost + sum(c.cost
                                                   for c in sub_cands),
                              rows=cand.rows, row_bytes=cand.row_bytes,
                              bindings=cand.bindings)
        return cand

    # -- access paths -------------------------------------------------------

    def _access_paths(self, binding, table, local_preds, needed_cols,
                      scope):
        est = self._estimator(binding, table, scope)
        sel_all = est.conjunction(local_preds)
        rows_out = max(0.0, table.row_count * sel_all)
        row_bytes = sum(table.column(c).width_bytes
                        for c in needed_cols) + 10
        singleton = frozenset({binding})
        cands = []

        def add(plan, cost):
            cands.append(_Candidate(plan=plan, cost=cost, rows=rows_out,
                                    row_bytes=row_bytes,
                                    bindings=singleton))

        clustered_order = None
        if table.clustered_on:
            clustered_order = tuple((binding, c) for c in table.clustered_on)
        scan = ops.TableScanOp(table.name, binding,
                               blocks=float(table.size_blocks),
                               rows_out=rows_out, order=clustered_order)
        add(scan, table.size_blocks * SEQ_IO + table.row_count * CPU_ROW)
        if table.clustered_on:
            sarg = self._sargable(local_preds, table.clustered_on[0],
                                  binding, scope)
            if sarg is not None:
                sel_sarg = est.predicate(sarg)
                blocks = max(1.0, table.size_blocks * sel_sarg)
                seek = ops.TableScanOp(table.name, binding, blocks=blocks,
                                       rows_out=rows_out,
                                       order=clustered_order,
                                       range_seek=True)
                add(seek, blocks * SEQ_IO
                    + table.row_count * sel_sarg * CPU_ROW)
        for index in self._db.indexes_on(table.name):
            key_order = tuple((binding, c) for c in index.key_columns)
            covering = index.covers(needed_cols)
            sarg = self._sargable(local_preds, index.key_columns[0],
                                  binding, scope)
            if sarg is not None:
                sel_sarg = est.predicate(sarg)
                leaf_blocks = max(1.0, index.size_blocks * sel_sarg)
                matched = table.row_count * sel_sarg
                seek = ops.IndexSeekOp(index.name, table.name, binding,
                                       blocks=leaf_blocks, rows_out=rows_out,
                                       order=key_order, covering=covering)
                if covering:
                    add(seek, leaf_blocks * SEQ_IO + matched * CPU_ROW)
                else:
                    touched = yao_blocks_touched(table.size_blocks, matched)
                    lookup = ops.RidLookupOp(seek, table.name, binding,
                                             blocks=touched,
                                             rows_out=rows_out)
                    add(lookup, leaf_blocks * SEQ_IO + touched * RAND_IO
                        + matched * (CPU_ROW + LOOKUP_CPU))
            if covering:
                full = ops.IndexScanOp(index.name, table.name, binding,
                                       blocks=float(index.size_blocks),
                                       rows_out=rows_out, order=key_order)
                add(full, index.size_blocks * SEQ_IO
                    + table.row_count * CPU_ROW)
        return _prune_by_order(cands)

    # -- join ordering --------------------------------------------------------

    def _join_order(self, scope, base, joins, needed):
        bindings = list(scope.bindings)
        if len(bindings) == 1:
            return _prune_by_order(base[bindings[0]])
        join_map = {}
        for jp in joins:
            join_map.setdefault(jp.bindings(), []).append(jp)
        best = {}
        for binding in bindings:
            best[frozenset({binding})] = {
                c.order: c for c in _prune_by_order(base[binding])}
        full = frozenset(bindings)
        for size in range(1, len(bindings)):
            subsets = [s for s in best if len(s) == size]
            for subset in subsets:
                extensions = [b for b in bindings if b not in subset]
                connected = [b for b in extensions
                             if any(join_map.get(frozenset({b, o}))
                                    for o in subset)]
                targets = connected or extensions
                for b in targets:
                    # FROM order, as in the production planner.
                    preds = [jp for o in bindings if o in subset
                             for jp in join_map.get(frozenset({b, o}), [])]
                    for left in list(best[subset].values()):
                        for cand in self._join_candidates(
                                scope, left, b, base[b], preds,
                                needed[b]):
                            self._remember(best, subset | {b}, cand)
        if full not in best:
            raise PlanningError("join enumeration failed to cover all tables")
        return list(best[full].values())

    @staticmethod
    def _remember(best, subset, cand):
        bucket = best.setdefault(subset, {})
        existing = bucket.get(cand.order)
        if existing is None or cand.cost < existing.cost:
            bucket[cand.order] = cand

    def _join_candidates(self, scope, left, binding, right_paths, preds,
                         needed_cols):
        table = scope.bindings[binding]
        out = []
        sel = 1.0
        for jp in preds:
            other = next(iter(jp.bindings() - {binding}))
            sel *= join_selectivity(scope.bindings[other],
                                    jp.column_for(other),
                                    table, jp.column_for(binding))
        lead = preds[0] if preds else None
        for right in right_paths:
            rows = max(0.0, left.rows * right.rows
                       * (sel if preds else 1.0))
            row_bytes = left.row_bytes + right.row_bytes
            merged_bindings = left.bindings | right.bindings
            keys = None
            if lead is not None:
                other = next(iter(lead.bindings() - {binding}))
                keys = ((other, lead.column_for(other)),
                        (binding, lead.column_for(binding)))
            out.extend(self._hash_joins(left, right, rows, row_bytes,
                                        merged_bindings, keys))
            if lead is not None:
                merge = self._merge_join(left, right, rows, row_bytes,
                                         merged_bindings, keys)
                if merge is not None:
                    out.append(merge)
                nl = self._index_nl(left, binding, table, rows,
                                    row_bytes, merged_bindings, keys,
                                    needed_cols)
                if nl is not None:
                    out.append(nl)
        return out

    def _hash_joins(self, left, right, rows, row_bytes, bindings, keys):
        out = []
        for build, probe in ((right, left), (left, right)):
            spill, spill_cost = self._spill(build.rows * build.row_bytes)
            cost = (left.cost + right.cost + spill_cost
                    + build.rows * HASH_BUILD_ROW
                    + probe.rows * HASH_PROBE_ROW)
            plan = ops.HashJoinOp(build.plan, probe.plan, rows_out=rows,
                                  keys=keys, spill_accesses=spill)
            out.append(_Candidate(plan=plan, cost=cost, rows=rows,
                                  row_bytes=row_bytes, bindings=bindings))
        return out

    def _merge_join(self, left, right, rows, row_bytes, bindings, keys):
        if keys is None:
            return None
        left_key, right_key = keys
        left_plan, left_cost = self._ensure_order(left, left_key)
        right_plan, right_cost = self._ensure_order(right, right_key)
        cost = (left.cost + right.cost + left_cost + right_cost
                + (left.rows + right.rows) * MERGE_ROW)
        plan = ops.MergeJoinOp(left_plan, right_plan, rows_out=rows,
                               keys=keys, order=left_plan.order)
        return _Candidate(plan=plan, cost=cost, rows=rows,
                          row_bytes=row_bytes, bindings=bindings)

    def _ensure_order(self, cand, key):
        if cand.order and cand.order[0] == key:
            return cand.plan, 0.0
        spill, spill_cost = self._spill(cand.rows * cand.row_bytes)
        cost = sort_cpu_cost(cand.rows, SORT_ROW) + spill_cost
        return ops.SortOp(cand.plan, rows_out=cand.rows, order=(key,),
                          spill_accesses=spill), cost

    def _index_nl(self, left, binding, table, rows, row_bytes, bindings,
                  keys, needed_cols):
        if keys is None:
            return None
        inner_col = keys[1][1]
        lookups = max(1.0, left.rows)
        if table.clustered_on and table.clustered_on[0] == inner_col:
            touched = yao_blocks_touched(table.size_blocks, lookups)
            inner = ops.TableScanOp(table.name, binding, blocks=touched,
                                    rows_out=rows, range_seek=True)
            inner.accesses[0] = ops.ObjectAccess(table.name, touched,
                                                 rows=rows,
                                                 sequential=False)
            cost = left.cost + touched * RAND_IO + lookups * LOOKUP_CPU
            plan = ops.NestedLoopsJoinOp(left.plan, inner, rows_out=rows,
                                         keys=keys, order=left.order)
            return _Candidate(plan=plan, cost=cost, rows=rows,
                              row_bytes=row_bytes, bindings=bindings)
        for index in self._db.indexes_on(table.name):
            if index.key_columns[0] != inner_col:
                continue
            leaf = yao_blocks_touched(index.size_blocks, lookups)
            seek = ops.IndexSeekOp(index.name, table.name, binding,
                                   blocks=leaf, rows_out=rows)
            seek.accesses[0] = ops.ObjectAccess(index.name, leaf, rows=rows,
                                                sequential=False)
            cost = left.cost + leaf * RAND_IO + lookups * LOOKUP_CPU
            inner_plan = seek
            if not index.covers(needed_cols):
                touched = yao_blocks_touched(table.size_blocks, rows)
                inner_plan = ops.RidLookupOp(seek, table.name, binding,
                                             blocks=touched, rows_out=rows)
                cost += touched * RAND_IO
            plan = ops.NestedLoopsJoinOp(left.plan, inner_plan,
                                         rows_out=rows, keys=keys,
                                         order=left.order)
            return _Candidate(plan=plan, cost=cost, rows=rows,
                              row_bytes=row_bytes, bindings=bindings)
        return None

    def _spill(self, data_bytes):
        blocks = bytes_to_blocks(data_bytes, BLOCK_BYTES)
        if blocks <= self._memory_blocks:
            return [], 0.0
        accesses = [ops.ObjectAccess(TEMPDB, blocks, write=True),
                    ops.ObjectAccess(TEMPDB, blocks, write=False)]
        return accesses, 2.0 * blocks * SEQ_IO

    # -- finishing ------------------------------------------------------------

    def _apply_residual(self, cand, residual):
        if not residual:
            return cand
        rows = cand.rows * (MAGIC_RANGE ** len(residual))
        plan = ops.FilterOp(cand.plan, rows_out=rows)
        return _Candidate(plan=plan, cost=cand.cost + cand.rows * CPU_ROW,
                          rows=rows, row_bytes=cand.row_bytes,
                          bindings=cand.bindings)

    def _plan_subquery(self, cand, conjunct, scope):
        if isinstance(conjunct, ast.InSubquery):
            select, negated = conjunct.subquery, conjunct.negated
            base_sel = SEMI_SEL_IN
        else:
            select, negated = conjunct.subquery, conjunct.negated
            base_sel = SEMI_SEL_EXISTS
        inner_scope = self._make_scope(select, outer=scope)
        needed = self._needed_columns(select, inner_scope)
        classified, correlations, scalar_subs = \
            self._classify(select, inner_scope)
        for corr in correlations:
            needed[corr.inner_binding].add(corr.inner_column)
        inner = self._plan_resolved(select, inner_scope, needed,
                                    classified, scalar_subs)
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
        sel = (1.0 - base_sel) if negated else base_sel
        rows = max(0.0, cand.rows * sel)
        if keys is not None:
            inner_key, outer_key = keys
            inner_ordered = inner.plan.order is not None \
                and inner.plan.order[0] == inner_key
            outer_ordered = cand.order is not None \
                and cand.order[0] == outer_key
            if inner_ordered and outer_ordered:
                plan = ops.SemiJoinOp(inner.plan, cand.plan,
                                      rows_out=rows, keys=keys,
                                      anti=negated, merge=True)
                cost = (cand.cost + inner.cost
                        + (cand.rows + inner.rows) * MERGE_ROW)
                return _Candidate(plan=plan, cost=cost, rows=rows,
                                  row_bytes=cand.row_bytes,
                                  bindings=cand.bindings)
        spill, spill_cost = self._spill(inner.rows * inner.row_bytes)
        plan = ops.SemiJoinOp(inner.plan, cand.plan, rows_out=rows,
                              keys=keys, anti=negated)
        plan.accesses.extend(spill)
        cost = (cand.cost + inner.cost + spill_cost
                + inner.rows * HASH_BUILD_ROW
                + cand.rows * HASH_PROBE_ROW)
        return _Candidate(plan=plan, cost=cost, rows=rows,
                          row_bytes=cand.row_bytes, bindings=cand.bindings)

    def _apply_aggregation(self, cand, select, scope):
        has_agg = _has_aggregate(select)
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
            plan = ops.StreamAggregateOp(cand.plan, rows_out=1.0)
            cand = _Candidate(plan=plan,
                              cost=cand.cost + cand.rows * CPU_ROW,
                              rows=1.0, row_bytes=cand.row_bytes,
                              bindings=cand.bindings)
        if select.having is not None:
            conjuncts = list(split_conjuncts(select.having))
            rows = cand.rows * (MAGIC_RANGE ** len(conjuncts))
            plan = ops.FilterOp(cand.plan, rows_out=rows)
            cand = _Candidate(plan=plan,
                              cost=cand.cost + cand.rows * CPU_ROW,
                              rows=rows, row_bytes=cand.row_bytes,
                              bindings=cand.bindings)
        if select.distinct and not select.group_by and not has_agg:
            rows = max(1.0, cand.rows / 2.0)
            spill, spill_cost = self._spill(cand.rows * cand.row_bytes)
            plan = ops.HashAggregateOp(cand.plan, rows_out=rows,
                                       spill_accesses=spill)
            cand = _Candidate(plan=plan,
                              cost=cand.cost + spill_cost
                              + cand.rows * HASH_BUILD_ROW,
                              rows=rows, row_bytes=cand.row_bytes,
                              bindings=cand.bindings)
        return cand

    def _aggregate_plan(self, cand, group_keys, rows_g):
        ordered = (group_keys is not None and cand.order is not None
                   and len(cand.order) >= len(group_keys)
                   and set(cand.order[:len(group_keys)]) == set(group_keys))
        if ordered:
            plan = ops.StreamAggregateOp(cand.plan, rows_out=rows_g)
            return _Candidate(plan=plan,
                              cost=cand.cost + cand.rows * CPU_ROW,
                              rows=rows_g, row_bytes=cand.row_bytes,
                              bindings=cand.bindings)
        hash_spill, hash_spill_cost = self._spill(rows_g * cand.row_bytes)
        hash_cost = cand.rows * HASH_BUILD_ROW + hash_spill_cost
        sort_spill, sort_spill_cost = self._spill(cand.rows
                                                  * cand.row_bytes)
        sort_cost = sort_cpu_cost(cand.rows, SORT_ROW) + sort_spill_cost
        if group_keys is not None and sort_cost < hash_cost:
            sort = ops.SortOp(cand.plan, rows_out=cand.rows,
                              order=group_keys, spill_accesses=sort_spill)
            plan = ops.StreamAggregateOp(sort, rows_out=rows_g)
            cost = cand.cost + sort_cost + cand.rows * CPU_ROW
        else:
            plan = ops.HashAggregateOp(cand.plan, rows_out=rows_g,
                                       spill_accesses=hash_spill)
            cost = cand.cost + hash_cost
        return _Candidate(plan=plan, cost=cost, rows=rows_g,
                          row_bytes=cand.row_bytes, bindings=cand.bindings)

    def _apply_order_and_top(self, cand, select, scope):
        if select.order_by:
            keys = self._order_keys([i.expr for i in select.order_by],
                                    scope)
            already = (keys is not None and cand.order is not None
                       and cand.order[:len(keys)] == keys)
            if not already:
                spill, spill_cost = self._spill(cand.rows * cand.row_bytes)
                plan = ops.SortOp(cand.plan, rows_out=cand.rows,
                                  order=keys or ((("", "<expr>"),)),
                                  spill_accesses=spill)
                cand = _Candidate(
                    plan=plan,
                    cost=cand.cost + spill_cost
                    + sort_cpu_cost(cand.rows, SORT_ROW),
                    rows=cand.rows, row_bytes=cand.row_bytes,
                    bindings=cand.bindings)
        if select.top is not None:
            rows = min(float(select.top), cand.rows)
            plan = ops.TopOp(cand.plan, rows_out=rows)
            cand = _Candidate(plan=plan, cost=cand.cost, rows=rows,
                              row_bytes=cand.row_bytes,
                              bindings=cand.bindings)
        return cand

    # -- DML ------------------------------------------------------------------

    def _dml_source(self, table_name, where):
        table = self._db.table(table_name)
        scope = _Scope({table_name: table})
        preds = [p for p in split_conjuncts(where)
                 if not _contains_any_subquery(p)]
        needed = {table_name: {c.name for c in table.columns}}
        paths = self._access_paths(table_name, table, preds,
                                   needed[table_name], scope)
        best = min(paths, key=lambda c: c.cost)
        return best.plan, best.rows, table

    def _plan_insert(self, stmt):
        table = self._db.table(stmt.table)
        child = None
        if stmt.source is not None:
            cand = self._plan_select(stmt.source, outer=None)
            child = cand.plan
            rows = cand.rows
        else:
            rows = float(len(stmt.values))
        table_blocks = max(1.0, rows / table.rows_per_block)
        writes = [ops.ObjectAccess(table.name, table_blocks, rows=rows,
                                   write=True, sequential=True)]
        writes.extend(self._index_write_accesses(
            table, rows, self._db.indexes_on(table.name)))
        return ops.DmlOp("INSERT", child, writes, rows_affected=rows)
