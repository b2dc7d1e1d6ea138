"""Tests for the cost-based planner."""

import pytest

from repro.errors import PlanningError
from repro.optimizer import operators as ops
from repro.optimizer.planner import TEMPDB, plan_statement
from repro.workload.access import decompose


def _leafs(plan, kind):
    return [n for n in ops.walk(plan) if isinstance(n, kind)]


def _objects(plan):
    return {a.object_name for n in ops.walk(plan) for a in n.accesses}


class TestAccessPaths:
    def test_single_table_scan(self, mini_db):
        plan = plan_statement("SELECT COUNT(*) FROM big b", mini_db)
        scans = _leafs(plan, ops.TableScanOp)
        assert len(scans) == 1
        assert scans[0].accesses[0].blocks == \
            mini_db.table("big").size_blocks

    def test_clustered_scan_is_ordered(self, mini_db):
        plan = plan_statement("SELECT COUNT(*) FROM big b", mini_db)
        scan = _leafs(plan, ops.TableScanOp)[0]
        assert scan.order == (("b", "k"),)

    def test_clustered_range_seek_reduces_blocks(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b WHERE b.k < 100000", mini_db)
        scan = _leafs(plan, ops.TableScanOp)[0]
        assert scan.range_seek
        assert scan.accesses[0].blocks < \
            0.2 * mini_db.table("big").size_blocks

    def test_covering_index_seek_chosen_for_selective_pred(self,
                                                           mini_db):
        plan = plan_statement(
            "SELECT SUM(b.v) FROM big b WHERE b.dim_id = 7", mini_db)
        seeks = _leafs(plan, ops.IndexSeekOp)
        assert seeks and seeks[0].index == "idx_big_dim"
        assert seeks[0].covering
        assert not _leafs(plan, ops.RidLookupOp)

    def test_non_covering_seek_adds_rid_lookup(self, mini_db):
        # idx_big_d covers only d; query needs v too, and d = const is
        # selective enough (1/2000) to beat a full scan with lookups.
        plan = plan_statement(
            "SELECT SUM(b.v) FROM big b WHERE b.d = 42", mini_db)
        lookups = _leafs(plan, ops.RidLookupOp)
        assert lookups
        assert not lookups[0].accesses[0].sequential

    def test_unselective_pred_keeps_table_scan(self, mini_db):
        plan = plan_statement(
            "SELECT SUM(b.v) FROM big b WHERE b.d >= 0", mini_db)
        assert not _leafs(plan, ops.IndexSeekOp)


class TestJoins:
    def test_clustered_keys_merge_join_without_sorts(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k",
            mini_db)
        assert _leafs(plan, ops.MergeJoinOp)
        assert not _leafs(plan, ops.SortOp)

    def test_merge_join_co_accesses_inputs(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k",
            mini_db)
        subplans = decompose(plan)
        joined = [s.objects() for s in subplans if len(s.objects()) > 1]
        assert joined and {"big", "mid"} <= joined[0]

    def test_unsortable_join_uses_hash(self, mini_db):
        # Joining on v (not a clustering key of either side, no index
        # with v leading) forces a hash join over sorting 1M rows.
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m WHERE b.v = m.w",
            mini_db)
        assert _leafs(plan, ops.HashJoinOp)

    def test_hash_join_build_edge_is_blocking(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m WHERE b.v = m.w",
            mini_db)
        join = _leafs(plan, ops.HashJoinOp)[0]
        assert join.blocking_edges == (True, False)

    def test_hash_join_separates_subplans(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m WHERE b.v = m.w",
            mini_db)
        subplans = decompose(plan)
        assert all(len(s.objects() & {"big", "mid"}) <= 1
                   for s in subplans)

    def test_cross_join_as_last_resort(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM small s, mid m", mini_db)
        assert _objects(plan) >= {"small", "mid"}

    def test_three_way_join(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m, small s "
            "WHERE b.k = m.k AND b.dim_id = s.dim_id", mini_db)
        assert _objects(plan) >= {"big", "mid", "small"}

    def test_self_join_two_bindings(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b1, big b2 WHERE b1.k = b2.k",
            mini_db)
        accesses = [a for n in ops.walk(plan) for a in n.accesses
                    if a.object_name == "big"]
        assert len(accesses) == 2


class TestBlockingStructure:
    def test_sort_is_blocking(self, mini_db):
        plan = plan_statement(
            "SELECT b.v FROM big b ORDER BY b.v", mini_db)
        sorts = _leafs(plan, ops.SortOp)
        assert sorts and sorts[0].blocking_edges == (True,)

    def test_order_by_clustering_key_avoids_sort(self, mini_db):
        plan = plan_statement(
            "SELECT b.k FROM big b ORDER BY b.k", mini_db)
        assert not _leafs(plan, ops.SortOp)

    def test_large_sort_spills_to_tempdb(self, mini_db):
        plan = plan_statement(
            "SELECT b.k, b.v, b.d FROM big b ORDER BY b.v", mini_db,
            memory_blocks=128)
        sort = _leafs(plan, ops.SortOp)[0]
        temp = [a for a in sort.accesses if a.object_name == TEMPDB]
        assert len(temp) == 2  # write then read
        assert temp[0].write and not temp[1].write

    def test_small_sort_stays_in_memory(self, mini_db):
        plan = plan_statement(
            "SELECT s.label FROM small s ORDER BY s.label", mini_db)
        sort = _leafs(plan, ops.SortOp)[0]
        assert not sort.accesses

    def test_scalar_aggregate_single_row(self, mini_db):
        plan = plan_statement("SELECT COUNT(*) FROM small s", mini_db)
        assert plan.rows_out == 1.0

    def test_group_by_stream_aggregate_on_sorted_input(self, mini_db):
        plan = plan_statement(
            "SELECT b.k, COUNT(*) FROM big b GROUP BY b.k", mini_db)
        assert _leafs(plan, ops.StreamAggregateOp)
        assert not _leafs(plan, ops.HashAggregateOp)

    def test_group_by_hash_aggregate_otherwise(self, mini_db):
        plan = plan_statement(
            "SELECT b.v, COUNT(*) FROM big b GROUP BY b.v", mini_db)
        agg = _leafs(plan, ops.HashAggregateOp)
        assert agg and agg[0].blocking_edges == (True,)

    def test_top_limits_rows(self, mini_db):
        plan = plan_statement("SELECT TOP 7 b.k FROM big b", mini_db)
        assert plan.rows_out == 7.0

    def test_distinct_dedupes(self, mini_db):
        plan = plan_statement("SELECT DISTINCT b.d FROM big b", mini_db)
        assert plan.rows_out < mini_db.table("big").row_count


class TestSubqueries:
    def test_exists_becomes_semi_join(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM mid m WHERE EXISTS "
            "(SELECT * FROM big b WHERE b.k = m.k)", mini_db)
        semis = _leafs(plan, ops.SemiJoinOp)
        assert semis and not semis[0].anti

    def test_merge_semi_join_on_clustered_keys(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM mid m WHERE EXISTS "
            "(SELECT * FROM big b WHERE b.k = m.k)", mini_db)
        semi = _leafs(plan, ops.SemiJoinOp)[0]
        assert semi.merge
        assert semi.blocking_edges == (False, False)

    def test_not_exists_is_anti(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM mid m WHERE NOT EXISTS "
            "(SELECT * FROM big b WHERE b.k = m.k)", mini_db)
        assert _leafs(plan, ops.SemiJoinOp)[0].anti

    def test_in_subquery_keys(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM mid m WHERE m.k IN "
            "(SELECT b.k FROM big b WHERE b.d = 3)", mini_db)
        semi = _leafs(plan, ops.SemiJoinOp)[0]
        assert semi.keys is not None

    def test_scalar_subquery_sequences_blocking(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM mid m WHERE m.w > "
            "(SELECT AVG(b.v + b.d) FROM big b)", mini_db)
        seqs = _leafs(plan, ops.SequenceOp)
        assert seqs
        assert all(seqs[0].blocking_edges)
        assert "big" in _objects(plan)

    def test_correlated_scalar_subquery_planned(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM mid m WHERE m.w > "
            "(SELECT AVG(b.v) FROM big b WHERE b.k = m.k)", mini_db)
        assert "big" in _objects(plan)


class TestDml:
    def test_insert_values_writes_table_and_indexes(self, mini_db):
        plan = plan_statement(
            "INSERT INTO big (k, dim_id, v, d) VALUES (1, 2, 3, 4)",
            mini_db)
        assert isinstance(plan, ops.DmlOp)
        written = {a.object_name for a in plan.accesses if a.write}
        assert written == {"big", "idx_big_d", "idx_big_dim"}

    def test_update_writes_only_affected_indexes(self, mini_db):
        plan = plan_statement(
            "UPDATE big SET v = v + 1 WHERE d = 3", mini_db)
        written = {a.object_name for a in plan.accesses if a.write}
        assert "big" in written
        assert "idx_big_dim" in written     # v is an included column
        assert "idx_big_d" not in written   # d untouched by SET

    def test_update_reads_via_child_access_path(self, mini_db):
        plan = plan_statement(
            "UPDATE big SET v = 0 WHERE k < 1000", mini_db)
        assert plan.children
        assert "big" in _objects(plan.children[0])

    def test_delete_writes_all_indexes(self, mini_db):
        plan = plan_statement("DELETE FROM big WHERE d = 3", mini_db)
        written = {a.object_name for a in plan.accesses if a.write}
        assert written == {"big", "idx_big_d", "idx_big_dim"}

    def test_insert_select(self, mini_db):
        plan = plan_statement(
            "INSERT INTO small SELECT b.dim_id, 'x' FROM big b "
            "WHERE b.d = 1", mini_db)
        assert plan.children
        assert plan.rows_out > 0


class TestErrors:
    def test_unknown_table(self, mini_db):
        with pytest.raises(PlanningError, match="unknown table"):
            plan_statement("SELECT * FROM missing", mini_db)

    def test_unknown_column(self, mini_db):
        with pytest.raises(PlanningError):
            plan_statement("SELECT zzz FROM big b WHERE zzz = 1",
                           mini_db)

    def test_ambiguous_column(self, mini_db):
        with pytest.raises(PlanningError, match="ambiguous"):
            plan_statement(
                "SELECT k FROM big b, mid m WHERE k = 1", mini_db)

    def test_duplicate_binding(self, mini_db):
        with pytest.raises(PlanningError, match="duplicate binding"):
            plan_statement("SELECT COUNT(*) FROM big b, mid b",
                           mini_db)

    def test_too_many_relations(self, mini_db):
        froms = ", ".join(f"small s{i}" for i in range(20))
        with pytest.raises(PlanningError, match="too many relations"):
            plan_statement(f"SELECT COUNT(*) FROM {froms}", mini_db)


class TestEstimates:
    def test_join_cardinality_fk_shape(self, mini_db):
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, small s "
            "WHERE b.dim_id = s.dim_id", mini_db)
        join = [n for n in ops.walk(plan)
                if isinstance(n, ops._JoinOp)][0]
        # FK join: |big| x |small| / max(ndv) = |big|
        assert join.rows_out == pytest.approx(1_000_000, rel=0.01)

    def test_filtered_rows_flow_up(self, mini_db):
        # SUM(v + d) needs columns no single index covers, so the leaf
        # is a table scan with the v-range filter folded in.
        plan = plan_statement(
            "SELECT SUM(b.v + b.d) FROM big b WHERE b.v < 1000",
            mini_db)
        scan = _leafs(plan, ops.TableScanOp)[0]
        assert scan.rows_out == pytest.approx(100_000, rel=0.05)

    def test_explain_renders(self, mini_db):
        from repro.optimizer import explain
        plan = plan_statement(
            "SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k",
            mini_db)
        text = explain(plan)
        assert "Merge Join" in text
        assert "big" in text and "mid" in text
