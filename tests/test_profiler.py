"""Tests for profiler-trace ingestion."""

import pytest

from repro.errors import WorkloadError
from repro.workload.profiler import (
    TraceRecord,
    concurrency_from_trace,
    load_trace,
    read_trace,
    workload_from_trace,
)


def _rec(start, end, sql):
    return TraceRecord(start=start, end=end, sql=sql)


class TestTraceRecord:
    def test_overlap(self):
        a = _rec(0, 10, "a")
        b = _rec(5, 15, "b")
        assert a.overlap_with(b) == 5
        assert b.overlap_with(a) == 5

    def test_no_overlap(self):
        assert _rec(0, 5, "a").overlap_with(_rec(5, 10, "b")) == 0

    def test_invalid_interval(self):
        with pytest.raises(WorkloadError):
            _rec(10, 5, "a")

    def test_empty_sql(self):
        with pytest.raises(WorkloadError):
            _rec(0, 1, "   ")


class TestReadTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "start,end,sql\n"
            "0.0,4.0,SELECT COUNT(*) FROM big b\n"
            '1.0,5.0,"SELECT SUM(m.w) FROM mid m"\n')
        records = read_trace(path)
        assert len(records) == 2
        assert records[1].sql == "SELECT SUM(m.w) FROM mid m"

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,what\n1,SELECT\n")
        with pytest.raises(WorkloadError, match="needs columns"):
            read_trace(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("start,end,sql\nsoon,later,SELECT 1 FROM t\n")
        with pytest.raises(WorkloadError, match="trace line 2"):
            read_trace(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("start,end,sql\n")
        with pytest.raises(WorkloadError, match="no records"):
            read_trace(path)


class TestWorkloadFromTrace:
    def test_multiplicity_becomes_weight(self):
        records = [_rec(0, 1, "SELECT a FROM t"),
                   _rec(2, 3, "SELECT a FROM t"),
                   _rec(4, 5, "SELECT b FROM u")]
        workload = workload_from_trace(records)
        assert len(workload) == 2
        assert workload[0].weight == 2.0
        assert workload[1].weight == 1.0

    def test_first_seen_order_preserved(self):
        records = [_rec(0, 1, "SELECT b FROM u"),
                   _rec(1, 2, "SELECT a FROM t"),
                   _rec(2, 3, "SELECT b FROM u")]
        workload = workload_from_trace(records)
        assert workload[0].sql == "SELECT b FROM u"


class TestConcurrencyFromTrace:
    def test_overlapping_executions_grouped(self):
        records = [_rec(0, 10, "SELECT a FROM t"),
                   _rec(5, 15, "SELECT b FROM u")]
        spec = concurrency_from_trace(records)
        assert spec.concurrent_pairs() == {(0, 1)}
        # Overlap 5s of the shorter 10s run -> factor 0.5.
        assert spec.overlap_factor == pytest.approx(0.5)

    def test_sequential_executions_not_grouped(self):
        records = [_rec(0, 10, "SELECT a FROM t"),
                   _rec(10, 20, "SELECT b FROM u")]
        spec = concurrency_from_trace(records)
        assert spec.concurrent_pairs() == set()

    def test_tiny_overlaps_filtered(self):
        records = [_rec(0, 100, "SELECT a FROM t"),
                   _rec(99.9, 200, "SELECT b FROM u")]
        spec = concurrency_from_trace(records,
                                      min_overlap_fraction=0.05)
        assert spec.concurrent_pairs() == set()

    def test_self_overlap_ignored(self):
        # The same statement running twice concurrently with itself is
        # not a cross-statement pair.
        records = [_rec(0, 10, "SELECT a FROM t"),
                   _rec(5, 15, "SELECT a FROM t")]
        assert concurrency_from_trace(records).concurrent_pairs() \
            == set()

    def test_indices_match_workload_order(self):
        records = [_rec(0, 1, "SELECT a FROM t"),        # index 0
                   _rec(10, 20, "SELECT b FROM u"),      # index 1
                   _rec(15, 25, "SELECT c FROM v")]      # index 2
        spec = concurrency_from_trace(records)
        assert spec.concurrent_pairs() == {(1, 2)}


class TestEndToEnd:
    def test_trace_to_recommendation(self, tmp_path, mini_db, farm8):
        """A trace of two overlapping scans yields a concurrency-aware
        recommendation that separates the scanned tables."""
        from repro.core.advisor import LayoutAdvisor
        path = tmp_path / "trace.csv"
        path.write_text(
            "start,end,sql\n"
            "0.0,10.0,SELECT COUNT(*) FROM big b\n"
            "0.5,9.5,SELECT COUNT(*) FROM mid m\n"
            "20.0,21.0,SELECT COUNT(*) FROM small s\n")
        workload, spec = load_trace(path)
        assert len(workload) == 3
        assert spec.concurrent_pairs() == {(0, 1)}
        advisor = LayoutAdvisor(mini_db, farm8)
        rec = advisor.recommend(workload, concurrency=spec)
        big = set(rec.layout.disks_of("big"))
        mid = set(rec.layout.disks_of("mid"))
        assert not big & mid
