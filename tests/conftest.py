"""Shared test fixtures: a small catalog, workloads and farms."""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column, Database, Index, Table
from repro.catalog.stats import ColumnStats
from repro.storage.disk import uniform_farm, winbench_farm
from repro.workload.workload import Workload


def column(name: str, width: int = 8, ndv: int = 1000,
           lo: float | None = None, hi: float | None = None) -> Column:
    """A column with simple uniform statistics."""
    return Column(name, width, ColumnStats(ndv=ndv, lo=lo, hi=hi))


@pytest.fixture
def mini_db() -> Database:
    """A two-big-plus-one-small-table catalog with indexes.

    ``big`` (1M rows) and ``mid`` (250K rows) share the clustered key
    ``k`` so their join merge-joins without sorts; ``small`` is a
    dimension joined on ``dim_id``.
    """
    big = Table("big", 1_000_000, [
        column("k", ndv=1_000_000, lo=1, hi=1_000_000),
        column("dim_id", ndv=1_000, lo=1, hi=1_000),
        column("v", ndv=10_000, lo=0, hi=10_000),
        column("d", ndv=2_000, lo=0, hi=2_000),
    ], clustered_on=["k"])
    mid = Table("mid", 250_000, [
        column("k", ndv=250_000, lo=1, hi=1_000_000),
        column("w", ndv=5_000, lo=0, hi=5_000),
    ], clustered_on=["k"])
    small = Table("small", 1_000, [
        column("dim_id", ndv=1_000, lo=1, hi=1_000),
        column("label", width=20, ndv=1_000),
    ], clustered_on=["dim_id"])
    indexes = [
        Index("idx_big_d", "big", ["d"]),
        Index("idx_big_dim", "big", ["dim_id"], included_columns=["v"]),
    ]
    return Database("mini", [big, mid, small], indexes=indexes)


@pytest.fixture
def join_workload() -> Workload:
    """A workload whose dominant cost is a big-mid merge join."""
    workload = Workload(name="join")
    workload.add("SELECT COUNT(*) FROM big b, mid m WHERE b.k = m.k",
                 name="J1")
    workload.add("SELECT SUM(b.v) FROM big b", name="S1")
    return workload


@pytest.fixture
def farm8():
    """The standard heterogeneous 8-disk farm."""
    return winbench_farm(8)


@pytest.fixture
def farm4():
    """A small uniform farm for exhaustive-friendly tests."""
    return uniform_farm(4, capacity_gb=2.0)


@pytest.fixture
def force_pool(monkeypatch):
    """Run every ``jobs > 1`` portfolio on the process pool.

    The engine runs inputs that pack under
    ``POOL_MIN_PACKED_BYTES`` serially, which covers every fixture
    here; tests of the pool itself lower the constant to 0.  The pool
    also never gets more workers than ``available_workers()``, which
    is pinned to 4 so pool tests keep the pool on a 1-core host.
    """
    monkeypatch.setattr(
        "repro.parallel.portfolio.POOL_MIN_PACKED_BYTES", 0)
    monkeypatch.setattr(
        "repro.parallel.portfolio.available_workers", lambda: 4)
