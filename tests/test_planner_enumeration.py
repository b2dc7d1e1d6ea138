"""Cost-first join enumeration against the tree-first planner it
replaced.

The planner compares cost figures and builds operator trees only for
the plan it returns; :class:`ReferencePlanner` builds a tree for every
candidate it considers.  Their plans must be identical, not just
equally cheap: ``explain()`` text, every node's rows and order, every
``ObjectAccess`` with exact floats, and the decomposed subplans.  The
plans must also not depend on string hashing.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchdb.apb import apb800_workload, apb_database
from repro.benchdb.oltp import oltp_workload
from repro.benchdb.sales import sales45_workload, sales_database
from repro.benchdb.synth import synthetic_workload
from repro.benchdb.tpch import (
    replicated_database,
    tpch22_workload,
    tpch88_workload,
    tpch_database,
)
from repro.errors import PlanningError
from repro.optimizer import operators as ops
from repro.optimizer.explain import explain
from repro.optimizer.planner import Planner
from repro.sql import parse_statement
from repro.workload.access import decompose
from tests.reference_planner import ReferencePlanner

REPO = Path(__file__).resolve().parents[1]

MEMORY_BLOCKS = (16, 1024, 100_000)


def _signature(plan: ops.PlanOp) -> list:
    """Everything a plan carries, floats as their exact repr."""
    def access(a: ops.ObjectAccess) -> tuple:
        return (a.object_name, repr(a.blocks), repr(a.rows), a.write,
                a.sequential)
    nodes = [(type(n).__name__, n.label(), repr(n.rows_out), n.order,
              n.blocking_edges, [access(a) for a in n.accesses])
             for n in ops.walk(plan)]
    subplans = [[access(a) for a in s.accesses] for s in decompose(plan)]
    return [explain(plan), nodes, subplans]


def _assert_same_plans(db, sqls, memory_blocks: int) -> None:
    planner = Planner(db, memory_blocks=memory_blocks)
    reference = ReferencePlanner(db, memory_blocks=memory_blocks)
    for sql in sqls:
        stmt = parse_statement(sql)
        try:
            expected = _signature(reference.plan(stmt))
        except PlanningError as error:
            with pytest.raises(PlanningError) as raised:
                planner.plan(stmt)
            assert str(raised.value) == str(error), sql
            continue
        assert _signature(planner.plan(stmt)) == expected, sql


# -- named workloads ----------------------------------------------------------

_WORKLOADS = {
    "tpch22": lambda: (tpch_database(), [
        s.sql for variant in range(3)
        for s in tpch22_workload(random.Random(variant))]),
    "tpch88-1": lambda: (replicated_database(1),
                         [s.sql for s in tpch88_workload(1)]),
    "tpch88-2": lambda: (replicated_database(2),
                         [s.sql for s in tpch88_workload(2)]),
    "apb800": lambda: (apb_database(), [s.sql for s in apb800_workload()]),
    "sales45": lambda: (sales_database(),
                        [s.sql for s in sales45_workload()]),
    "relayout-windows": lambda: (tpch_database(), [
        s.sql for seed in (2003, 1_000_003, 41_000_123)
        for s in synthetic_workload(80, seed=seed)]),
    "oltp": lambda: (tpch_database(), [s.sql for s in oltp_workload()]),
}


@pytest.mark.parametrize("memory_blocks", MEMORY_BLOCKS)
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_named_workloads_plan_identically(workload, memory_blocks):
    db, sqls = _WORKLOADS[workload]()
    _assert_same_plans(db, sqls, memory_blocks)


# -- generated statements -----------------------------------------------------

#: Foreign-key style edges of the TPC-H schema, some over two column
#: pairs and some joining a table to itself.
_EDGES = [
    ("lineitem", "orders", [("l_orderkey", "o_orderkey")]),
    ("orders", "customer", [("o_custkey", "c_custkey")]),
    ("lineitem", "part", [("l_partkey", "p_partkey")]),
    ("lineitem", "supplier", [("l_suppkey", "s_suppkey")]),
    ("lineitem", "partsupp", [("l_partkey", "ps_partkey"),
                              ("l_suppkey", "ps_suppkey")]),
    ("partsupp", "part", [("ps_partkey", "p_partkey")]),
    ("partsupp", "supplier", [("ps_suppkey", "s_suppkey")]),
    ("customer", "nation", [("c_nationkey", "n_nationkey")]),
    ("supplier", "nation", [("s_nationkey", "n_nationkey")]),
    ("customer", "supplier", [("c_nationkey", "s_nationkey")]),
    ("nation", "region", [("n_regionkey", "r_regionkey")]),
    ("lineitem", "lineitem", [("l_orderkey", "l_orderkey"),
                              ("l_suppkey", "l_suppkey")]),
    ("orders", "orders", [("o_custkey", "o_custkey")]),
    ("nation", "nation", [("n_regionkey", "n_regionkey")]),
]

#: Sargable columns (clustering keys and indexed columns among them)
#: with their value ranges.
_RANGES = {
    "lineitem": [("l_orderkey", 1, 6_000_000), ("l_partkey", 1, 200_000),
                 ("l_shipdate", "1992-01-02", "1998-12-01"),
                 ("l_quantity", 1, 50)],
    "orders": [("o_orderkey", 1, 6_000_000), ("o_custkey", 1, 150_000),
               ("o_orderdate", "1992-01-01", "1998-08-02"),
               ("o_totalprice", 857, 555_285)],
    "customer": [("c_custkey", 1, 150_000), ("c_nationkey", 0, 24),
                 ("c_acctbal", -999, 9_999)],
    "part": [("p_partkey", 1, 200_000), ("p_size", 1, 50)],
    "partsupp": [("ps_partkey", 1, 200_000), ("ps_availqty", 1, 9_999)],
    "supplier": [("s_suppkey", 1, 10_000), ("s_acctbal", -999, 9_999)],
    "nation": [("n_nationkey", 0, 24), ("n_regionkey", 0, 4)],
    "region": [("r_regionkey", 0, 4)],
}

#: Grouping and ordering columns (clustering keys among them).
_GROUP_COLUMNS = {
    "lineitem": ["l_returnflag", "l_orderkey"],
    "orders": ["o_orderkey", "o_orderstatus"],
    "customer": ["c_mktsegment", "c_custkey"],
    "part": ["p_brand"],
    "partsupp": ["ps_partkey"],
    "supplier": ["s_nationkey"],
    "nation": ["n_name", "n_nationkey"],
    "region": ["r_name"],
}


def _value(rng: random.Random, lo, hi) -> str:
    if isinstance(lo, str):
        year = rng.randint(int(lo[:4]), int(hi[:4]) - 1)
        return f"'{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}'"
    return str(rng.randint(lo, hi))


def _local_predicate(rng: random.Random, alias: str, table: str) -> str:
    column, lo, hi = rng.choice(_RANGES[table])
    ref = f"{alias}.{column}"
    shape = rng.randrange(4)
    if shape == 0:
        return f"{ref} {rng.choice(['<', '>', '<=', '>='])} " \
               f"{_value(rng, lo, hi)}"
    if shape == 1:
        return f"{ref} = {_value(rng, lo, hi)}"
    if shape == 2:
        a, b = sorted([_value(rng, lo, hi), _value(rng, lo, hi)])
        return f"{ref} BETWEEN {a} AND {b}"
    values = ", ".join(_value(rng, lo, hi) for _ in range(3))
    return f"{ref} IN ({values})"


def _edge_between(a: str, b: str):
    for left, right, pairs in _EDGES:
        if (left, right) == (a, b):
            return pairs
        if (left, right) == (b, a):
            return [(rc, lc) for lc, rc in pairs]
    return None


def _subquery(rng: random.Random, alias: str, table: str,
              depth: int) -> str:
    """An IN, EXISTS or NOT EXISTS conjunct over another table."""
    partners = [(other, pairs) for other in _RANGES
                if (pairs := _edge_between(table, other))]
    other, pairs = rng.choice(partners)
    inner = f"q{depth}"
    outer_col, inner_col = rng.choice(pairs)
    where = [_local_predicate(rng, inner, other)] \
        if rng.random() < 0.6 else []
    kind = rng.randrange(3)
    if kind == 0:
        where_sql = f" WHERE {' AND '.join(where)}" if where else ""
        return (f"{alias}.{outer_col} IN (SELECT {inner}.{inner_col} "
                f"FROM {other} {inner}{where_sql})")
    if rng.random() < 0.8:  # correlated
        where.append(f"{inner}.{inner_col} = {alias}.{outer_col}")
    where_sql = f" WHERE {' AND '.join(where)}" if where else ""
    negated = "NOT " if kind == 2 else ""
    return (f"{negated}EXISTS (SELECT * FROM {other} {inner}"
            f"{where_sql})")


def random_statement(rng: random.Random) -> str:
    """A SELECT over 1-6 TPC-H tables with a random join graph.

    Tables may repeat (self-joins); each table pair with a foreign-key
    edge is joined on one or both of its column pairs, or not at all,
    so graphs may be disconnected and force cross joins.
    """
    tables = [rng.choice(list(_RANGES)) for _ in range(rng.randint(1, 6))]
    aliases = [f"t{i}" for i in range(len(tables))]
    conjuncts = []
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            pairs = _edge_between(tables[i], tables[j])
            if pairs and rng.random() < 0.6:
                for lc, rc in pairs[:rng.randint(1, len(pairs))]:
                    conjuncts.append(f"{aliases[i]}.{lc} = "
                                     f"{aliases[j]}.{rc}")
    for alias, table in zip(aliases, tables):
        if rng.random() < 0.5:
            conjuncts.append(_local_predicate(rng, alias, table))
    for depth in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(tables))
        conjuncts.append(_subquery(rng, aliases[at], tables[at], depth))
    rng.shuffle(conjuncts)
    at = rng.randrange(len(tables))
    group = f"{aliases[at]}.{rng.choice(_GROUP_COLUMNS[tables[at]])}"
    top = f"TOP {rng.randint(1, 100)} " if rng.random() < 0.3 else ""
    grouped = rng.random() < 0.5
    items = f"{group}, COUNT(*)" if grouped else "COUNT(*)"
    if not grouped and rng.random() < 0.3:
        items = group
    sql = f"SELECT {top}{items} FROM " + ", ".join(
        f"{t} {a}" for t, a in zip(tables, aliases))
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if grouped:
        sql += f" GROUP BY {group}"
    if rng.random() < 0.5:
        sql += f" ORDER BY {group}"
    return sql


_TPCH = tpch_database()


@settings(deadline=None, max_examples=150, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       memory_blocks=st.sampled_from(MEMORY_BLOCKS))
def test_generated_statements_plan_identically(seed, memory_blocks):
    rng = random.Random(seed)
    _assert_same_plans(_TPCH, [random_statement(rng) for _ in range(4)],
                       memory_blocks)


def test_generator_covers_the_shapes():
    """The generator reaches every shape the differential test needs."""
    sqls = [random_statement(random.Random(seed)) for seed in range(400)]
    joined = " ".join(sqls)
    for shape in ("NOT EXISTS", " EXISTS (", " IN (SELECT", "GROUP BY",
                  "ORDER BY", "TOP ", "BETWEEN"):
        assert shape in joined, shape
    widths = {sql.split(" FROM ")[1].split(" WHERE ")[0].count(",") + 1
              for sql in sqls}
    assert widths == {1, 2, 3, 4, 5, 6}
    plans = [Planner(_TPCH).plan(parse_statement(sql)) for sql in sqls]
    kinds = {type(n).__name__ for plan in plans for n in ops.walk(plan)}
    assert {"HashJoinOp", "MergeJoinOp", "NestedLoopsJoinOp",
            "SemiJoinOp", "SortOp"} <= kinds
    # disconnected join graphs force cross joins (hash joins without keys)
    assert any(isinstance(n, ops.HashJoinOp) and n.keys is None
               for plan in plans for n in ops.walk(plan))


# -- determinism across processes ---------------------------------------------

_EXPLAIN_ALL = """
import random, sys
from repro.benchdb.tpch import tpch22_workload, tpch_database
from repro.optimizer.explain import explain
from repro.optimizer.planner import Planner
from repro.sql import parse_statement
from tests.test_planner_enumeration import random_statement
planner = Planner(tpch_database())
sqls = [s.sql for s in tpch22_workload()]
sqls += [random_statement(random.Random(seed)) for seed in range(300)]
for sql in sqls:
    sys.stdout.write(explain(planner.plan(parse_statement(sql))) + "\\n\\n")
"""


def test_plans_do_not_depend_on_string_hashing():
    """A join's predicates are collected in FROM order, so the merge
    and index-NL join keys (and plan choices made on them) are the
    same whatever ``PYTHONHASHSEED`` the process runs under."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(REPO / "src"), str(REPO)]))
        done = subprocess.run([sys.executable, "-c", _EXPLAIN_ALL],
                              cwd=REPO, env=env, capture_output=True,
                              timeout=300, check=True)
        outputs.append(done.stdout)
    assert outputs[0].count(b"\n\n") == 322
    assert outputs[0] == outputs[1]
