"""Tests for the SQL parser."""

from pathlib import Path

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse_script, parse_statement
from repro.sql.parser import MAX_NESTING, MAX_OPERATORS


class TestSelectBasics:
    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.select_star and stmt.items == ()
        assert stmt.from_tables == (ast.TableRef("t"),)

    def test_items_and_aliases(self):
        stmt = parse_statement("SELECT a, b AS bee, c cee FROM t")
        assert [i.alias for i in stmt.items] == [None, "bee", "cee"]

    def test_table_aliases(self):
        stmt = parse_statement("SELECT * FROM orders AS o, lineitem l")
        assert stmt.from_tables[0].binding == "o"
        assert stmt.from_tables[1].binding == "l"

    def test_distinct_and_top(self):
        stmt = parse_statement("SELECT DISTINCT TOP 5 a FROM t")
        assert stmt.distinct and stmt.top == 5

    def test_limit_sets_top(self):
        stmt = parse_statement("SELECT a FROM t LIMIT 7")
        assert stmt.top == 7

    def test_group_by_having_order_by(self):
        stmt = parse_statement(
            "SELECT a, COUNT(*) FROM t GROUP BY a "
            "HAVING COUNT(*) > 5 ORDER BY a DESC")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending

    def test_order_by_asc_default(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a ASC, b")
        assert [o.descending for o in stmt.order_by] == [False, False]

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT a FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT a FROM t SELECT")

    def test_missing_from_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT a WHERE x = 1")


class TestJoins:
    def test_explicit_inner_join(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.y")
        assert stmt.joins[0].kind == "INNER"

    def test_left_outer_join(self):
        stmt = parse_statement(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
        assert stmt.joins[0].kind == "LEFT"

    def test_mixed_implicit_and_explicit(self):
        stmt = parse_statement(
            "SELECT * FROM a, b INNER JOIN c ON b.x = c.y")
        assert len(stmt.from_tables) == 2
        assert len(stmt.joins) == 1

    def test_join_requires_on(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM a JOIN b")


class TestExpressions:
    def where(self, cond):
        return parse_statement(f"SELECT * FROM t WHERE {cond}").where

    def test_precedence_or_and(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.op == "AND"

    def test_arithmetic_precedence(self):
        expr = self.where("a = 1 + 2 * 3")
        plus = expr.right
        assert isinstance(plus, ast.BinaryOp) and plus.op == "+"
        assert isinstance(plus.right, ast.BinaryOp)
        assert plus.right.op == "*"

    def test_parenthesized(self):
        expr = self.where("(a = 1 OR b = 2) AND c = 3")
        assert expr.op == "AND"
        assert expr.left.op == "OR"

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 10")
        assert isinstance(expr, ast.BetweenExpr) and not expr.negated

    def test_not_between(self):
        expr = self.where("a NOT BETWEEN 1 AND 10")
        assert isinstance(expr, ast.BetweenExpr) and expr.negated

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert [v.value for v in expr.values] == [1, 2, 3]

    def test_not_in_list(self):
        expr = self.where("a NOT IN ('x', 'y')")
        assert isinstance(expr, ast.InList) and expr.negated

    def test_like_and_not_like(self):
        assert isinstance(self.where("a LIKE 'x%'"), ast.LikeExpr)
        expr = self.where("a NOT LIKE '%y'")
        assert expr.negated

    def test_like_requires_string(self):
        with pytest.raises(SqlSyntaxError):
            self.where("a LIKE 5")

    def test_non_decimal_digit_is_a_syntax_error(self):
        # '²' is a Unicode digit but not a decimal one: int() rejects it.
        with pytest.raises(SqlSyntaxError,
                           match="unexpected character '²'") as info:
            parse_statement("SELECT a FROM t WHERE a > ²")
        assert (info.value.line, info.value.column) == (1, 27)

    def test_is_null_and_is_not_null(self):
        assert not self.where("a IS NULL").negated
        assert self.where("a IS NOT NULL").negated

    def test_unary_not_and_minus(self):
        expr = self.where("NOT a = -1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "NOT"
        inner = expr.operand
        assert isinstance(inner.right, ast.UnaryOp)

    def test_date_literal(self):
        expr = self.where("a < DATE '1995-03-15'")
        assert expr.right == ast.Literal("1995-03-15")

    def test_null_literal(self):
        expr = self.where("a = NULL")
        assert expr.right == ast.Literal(None)

    def test_comparison_normalizes_bang_equals(self):
        assert self.where("a != 1").op == "<>"

    def test_case_expression(self):
        stmt = parse_statement(
            "SELECT SUM(CASE WHEN a = 1 THEN b ELSE 0 END) FROM t")
        agg = stmt.items[0].expr
        case = agg.args[0]
        assert isinstance(case, ast.CaseExpr)
        assert case.else_ == ast.Literal(0)

    def test_case_requires_when(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT CASE END FROM t")

    def test_aggregates(self):
        stmt = parse_statement(
            "SELECT COUNT(*), SUM(a), COUNT(DISTINCT b) FROM t")
        count, total, distinct = [i.expr for i in stmt.items]
        assert count.star
        assert total.name == "SUM"
        assert distinct.distinct

    def test_generic_function_call(self):
        stmt = parse_statement("SELECT myfunc(a, 1) FROM t")
        func = stmt.items[0].expr
        assert isinstance(func, ast.FuncCall)
        assert func.name == "MYFUNC" and len(func.args) == 2

    def test_string_concat(self):
        expr = self.where("a || 'x' = 'yx'")
        assert expr.left.op == "||"


class TestSubqueries:
    def test_in_subquery(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE a IN (SELECT b FROM u)")
        assert isinstance(stmt.where, ast.InSubquery)

    def test_exists(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE "
            "u.x = t.y)")
        assert isinstance(stmt.where, ast.ExistsExpr)

    def test_not_exists_wrapped_in_not(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM u)")
        assert isinstance(stmt.where, ast.UnaryOp)
        assert isinstance(stmt.where.operand, ast.ExistsExpr)

    def test_scalar_subquery_comparison(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE a > (SELECT AVG(b) FROM u)")
        assert isinstance(stmt.where.right, ast.ScalarSubquery)

    def test_nested_subqueries(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE b IN "
            "(SELECT c FROM v))")
        inner = stmt.where.subquery.where
        assert isinstance(inner, ast.InSubquery)


class TestDml:
    def test_insert_values(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.Insert)
        assert stmt.columns == ("a", "b")
        assert len(stmt.values) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM u")
        assert stmt.source is not None and not stmt.values

    def test_update(self):
        stmt = parse_statement(
            "UPDATE t SET a = a + 1, b = 'x' WHERE c < 5")
        assert isinstance(stmt, ast.Update)
        assert [c for c, _ in stmt.assignments] == ["a", "b"]
        assert stmt.where is not None

    def test_update_requires_assignment(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("UPDATE t SET WHERE a = 1")

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)

    def test_delete_without_where(self):
        assert parse_statement("DELETE FROM t").where is None


class TestScripts:
    def test_parse_script_multiple_statements(self):
        statements = parse_script(
            "SELECT a FROM t; DELETE FROM t; UPDATE t SET a = 1;")
        assert [type(s).__name__ for s in statements] == \
            ["Select", "Delete", "Update"]

    def test_unknown_statement_kind(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("CREATE TABLE t (a int)")


class TestColumnRefs:
    def test_column_refs_walks_everything(self):
        stmt = parse_statement(
            "SELECT a + b FROM t WHERE c BETWEEN d AND 5 "
            "AND e IN (1) AND f IS NULL")
        names = {r.name for r in ast.column_refs(stmt.items[0].expr)}
        assert names == {"a", "b"}
        where_names = {r.name for r in ast.column_refs(stmt.where)}
        assert where_names == {"c", "d", "e", "f"}

    def test_column_refs_skips_subquery_scope(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE a IN (SELECT b FROM u)")
        names = {r.name for r in ast.column_refs(stmt.where)}
        assert names == {"a"}


class TestNestingLimit:
    """Untrusted SQL may nest at most ``MAX_NESTING`` levels; deeper
    text is a syntax error at the token that opens the extra level,
    never a ``RecursionError``."""

    @staticmethod
    def _shapes(n):
        """Statements nesting ``n`` levels, one per recursive shape."""
        where = "SELECT COUNT(*) FROM orders o WHERE "
        return {
            "parentheses": where + "(" * n + "o.o_orderkey = 1" + ")" * n,
            "in-subqueries": where + "o.o_orderkey IN "
            + "(SELECT o.o_orderkey FROM orders o WHERE o.o_orderkey IN "
            * (n - 1) + "(SELECT o.o_orderkey FROM orders o" + ")" * n,
            "not": where + "NOT " * n + "o.o_orderkey = 1",
            "unary-minus": where + "o.o_orderkey = " + "- " * n + "1",
            "scalar-subqueries": "SELECT " + "(SELECT " * n
            + "o.o_orderkey FROM orders o" + ") FROM orders o" * n,
            "case": "SELECT " + "CASE WHEN o.o_orderkey = 1 THEN " * n
            + "1" + " END" * n + " FROM orders o",
            "calls": "SELECT " + "SUM(" * n + "o.o_totalprice"
            + ")" * n + " FROM orders o",
        }

    @pytest.mark.parametrize("shape, count, opener", [
        ("parentheses", 150, "("),
        ("in-subqueries", 150, "("),
        ("not", 1000, "NOT"),
        ("unary-minus", 1000, "-"),
    ])
    def test_deep_shapes_raise_a_syntax_error(self, shape, count, opener):
        sql = "-- deep\n" + self._shapes(count)[shape]
        with pytest.raises(SqlSyntaxError) as raised:
            parse_statement(sql)
        error = raised.value
        assert str(error).startswith(
            f"statement nests deeper than {MAX_NESTING} levels")
        # The position is the token opening level MAX_NESTING + 1.
        assert error.line == 2
        line = sql.splitlines()[1]
        assert line[error.column - 1:].startswith(opener)
        before = line[:error.column - 1]
        closed = before.count(")") if opener == "(" else 0
        assert before.count(opener) - closed == MAX_NESTING

    @pytest.mark.parametrize("shape", sorted(_shapes.__func__(1)))
    def test_the_limit_itself_still_plans(self, shape):
        from repro.benchdb.tpch import tpch_database
        from repro.optimizer import plan_statement
        from repro.workload.access import decompose
        at_limit = self._shapes(MAX_NESTING)[shape]
        assert decompose(plan_statement(at_limit, tpch_database()))
        with pytest.raises(SqlSyntaxError):
            parse_statement(self._shapes(MAX_NESTING + 1)[shape])

    def test_shipped_workloads_stay_far_below_the_limit(self, monkeypatch):
        from repro.benchdb.apb import apb800_workload
        from repro.benchdb.oltp import oltp_workload
        from repro.benchdb.sales import sales45_workload
        from repro.benchdb.synth import synthetic_workload
        from repro.benchdb.tpch import tpch22_workload
        from repro.sql import parser
        sqls = [s.sql for workload in (
            tpch22_workload(), apb800_workload(), sales45_workload(),
            synthetic_workload(200, 1), oltp_workload()) for s in workload]
        monkeypatch.setattr(parser, "MAX_NESTING", 3)
        for sql in sqls:
            parse_statement(sql)
        monkeypatch.setattr(parser, "MAX_NESTING", 2)
        with pytest.raises(SqlSyntaxError):
            parse_statement(tpch22_workload().statements[7].sql)
        assert MAX_NESTING >= 10 * 3

    @pytest.mark.parametrize("verb", ["recommend", "lint"])
    def test_cli_exits_2_with_an_error(self, verb, tmp_path, capsys):
        from repro.benchdb.tpch import tpch_database
        from repro.catalog.io import save_database, save_farm
        from repro.cli import main
        from repro.storage.disk import winbench_farm
        save_database(tpch_database(), tmp_path / "db.json")
        save_farm(winbench_farm(4), tmp_path / "disks.json")
        (tmp_path / "w.sql").write_text(
            "-- name: deep\n" + self._shapes(200)["parentheses"] + ";\n")
        rc = main([verb, "--database", str(tmp_path / "db.json"),
                   "--disks", str(tmp_path / "disks.json"),
                   "--workload", str(tmp_path / "w.sql")])
        out, err = capsys.readouterr()
        assert rc == 2
        if verb == "recommend":
            assert err.startswith("error: statement nests deeper than")
        else:
            assert "ALR000" in out and "nests deeper than" in out


class TestOperatorLimit:
    """A statement may chain at most ``MAX_OPERATORS`` AND, OR,
    arithmetic and ``||`` operators; a longer chain is a syntax error at
    the operator past the limit, never a ``RecursionError`` in
    planning."""

    @staticmethod
    def _shapes(n):
        """Statements chaining ``n`` operators, one per chain shape."""
        where = "SELECT COUNT(*) FROM orders o WHERE "
        return {
            "and": where + " AND ".join(
                f"o.o_orderkey <> {i}" for i in range(n + 1)),
            "sum": where + "o.o_orderkey = "
            + " + ".join("1" for _ in range(n + 1)),
        }

    @pytest.mark.parametrize("shape, operator", [("and", "AND"),
                                                 ("sum", "+")])
    def test_one_past_the_limit_is_a_syntax_error(self, shape, operator):
        sql = "-- long\n" + self._shapes(MAX_OPERATORS + 1)[shape]
        with pytest.raises(SqlSyntaxError) as raised:
            parse_statement(sql)
        error = raised.value
        assert str(error).startswith(
            f"statement chains more than {MAX_OPERATORS} operators")
        # The position is the operator past the limit.
        assert error.line == 2
        line = sql.splitlines()[1]
        assert line[error.column - 1:].startswith(operator)
        assert line[:error.column - 1].count(f" {operator} ") \
            == MAX_OPERATORS

    @pytest.mark.parametrize("shape", ["and", "sum"])
    def test_the_limit_plans_deep_in_the_stack(self, shape):
        # At the limit, the chain still plans inside 30 parentheses
        # with 300 extra caller frames.
        from repro.benchdb.tpch import tpch_database
        from repro.optimizer import plan_statement
        from repro.workload.access import decompose
        head, where = self._shapes(MAX_OPERATORS)[shape].split(" WHERE ")
        sql = f"{head} WHERE {'(' * 30}{where}{')' * 30}"
        db = tpch_database()

        def nested(frames):
            if frames == 0:
                return decompose(plan_statement(sql, db))
            return nested(frames - 1)

        assert nested(300)

    def test_the_count_is_per_statement(self):
        half = "SELECT COUNT(*) FROM orders o WHERE o.o_orderkey = " \
            + " + ".join("1" for _ in range(MAX_OPERATORS + 1))
        assert len(parse_script(f"{half};\n{half};")) == 2

    def test_shipped_workloads_stay_far_below_the_limit(self, monkeypatch):
        from repro.benchdb.apb import apb800_workload
        from repro.benchdb.oltp import oltp_workload
        from repro.benchdb.sales import sales45_workload
        from repro.benchdb.synth import synthetic_workload
        from repro.benchdb.tpch import tpch22_workload
        from repro.sql import parser
        from repro.workload.workload import Workload
        example = Workload.loads((Path(__file__).resolve().parent.parent
                                  / "examples" / "tpch" / "workload.sql")
                                 .read_text())
        sqls = [s.sql for workload in (
            tpch22_workload(), apb800_workload(), sales45_workload(),
            synthetic_workload(200, 1), oltp_workload(), example)
            for s in workload]
        monkeypatch.setattr(parser, "MAX_OPERATORS", 20)
        for sql in sqls:
            parse_statement(sql)
        assert MAX_OPERATORS >= 20 * 20

    @pytest.mark.parametrize("verb", ["recommend", "lint"])
    def test_cli_exits_2_with_an_error(self, verb, tmp_path, capsys):
        from repro.benchdb.tpch import tpch_database
        from repro.catalog.io import save_database, save_farm
        from repro.cli import main
        from repro.storage.disk import winbench_farm
        save_database(tpch_database(), tmp_path / "db.json")
        save_farm(winbench_farm(4), tmp_path / "disks.json")
        (tmp_path / "w.sql").write_text(
            "-- name: long\n" + self._shapes(1000)["and"] + ";\n")
        rc = main([verb, "--database", str(tmp_path / "db.json"),
                   "--disks", str(tmp_path / "disks.json"),
                   "--workload", str(tmp_path / "w.sql")])
        out, err = capsys.readouterr()
        assert rc == 2
        if verb == "recommend":
            assert err.startswith("error: statement chains more than")
        else:
            assert "ALR000" in out and "chains more than" in out
