"""Recursive-descent parser for the SQL subset.

The grammar covers the shapes that appear in the paper's workloads:
multi-table SELECTs with implicit and explicit joins, conjunctive and
disjunctive predicates, BETWEEN / IN (list or subquery) / LIKE / IS NULL /
EXISTS, aggregation with GROUP BY / HAVING, ORDER BY, TOP / LIMIT, and the
three DML statements.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenKind, tokenize

_COMPARISONS = {"=", "<", ">", "<=", ">=", "<>", "!="}

#: Deepest nesting a statement may have.  Each opening parenthesis
#: (grouping, subquery, IN list, call arguments), NOT, unary sign and
#: CASE opens a level and costs the recursive descent up to 15 stack
#: frames (a subquery inside an OR, an AND and both arithmetic chains;
#: a NOT or a sign costs 1), so deeper SQL is refused with a
#: syntax error instead of exhausting Python's recursion limit.  A run
#: of AND, OR or arithmetic operators is one flat
#: :class:`~repro.sql.ast.Chain` however long it is, so nesting is the
#: only depth an expression has.  The shipped workloads nest at most 3
#: levels.
MAX_NESTING = 32

#: The operators of the two arithmetic precedence levels.
_ADDITIVE = ("+", "-", "||")
_MULTIPLICATIVE = ("*", "/", "%")


class _Parser:
    """Stateful cursor over the token stream."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token helpers ----------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> SqlSyntaxError:
        tok = self._cur
        what = tok.value or "<end of input>"
        return SqlSyntaxError(f"{message}, found {what!r}",
                              tok.line, tok.column)

    def _accept_keyword(self, *words: str) -> Token | None:
        if self._cur.is_keyword(*words):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        tok = self._accept_keyword(word)
        if tok is None:
            raise self._error(f"expected {word}")
        return tok

    def _nest(self, tok: Token) -> None:
        """Open the nesting level ``tok`` starts; callers close it with
        ``self._depth -= 1``."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise SqlSyntaxError(
                f"statement nests deeper than {MAX_NESTING} levels",
                tok.line, tok.column)

    def _accept_punct(self, ch: str) -> bool:
        tok = self._cur
        if tok.kind is TokenKind.PUNCT and tok.value == ch:
            self._advance()
            if ch == "(":
                self._nest(tok)
            elif ch == ")":
                self._depth -= 1
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        if not self._accept_punct(ch):
            raise self._error(f"expected {ch!r}")

    def _at_operator(self, ops: Sequence[str]) -> bool:
        tok = self._cur
        return tok.kind is TokenKind.OPERATOR and tok.value in ops

    def _accept_operator(self, *ops: str) -> Token | None:
        if self._cur.kind is TokenKind.OPERATOR and self._cur.value in ops:
            return self._advance()
        return None

    def _expect_ident(self, what: str = "identifier") -> str:
        if self._cur.kind is not TokenKind.IDENT:
            raise self._error(f"expected {what}")
        return self._advance().value

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse one statement, consuming a trailing semicolon if present."""
        if self._cur.is_keyword("SELECT"):
            stmt: ast.Statement = self._select()
        elif self._cur.is_keyword("INSERT"):
            stmt = self._insert()
        elif self._cur.is_keyword("UPDATE"):
            stmt = self._update()
        elif self._cur.is_keyword("DELETE"):
            stmt = self._delete()
        else:
            raise self._error("expected SELECT, INSERT, UPDATE or DELETE")
        self._accept_punct(";")
        return stmt

    def at_end(self) -> bool:
        return self._cur.kind is TokenKind.EOF

    def _select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None
        top = None
        if self._accept_keyword("TOP"):
            top = self._int_literal("TOP count")
        items, star = self._select_list()
        self._expect_keyword("FROM")
        tables, joins = self._from_clause()
        where = self._expr() if self._accept_keyword("WHERE") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._expr_list())
        having = self._expr() if self._accept_keyword("HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._order_list())
        if self._accept_keyword("LIMIT"):
            top = self._int_literal("LIMIT count")
        return ast.Select(items=tuple(items), from_tables=tuple(tables),
                          joins=tuple(joins), where=where, group_by=group_by,
                          having=having, order_by=order_by,
                          distinct=distinct, top=top, select_star=star)

    def _int_literal(self, what: str) -> int:
        if self._cur.kind is not TokenKind.NUMBER:
            raise self._error(f"expected integer for {what}")
        text = self._advance().value
        try:
            return int(text)
        except ValueError:
            raise self._error(f"expected integer for {what}") from None

    def _select_list(self) -> tuple[list[ast.SelectItem], bool]:
        if self._accept_operator("*"):
            return [], True
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        return items, False

    def _select_item(self) -> ast.SelectItem:
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias after AS")
        elif self._cur.kind is TokenKind.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _from_clause(self) -> tuple[list[ast.TableRef],
                                    list[ast.JoinClause]]:
        tables = [self._table_ref()]
        joins: list[ast.JoinClause] = []
        while True:
            if self._accept_punct(","):
                tables.append(self._table_ref())
                continue
            kind = self._join_kind()
            if kind is None:
                break
            table = self._table_ref()
            self._expect_keyword("ON")
            condition = self._expr()
            joins.append(ast.JoinClause(kind=kind, table=table,
                                        condition=condition))
        return tables, joins

    def _join_kind(self) -> str | None:
        if self._accept_keyword("JOIN"):
            return "INNER"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "INNER"
        for side in ("LEFT", "RIGHT"):
            if self._accept_keyword(side):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                return side
        return None

    def _table_ref(self) -> ast.TableRef:
        name = self._expect_ident("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias after AS")
        elif self._cur.kind is TokenKind.IDENT:
            alias = self._advance().value
        return ast.TableRef(table=name, alias=alias)

    def _order_list(self) -> list[ast.OrderItem]:
        items = [self._order_item()]
        while self._accept_punct(","):
            items.append(self._order_item())
        return items

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident("table name")
        columns: tuple[str, ...] = ()
        if self._accept_punct("("):
            cols = [self._expect_ident("column name")]
            while self._accept_punct(","):
                cols.append(self._expect_ident("column name"))
            self._expect_punct(")")
            columns = tuple(cols)
        if self._cur.is_keyword("SELECT"):
            return ast.Insert(table=table, columns=columns,
                              source=self._select())
        self._expect_keyword("VALUES")
        rows = [self._value_row()]
        while self._accept_punct(","):
            rows.append(self._value_row())
        return ast.Insert(table=table, columns=columns, values=tuple(rows))

    def _value_row(self) -> tuple[ast.Expr, ...]:
        self._expect_punct("(")
        values = [self._expr()]
        while self._accept_punct(","):
            values.append(self._expr())
        self._expect_punct(")")
        return tuple(values)

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident("table name")
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_punct(","):
            assignments.append(self._assignment())
        where = self._expr() if self._accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=tuple(assignments),
                          where=where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        col = self._expect_ident("column name")
        if self._accept_operator("=") is None:
            raise self._error("expected '=' in SET assignment")
        return col, self._expr()

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident("table name")
        where = self._expr() if self._accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    # -- expressions -------------------------------------------------------

    def _expr_list(self) -> list[ast.Expr]:
        exprs = [self._expr()]
        while self._accept_punct(","):
            exprs.append(self._expr())
        return exprs

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        first = self._and_expr()
        if self._cur.is_keyword("OR"):
            return self._chain_from(first, TokenKind.KEYWORD, ("OR",),
                                    self._and_expr)
        return first

    def _and_expr(self) -> ast.Expr:
        first = self._not_expr()
        if self._cur.is_keyword("AND"):
            return self._chain_from(first, TokenKind.KEYWORD, ("AND",),
                                    self._not_expr)
        return first

    def _chain_from(self, first: ast.Expr, kind: TokenKind,
                    ops: Sequence[str],
                    operand: Callable[[], ast.Expr]) -> ast.Chain:
        """The chain ``first`` starts, the cursor being on one of ``ops``
        (tokens of ``kind``): each link is an operator and an
        ``operand()``."""
        links: list[str] = []
        operands = [first]
        while self._cur.kind is kind and self._cur.value in ops:
            links.append(self._advance().value)
            operands.append(operand())
        return ast.Chain(tuple(links), tuple(operands))

    def _not_expr(self) -> ast.Expr:
        tok = self._accept_keyword("NOT")
        if tok is None:
            return self._predicate()
        self._nest(tok)
        expr = ast.UnaryOp("NOT", self._not_expr())
        self._depth -= 1
        return expr

    def _predicate(self) -> ast.Expr:
        if self._cur.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            sub = self._select()
            self._expect_punct(")")
            return ast.ExistsExpr(subquery=sub)
        left = self._additive()
        negated = self._accept_keyword("NOT") is not None
        if self._accept_keyword("BETWEEN"):
            lo = self._additive()
            self._expect_keyword("AND")
            hi = self._additive()
            return ast.BetweenExpr(left, lo, hi, negated=negated)
        if self._accept_keyword("IN"):
            return self._in_tail(left, negated)
        if self._accept_keyword("LIKE"):
            if self._cur.kind is not TokenKind.STRING:
                raise self._error("expected string pattern after LIKE")
            pattern = self._advance().value
            return ast.LikeExpr(left, pattern, negated=negated)
        if negated:
            raise self._error("expected BETWEEN, IN or LIKE after NOT")
        if self._accept_keyword("IS"):
            neg = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNullExpr(left, negated=neg)
        op_tok = self._accept_operator(*_COMPARISONS)
        if op_tok is not None:
            op = "<>" if op_tok.value == "!=" else op_tok.value
            self._accept_keyword("ANY", "SOME", "ALL")
            right = self._comparison_rhs()
            return ast.BinaryOp(op, left, right)
        return left

    def _comparison_rhs(self) -> ast.Expr:
        if self._cur.kind is TokenKind.PUNCT and self._cur.value == "(" \
                and self._peek_is_select():
            self._expect_punct("(")
            sub = self._select()
            self._expect_punct(")")
            return ast.ScalarSubquery(sub)
        return self._additive()

    def _in_tail(self, operand: ast.Expr, negated: bool) -> ast.Expr:
        self._expect_punct("(")
        if self._cur.is_keyword("SELECT"):
            sub = self._select()
            self._expect_punct(")")
            return ast.InSubquery(operand, sub, negated=negated)
        values = [self._expr()]
        while self._accept_punct(","):
            values.append(self._expr())
        self._expect_punct(")")
        return ast.InList(operand, tuple(values), negated=negated)

    def _peek_is_select(self) -> bool:
        return self._pos + 1 < len(self._tokens) and \
            self._tokens[self._pos + 1].is_keyword("SELECT")

    def _additive(self) -> ast.Expr:
        first = self._multiplicative()
        if self._at_operator(_ADDITIVE):
            return self._chain_from(first, TokenKind.OPERATOR, _ADDITIVE,
                                    self._multiplicative)
        return first

    def _multiplicative(self) -> ast.Expr:
        first = self._unary()
        if self._at_operator(_MULTIPLICATIVE):
            return self._chain_from(first, TokenKind.OPERATOR,
                                    _MULTIPLICATIVE, self._unary)
        return first

    def _unary(self) -> ast.Expr:
        tok = self._accept_operator("-", "+")
        if tok is None:
            return self._primary()
        self._nest(tok)
        expr = self._unary()
        self._depth -= 1
        return ast.UnaryOp("-", expr) if tok.value == "-" else expr

    def _primary(self) -> ast.Expr:
        tok = self._cur
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            value = float(tok.value) if "." in tok.value else int(tok.value)
            return ast.Literal(value)
        if tok.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(tok.value)
        if tok.is_keyword("DATE"):
            self._advance()
            if self._cur.kind is not TokenKind.STRING:
                raise self._error("expected string after DATE")
            return ast.Literal(self._advance().value)
        if tok.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if tok.is_keyword("CASE"):
            return self._case_expr()
        if tok.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            return self._aggregate()
        if tok.kind is TokenKind.PUNCT and tok.value == "(":
            if self._peek_is_select():
                self._expect_punct("(")
                sub = self._select()
                self._expect_punct(")")
                return ast.ScalarSubquery(sub)
            self._expect_punct("(")
            inner = self._expr()
            self._expect_punct(")")
            return inner
        if tok.kind is TokenKind.IDENT:
            return self._ident_expr()
        raise self._error("expected expression")

    def _case_expr(self) -> ast.Expr:
        self._nest(self._expect_keyword("CASE"))
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            cond = self._expr()
            self._expect_keyword("THEN")
            whens.append((cond, self._expr()))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_ = self._expr() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        self._depth -= 1
        return ast.CaseExpr(whens=tuple(whens), else_=else_)

    def _aggregate(self) -> ast.Expr:
        name = self._advance().value
        self._expect_punct("(")
        if self._accept_operator("*"):
            self._expect_punct(")")
            return ast.FuncCall(name=name, star=True)
        distinct = self._accept_keyword("DISTINCT") is not None
        args = [self._expr()]
        while self._accept_punct(","):
            args.append(self._expr())
        self._expect_punct(")")
        return ast.FuncCall(name=name, args=tuple(args), distinct=distinct)

    def _ident_expr(self) -> ast.Expr:
        first = self._advance().value
        if self._accept_punct("."):
            name = self._expect_ident("column name after '.'")
            return ast.ColumnRef(name=name, qualifier=first)
        if self._cur.kind is TokenKind.PUNCT and self._cur.value == "(":
            self._expect_punct("(")
            if self._accept_punct(")"):
                return ast.FuncCall(name=first.upper())
            args = [self._expr()]
            while self._accept_punct(","):
                args.append(self._expr())
            self._expect_punct(")")
            return ast.FuncCall(name=first.upper(), args=tuple(args))
        return ast.ColumnRef(name=first)


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement.

    Raises:
        SqlSyntaxError: On any lexical or grammatical error, or if extra
            tokens follow the statement.
    """
    parser = _Parser(tokenize(text))
    stmt = parser.parse_statement()
    if not parser.at_end():
        raise parser._error("unexpected trailing tokens")
    return stmt


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a semicolon-separated sequence of statements."""
    parser = _Parser(tokenize(text))
    statements = []
    while not parser.at_end():
        statements.append(parser.parse_statement())
    return statements
