"""Tokenizer for the SQL subset."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from repro.errors import SqlSyntaxError

#: Reserved words recognized by the parser (upper-cased).
KEYWORDS = frozenset({
    "SELECT", "DISTINCT", "TOP", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "ASC", "DESC", "AS", "AND", "OR", "NOT", "IN", "EXISTS",
    "BETWEEN", "LIKE", "IS", "NULL", "JOIN", "INNER", "LEFT", "RIGHT",
    "OUTER", "ON", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "CASE", "WHEN", "THEN", "ELSE",
    "END", "UNION", "ALL", "LIMIT", "INTERVAL", "DATE", "SUBSTRING", "FOR",
    "EXTRACT", "ANY", "SOME",
})


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token.

    Attributes:
        kind: Lexical category.
        value: Normalized text — keywords and operators upper-cased,
            identifiers lower-cased, strings without quotes.
        line: 1-based source line.
        column: 1-based source column.
    """

    kind: TokenKind
    value: str
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        """True if this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in words


_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%",
              "||")
_PUNCT = "(),.;"


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text.

    Comments (``-- ...`` to end of line) are skipped.  Identifiers are
    lower-cased; keywords and operators are upper-cased; string literals
    keep their case with quotes stripped.

    Raises:
        SqlSyntaxError: On an unterminated string or unexpected character.
    """
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            if end == -1:
                break
            col += end - i
            i = end
            continue
        start_line, start_col = line, col
        if ch == "'":
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal",
                                         start_line, start_col)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # escaped quote
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            tokens.append(Token(TokenKind.STRING, "".join(buf),
                                start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        # isdecimal, not isdigit: '²' is a digit that int() rejects.
        if ch.isdecimal() or (ch == "." and i + 1 < n
                              and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal()
                             or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit terminates the number
                    # (it is a qualifier dot, not a decimal point).
                    if j + 1 >= n or not text[j + 1].isdecimal():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(TokenKind.NUMBER, text[i:j],
                                start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper,
                                    start_line, start_col))
            else:
                tokens.append(Token(TokenKind.IDENT, word.lower(),
                                    start_line, start_col))
            col += j - i
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op,
                                    start_line, start_col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}",
                             start_line, start_col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
