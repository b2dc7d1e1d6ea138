"""Workload representation: weighted SQL statements.

Matches the paper's input model: "a set of SQL DML statements …
optionally, each statement Q in the workload may have associated with it
a weight w_Q that signifies the importance of that statement".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import WorkloadError

_WEIGHT_RE = re.compile(r"^--\s*weight\s*[:=]\s*([0-9.]+)\s*$",
                        re.IGNORECASE)
_NAME_RE = re.compile(r"^--\s*name\s*[:=]\s*(\S+)\s*$", re.IGNORECASE)


@dataclass(frozen=True)
class Statement:
    """One workload statement.

    Attributes:
        sql: The statement text.
        weight: Importance / multiplicity ``w_Q`` (default 1).
        name: Optional label used in reports, e.g. ``"Q3"``.
    """

    sql: str
    weight: float = 1.0
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.sql.strip():
            raise WorkloadError("statement text is empty")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise WorkloadError(
                "statement weight must be a positive finite number")


class Workload:
    """An ordered collection of weighted statements."""

    def __init__(self, statements: Iterable[Statement] = (),
                 name: str = "workload"):
        self._statements = list(statements)
        self.name = name

    def add(self, sql: str, weight: float = 1.0,
            name: str | None = None) -> None:
        """Append a statement."""
        self._statements.append(Statement(sql=sql, weight=weight, name=name))

    def __len__(self) -> int:
        return len(self._statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self._statements)

    def __getitem__(self, index: int) -> Statement:
        return self._statements[index]

    @property
    def statements(self) -> tuple[Statement, ...]:
        return tuple(self._statements)

    @property
    def total_weight(self) -> float:
        return sum(s.weight for s in self._statements)

    def scaled(self, factor: float) -> "Workload":
        """A copy with every weight multiplied by ``factor``."""
        return Workload(
            (Statement(s.sql, s.weight * factor, s.name)
             for s in self._statements),
            name=self.name)

    # -- file round trip -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the workload as a ``;``-separated SQL file.

        Each statement may be preceded by ``-- name: X`` and
        ``-- weight: N`` comment annotations.
        """
        lines: list[str] = []
        for stmt in self._statements:
            if stmt.name:
                lines.append(f"-- name: {stmt.name}")
            if stmt.weight != 1.0:
                lines.append(f"-- weight: {stmt.weight:g}")
            lines.append(stmt.sql.strip().rstrip(";") + ";")
            lines.append("")
        Path(path).write_text("\n".join(lines))

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "Workload":
        """Read a workload file written by :meth:`save` (or by hand)."""
        path = Path(path)
        try:
            return cls.loads(path.read_text(), name=name or path.stem)
        except WorkloadError as exc:
            raise WorkloadError(f"{exc} (file {path})") from None

    @classmethod
    def loads(cls, text: str, name: str = "workload") -> "Workload":
        """Parse workload text (the :meth:`save` format) from a string.

        The advisor service accepts workload uploads as raw SQL text;
        this is the path-free twin of :meth:`load`.
        """
        workload = cls(name=name)
        weight = 1.0
        stmt_name: str | None = None
        buffer: list[str] = []

        def flush() -> None:
            nonlocal weight, stmt_name
            sql = "\n".join(buffer).strip()
            if sql:
                workload.add(sql, weight=weight, name=stmt_name)
            buffer.clear()
            weight = 1.0
            stmt_name = None

        for line in text.splitlines():
            stripped = line.strip()
            weight_match = _WEIGHT_RE.match(stripped)
            if weight_match:
                weight = float(weight_match.group(1))
                continue
            name_match = _NAME_RE.match(stripped)
            if name_match:
                stmt_name = name_match.group(1)
                continue
            if stripped.startswith("--"):
                continue
            if stripped.endswith(";"):
                buffer.append(stripped[:-1])
                flush()
            elif stripped:
                buffer.append(stripped)
        flush()
        if len(workload) == 0:
            raise WorkloadError(f"workload {name!r} has no statements")
        return workload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workload({self.name!r}, {len(self)} statements)"
