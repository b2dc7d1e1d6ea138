"""Telemetry-contract rules (``RPC3xx``): catalog-resolved emissions.

``Telemetry(strict=True)`` and ``Telemetry.emit`` already reject
undeclared names *at runtime* — but only on code paths a test
actually exercises.  These rules resolve every literal emission in the
source against :data:`repro.obs.names.METRIC_CATALOG` and
:data:`repro.obs.events.EVENT_TYPES` *statically*, with real AST
scoping instead of the regex scrape the test suite used to run: string
literals inside comments/docstrings don't count, multi-line calls
resolve, and the method (``inc``/``set_gauge``/``observe``) must agree
with the declared kind.  Dynamic names — a variable where the literal
should be — defeat the static check and are reported as ``RPC304``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.code.engine import (
    CodeFinding,
    SourceFile,
    code_checker,
    iter_source_files,
    load_source,
)
from repro.analysis.diagnostics import Severity, register
from repro.obs.events import EVENT_TYPES
from repro.obs.names import COUNTER, GAUGE, HISTOGRAM, METRIC_CATALOG

RPC301 = register(
    "RPC301", Severity.ERROR, "code",
    "Metric emission not declared in METRIC_CATALOG")
RPC302 = register(
    "RPC302", Severity.ERROR, "code",
    "Metric emission disagrees with its declared kind")
RPC303 = register(
    "RPC303", Severity.ERROR, "code",
    "Event emission not declared in EVENT_TYPES")
RPC304 = register(
    "RPC304", Severity.INFO, "code",
    "Dynamic telemetry name defeats the static contract check")

#: The registry/recorder machinery itself handles names generically
#: (merge paths, exporters, the catalog module) — its calls are not
#: emissions.
_MACHINERY = ("obs/metrics.py", "obs/names.py", "obs/events.py",
              "obs/export.py")

_METRIC_METHODS = {"inc": COUNTER, "set_gauge": GAUGE,
                   "observe": HISTOGRAM}
_EVENT_METHOD = "emit"


@dataclass(frozen=True)
class TelemetrySite:
    """One ``.inc/.set_gauge/.observe/.emit`` call site."""

    method: str
    name: str | None  # literal first argument, None when dynamic
    line: int


def telemetry_sites(tree: ast.AST) -> Iterator[TelemetrySite]:
    """Every telemetry call site in ``tree``, literal or dynamic."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _METRIC_METHODS \
                and func.attr != _EVENT_METHOD:
            continue
        if not node.args:
            continue
        first = node.args[0]
        name = first.value if (isinstance(first, ast.Constant)
                               and isinstance(first.value, str)) \
            else None
        yield TelemetrySite(method=func.attr, name=name,
                            line=node.lineno)


def count_telemetry_sites(paths: Iterable[Path]) -> int:
    """Total telemetry call sites under ``paths`` (machinery excluded).

    The test suite uses this as a self-guard: if the emission idiom
    ever changes shape, the count collapses and the guard fails loudly
    instead of the contract checks silently checking nothing.
    """
    total = 0
    for path in iter_source_files(paths):
        if any(part in path.as_posix() for part in _MACHINERY):
            continue
        total += sum(1 for _ in telemetry_sites(load_source(path).tree))
    return total


@code_checker(RPC301, exclude=_MACHINERY)
def check_metric_names(source: SourceFile) -> Iterator[CodeFinding]:
    """Every literal metric emission must resolve to the catalog."""
    for site in telemetry_sites(source.tree):
        if site.method not in _METRIC_METHODS or site.name is None:
            continue
        if site.name not in METRIC_CATALOG:
            yield CodeFinding(
                RPC301, site.line,
                f"{site.method}({site.name!r}) is not declared in "
                "METRIC_CATALOG",
                suggestion="declare the metric (kind + help) in "
                           "repro/obs/names.py before emitting it")


@code_checker(RPC302, exclude=_MACHINERY)
def check_metric_kinds(source: SourceFile) -> Iterator[CodeFinding]:
    """``inc``/``set_gauge``/``observe`` must match the declared kind."""
    for site in telemetry_sites(source.tree):
        if site.method not in _METRIC_METHODS or site.name is None:
            continue
        declared = METRIC_CATALOG.get(site.name)
        expected = _METRIC_METHODS[site.method]
        if declared is not None and declared[0] != expected:
            yield CodeFinding(
                RPC302, site.line,
                f"{site.method}({site.name!r}) emits a {expected} but "
                f"the catalog declares a {declared[0]}",
                suggestion="use the method matching the declared kind, "
                           "or fix the catalog entry")


@code_checker(RPC303, exclude=_MACHINERY)
def check_event_types(source: SourceFile) -> Iterator[CodeFinding]:
    """Every literal recorder emission must be a declared event type."""
    for site in telemetry_sites(source.tree):
        if site.method != _EVENT_METHOD or site.name is None:
            continue
        if site.name not in EVENT_TYPES:
            yield CodeFinding(
                RPC303, site.line,
                f"emit({site.name!r}) is not declared in EVENT_TYPES",
                suggestion="declare the event type (with a one-line "
                           "description) in repro/obs/events.py")


@code_checker(RPC304, exclude=_MACHINERY)
def check_dynamic_names(source: SourceFile) -> Iterator[CodeFinding]:
    """Telemetry names should be literals the linter can resolve."""
    for site in telemetry_sites(source.tree):
        if site.name is not None:
            continue
        yield CodeFinding(
            RPC304, site.line,
            f"{site.method}(...) takes a computed name; the contract "
            "check cannot resolve it statically",
            suggestion="emit a string literal, or suppress with the "
                       "invariant that guarantees catalog membership")
