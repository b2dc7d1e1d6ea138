"""Concurrency/resource rules (``RPC2xx``): workers, shm, globals.

The portfolio engine survives killed workers and interrupts only
because three disciplines hold: a shared-memory segment is only ever
created under a creator-owns-unlink lifecycle (registered in a
``_LIVE_SEGMENTS`` ledger that an ``atexit`` sweeper empties, so a
crash window cannot leak it), no exception is swallowed silently on
the worker/drain paths of ``parallel/`` (a silent ``except: pass``
there turns a crashed trajectory into a hung run), and no fork-hostile
mutable module global in ``parallel/`` leaks state between the parent
and forked workers.  These rules enforce all three.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.code.engine import (
    CodeFinding,
    SourceFile,
    code_checker,
    dotted_name,
)
from repro.analysis.diagnostics import Severity, register

RPC201 = register(
    "RPC201", Severity.ERROR, "code",
    "Shared-memory creation outside the creator-owns-unlink ledger")
RPC202 = register(
    "RPC202", Severity.WARNING, "code",
    "Swallowed exception on a worker/drain path")
RPC203 = register(
    "RPC203", Severity.WARNING, "code",
    "Fork-hostile mutable module global in the parallel engine")

#: The sanctioned ledger name: a module-level set of the names of
#: live segments this process created, unlinked by an ``atexit``
#: sweeper.
_LEDGER = "_LIVE_SEGMENTS"


def _is_shm_create(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None or not name.endswith("SharedMemory"):
        return False
    return any(kw.arg == "create"
               and isinstance(kw.value, ast.Constant)
               and kw.value.value is True
               for kw in node.keywords)


@code_checker(RPC201)
def check_shm_ledger(source: SourceFile) -> Iterator[CodeFinding]:
    """``SharedMemory(create=True)`` must register in the ledger.

    The enclosing function must reference ``_LIVE_SEGMENTS`` (the
    crash-recovery ledger an ``atexit`` sweeper unlinks from); a
    segment created outside it can leak in ``/dev/shm`` past process
    exit on any path ``finally`` misses.
    """
    functions = [node for node in ast.walk(source.tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
    for function in functions:
        creations = [node for node in ast.walk(function)
                     if _is_shm_create(node)]
        if not creations:
            continue
        ledgered = any(isinstance(node, ast.Name) and node.id == _LEDGER
                       for node in ast.walk(function))
        if ledgered:
            continue
        for creation in creations:
            yield CodeFinding(
                RPC201, creation.lineno,
                f"SharedMemory(create=True) in {function.name}() "
                f"never registers in {_LEDGER}",
                suggestion=f"add the segment to {_LEDGER} right after "
                           "creation (and discard it on unlink) so "
                           "an atexit sweeper covers crash paths")


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing but move on."""
    return all(
        isinstance(statement, (ast.Pass, ast.Continue, ast.Break))
        or (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant))
        for statement in handler.body)


@code_checker(RPC202, include=("parallel/",))
def check_swallowed_exceptions(source: SourceFile,
                               ) -> Iterator[CodeFinding]:
    """Flag ``except`` handlers that silently discard the error."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _swallows(node):
            continue
        caught = "bare except" if node.type is None else \
            f"except {ast.unparse(node.type)}"
        yield CodeFinding(
            RPC202, node.lineno,
            f"{caught} swallows the error without logging or "
            "re-raising",
            suggestion="log the incident, re-raise a typed error, or "
                       "suppress with a written rationale if the "
                       "swallow is a deliberate idempotency race")


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in (
            "list", "dict", "set", "defaultdict", "deque", "Counter",
            "OrderedDict")
    return False


@code_checker(RPC203, include=("parallel/",))
def check_mutable_globals(source: SourceFile) -> Iterator[CodeFinding]:
    """Flag lowercase mutable module globals in ``parallel/``.

    Forked workers inherit a snapshot of module state; a mutable
    module-level container mutated after the fork silently diverges
    between parent and children.  Deliberate process-local registries
    (the worker context) are named ``_UPPER_CASE`` and documented;
    anything else is suspect.
    """
    for statement in source.tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is None:
                continue
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if (isinstance(target, ast.Name)
                    and not target.id.isupper()
                    and not (target.id.startswith("__")
                             and target.id.endswith("__"))):
                yield CodeFinding(
                    RPC203, statement.lineno,
                    f"module global {target.id!r} is a mutable "
                    "container in a fork-shared module",
                    suggestion="pass the state explicitly, or rename "
                               "to _UPPER_CASE and document it as a "
                               "deliberate process-local registry")
