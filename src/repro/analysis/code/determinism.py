"""Determinism rules (``RPC1xx``): the ``jobs=1 ≡ jobs=N`` contract.

The portfolio engine promises bit-identical results for any ``--jobs``
value, and the flight recorder promises canonical timelines for
identical seeded runs.  Both promises die quietly the moment library
code reads the wall clock, consults the process-global ``random``
module, salts anything through builtin ``hash()`` (``PYTHONHASHSEED``
varies per process), or lets an unordered ``set`` decide an iteration
order that feeds results or telemetry.  These rules make that class of
regression a lint failure instead of a flaky chaos-CI bisect.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.code.engine import (
    CodeFinding,
    SourceFile,
    code_checker,
    dotted_name,
    parent_map,
)
from repro.analysis.diagnostics import Severity, register

RPC101 = register(
    "RPC101", Severity.ERROR, "code",
    "Wall-clock read in library code")
RPC102 = register(
    "RPC102", Severity.ERROR, "code",
    "Process-global random module call")
RPC103 = register(
    "RPC103", Severity.ERROR, "code",
    "Builtin hash() call (PYTHONHASHSEED-dependent)")
RPC104 = register(
    "RPC104", Severity.WARNING, "code",
    "Unordered set iteration feeding an ordered consumer")
RPC105 = register(
    "RPC105", Severity.WARNING, "code",
    "Raw time.* call in the parallel engine (inject a clock)")

#: Wall-clock reads: absolute time, which differs across runs and
#: machines.  ``time.perf_counter``/``time.monotonic`` are the
#: sanctioned relative clocks (and even those must be injected inside
#: ``parallel/`` — see RPC105).
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime", "time.asctime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

#: ``random.<fn>`` calls that consume the process-global RNG.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "seed",
    "betavariate", "expovariate", "getrandbits", "triangular",
})

#: Raw time functions banned inside ``parallel/``: workers replay
#: trajectories and tests fake time, so timing must flow through an
#: injected ``clock=``/``sleep=`` (the Telemetry/Deadline
#: convention).  Referencing them as *defaults* is fine — only calls
#: are flagged.
_RAW_TIME_CALLS = frozenset({
    "time.perf_counter", "time.perf_counter_ns", "time.monotonic",
    "time.monotonic_ns", "time.process_time", "time.thread_time",
    "time.sleep",
})


@code_checker(RPC101)
def check_wall_clock(source: SourceFile) -> Iterator[CodeFinding]:
    """Flag ``time.time()`` / ``datetime.now()`` style calls."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            yield CodeFinding(
                RPC101, node.lineno,
                f"wall-clock read {name}() in library code",
                suggestion="use time.perf_counter()/time.monotonic() "
                           "relative to an epoch, or take an injected "
                           "clock= parameter")


@code_checker(RPC102)
def check_global_random(source: SourceFile) -> Iterator[CodeFinding]:
    """Flag calls that consume the process-global ``random`` state."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or "." not in name:
            continue
        module, _, func = name.partition(".")
        if module == "random" and func in _GLOBAL_RANDOM_FUNCS:
            yield CodeFinding(
                RPC102, node.lineno,
                f"{name}() consumes the shared module-level RNG",
                suggestion="use a seeded random.Random(seed) instance "
                           "owned by the caller")


@code_checker(RPC103)
def check_builtin_hash(source: SourceFile) -> Iterator[CodeFinding]:
    """Flag builtin ``hash()``: salted per process for str/bytes."""
    for node in ast.walk(source.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"):
            yield CodeFinding(
                RPC103, node.lineno,
                "builtin hash() varies across processes "
                "(PYTHONHASHSEED)",
                suggestion="derive values with integer arithmetic or "
                           "hashlib over canonical bytes")


#: Callables whose output order mirrors their input order.
_ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "iter",
                          "reversed", "zip", "next"})


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@code_checker(RPC104)
def check_set_iteration(source: SourceFile) -> Iterator[CodeFinding]:
    """Flag set expressions whose iteration order escapes unsorted.

    Iterating a set is fine when the consumer is order-insensitive
    (``sorted``/``min``/``max``/``sum``/membership/another set); it is
    a determinism bug when the order reaches an ordered consumer — a
    ``for`` body with side effects, a list/tuple, ``str.join`` — and
    from there results, float accumulation order, or telemetry.
    """
    parents = parent_map(source.tree)
    for node in ast.walk(source.tree):
        if not _is_set_expression(node):
            continue
        parent = parents.get(node)
        context: str | None = None
        if isinstance(parent, ast.For) and parent.iter is node:
            context = "a for loop"
        elif (isinstance(parent, ast.comprehension)
                and parent.iter is node
                and not isinstance(parents.get(parent), ast.SetComp)):
            context = "a comprehension"
        elif isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            if (isinstance(func, ast.Name)
                    and func.id in _ORDER_SINKS):
                context = f"{func.id}()"
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                context = "str.join()"
        if context is not None:
            yield CodeFinding(
                RPC104, node.lineno,
                f"set iteration order reaches {context}",
                suggestion="wrap the set in sorted(...) before it "
                           "feeds an ordered consumer")


@code_checker(RPC105, include=("parallel/",))
def check_raw_time(source: SourceFile) -> Iterator[CodeFinding]:
    """Flag direct ``time.*`` calls inside the parallel engine."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _RAW_TIME_CALLS:
            yield CodeFinding(
                RPC105, node.lineno,
                f"raw {name}() call in the parallel engine",
                suggestion="route timing through an injected clock=/"
                           "sleep= parameter (defaulting to time.*) "
                           "so tests and replays can fake it")
