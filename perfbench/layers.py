"""Outside-in layer tracing: wrappers around the public entry points of
each ``repro`` module, installed from the benchmark's own files.

:func:`install` patches every layer listed in :data:`FUNCTIONS` and
:data:`METHODS`.  Module-level functions are replaced wherever a loaded
``repro`` module holds a reference to them, because modules import
names directly (``repro.core.greedy.stripe_fractions``,
``repro.core.advisor.analyze_workload``, ...): patching only the
defining module would miss those call sites.  Methods are replaced on
their class, which also covers subclasses such as the budgeted greedy
search of ``repro.core.incremental``.

Each wrapper keeps a per-thread stack of open frames so it can charge
its duration to its parent; a layer's self time is its duration minus
the time its wrapped children took.  Aggregates (calls, inclusive and
self nanoseconds) are kept per layer name, and every call of a layer
not marked *hot* is also kept as a span record ``(id, name, start,
end, parent id, op id, self)``.  Hot layers (called thousands of times
per op) only accumulate, which keeps memory bounded.  Nothing is
recorded while the recorder is inactive, so warm-up ops and output
checks do not count.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

#: (module, function, layer name, hot) for module-level entry points.
FUNCTIONS = [
    ("repro.sql.parser", "parse_statement", "sql.parse", False),
    ("repro.workload.access", "analyze_workload", "workload.analyze",
     False),
    ("repro.workload.access_graph", "build_access_graph",
     "workload.graph", False),
    ("repro.workload.drift", "detect_drift", "workload.drift", False),
    ("repro.core.partitioning", "partition_access_graph",
     "partitioning.kl", False),
    ("repro.core.layout", "stripe_fractions", "layout.stripe_fractions",
     True),
    ("repro.storage.migration", "plan_migration", "storage.plan", False),
    ("repro.analysis.engine", "preflight", "analysis.preflight", False),
    ("repro.analysis.engine", "audit_recommendation", "analysis.audit",
     False),
    ("repro.analysis.engine", "audit_migration", "analysis.audit", False),
    ("repro.core.report", "render_report", "report.render", False),
    ("repro.catalog.io", "save_recommendation", "catalog.save", False),
    ("repro.server.fingerprint", "catalog_fingerprint",
     "server.fingerprint", False),
    ("repro.server.fingerprint", "job_fingerprint", "server.fingerprint",
     False),
]

#: (module, class, method, layer name, hot) for methods.
METHODS = [
    ("repro.optimizer.planner", "Planner", "plan", "optimizer.plan",
     False),
    ("repro.core.greedy", "TsGreedySearch", "search", "greedy.search",
     False),
    ("repro.core.costmodel", "WorkloadCostEvaluator", "__init__",
     "costmodel.build", False),
    ("repro.core.costmodel", "WorkloadCostEvaluator", "best_for_rows",
     "costmodel.kernel", True),
    ("repro.core.costmodel", "WorkloadCostEvaluator", "commit_rows",
     "costmodel.commit", True),
    ("repro.core.costmodel", "WorkloadCostEvaluator", "cost_with_rows",
     "costmodel.group_eval", True),
    ("repro.core.costmodel", "CostModel", "statement_cost",
     "costmodel.scalar", False),
    ("repro.core.incremental", "IncrementalSearch", "search",
     "incremental.search", False),
    ("repro.parallel.portfolio", "PortfolioSearch", "search",
     "portfolio.search", False),
    ("repro.storage.executor", "MigrationExecutor", "execute",
     "storage.execute", False),
]


def _greedy_name(args, kwargs) -> str:
    """Split greedy by mode: seeded when an initial layout was given."""
    initial = kwargs.get("initial_layout",
                         args[2] if len(args) > 2 else None)
    return "greedy.seeded" if initial is not None else "greedy.fresh"


def _kernel_counts(recorder, args, kwargs, result) -> None:
    recorder.count("costmodel.kernel_rows", len(args[2]))
    recorder.count("costmodel.pruned_rows", int(result[2]))


def _search_counts(recorder, args, kwargs, result) -> None:
    recorder.count("greedy.iterations", result.iterations)
    recorder.count("greedy.evaluations", result.evaluations)


def _analyze_counts(recorder, args, kwargs, result) -> None:
    recorder.count("workload.subplans",
                   sum(len(a.subplans) for a in result))


def _incremental_counts(recorder, args, kwargs, result) -> None:
    recorder.count("incremental.projected_moves",
                   int(result.extras.get("projected_moves", 0)))
    recorder.count("incremental.full_relayouts",
                   int(result.extras.get("full_relayout", 0)))


def _portfolio_counts(recorder, args, kwargs, result) -> None:
    recorder.count("portfolio.trajectories",
                   int(result.extras.get("trajectories", 0)))
    recorder.count("portfolio.failed_trajectories", len(result.failures))


def _plan_counts(recorder, args, kwargs, result) -> None:
    recorder.count("storage.steps", len(result.steps))


#: Layer name -> callback recording the counts a call's result carries.
COUNTERS = {
    "costmodel.kernel": _kernel_counts,
    "greedy.search": _search_counts,
    "workload.analyze": _analyze_counts,
    "incremental.search": _incremental_counts,
    "portfolio.search": _portfolio_counts,
    "storage.plan": _plan_counts,
}


class Recorder:
    """In-memory span and count store shared by every wrapper.

    Attributes:
        active: Wrappers record only while this is true.
        op: Identifier stamped on every span (the benchmark's op index).
        totals: Layer name -> ``[calls, inclusive ns, self ns]``.
        counts: Counter name -> value (work done, from call results).
        spans: Span records of the non-hot layers.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.active = False
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self.totals: dict[str, list[int]] = {}
            self.counts: dict[str, int] = {}
            self.spans: list[tuple] = []
            self._ids = itertools.count(1)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict[str, int]:
        """Call counts and work counts, flattened (for per-op deltas)."""
        with self._lock:
            out = {f"{name}.calls": t[0] for name, t in self.totals.items()}
            out.update(self.counts)
        return out

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, sid: int, start: int, end: int,
               parent: int, self_ns: int) -> None:
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_ns
            if sid:
                self.spans.append((sid, name, start, end, parent,
                                   self.op, self_ns))

    def wrap(self, fn, name, hot: bool = False, counter=None):
        """A wrapper recording ``fn`` as layer ``name``.

        ``name`` may be a callable of ``(args, kwargs)`` returning the
        layer name for that call.
        """
        perf = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            layer = name(args, kwargs) if callable(name) else name
            stack = recorder._stack()
            parent = stack[-1][1] if stack else 0
            frame = [0, 0 if hot else next(recorder._ids)]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                recorder._close(layer, frame[1], start, end, parent,
                                end - start - frame[0])
            if counter is not None:
                counter(recorder, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def to_dict(self) -> dict:
        """JSON-ready dump: aggregates, counts and span records."""
        with self._lock:
            return {
                "totals": {name: list(t) for name, t in self.totals.items()},
                "counts": dict(self.counts),
                "span_fields": ["id", "name", "start_ns", "end_ns",
                                "parent", "op", "self_ns"],
                "spans": [list(s) for s in self.spans],
            }


def install(recorder: Recorder) -> int:
    """Patch every layer entry point; returns the number of patches."""
    for module, *_ in FUNCTIONS + METHODS:
        importlib.import_module(module)
    # Packages re-export names too (repro.sql, repro.core, ...), and
    # several modules defer-import theirs, so load what imports them.
    for module in ("repro", "repro.core", "repro.core.advisor",
                   "repro.cli", "repro.server", "repro.server.api",
                   "repro.parallel", "repro.parallel.worker",
                   "repro.storage", "repro.sql", "repro.workload"):
        importlib.import_module(module)
    patched = 0
    for module, attr, layer, hot in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapper = recorder.wrap(original, layer, hot,
                                COUNTERS.get(layer))
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched += 1
    for module, cls_name, method, layer, hot in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[method]
        name = _greedy_name if layer == "greedy.search" else layer
        setattr(cls, method, recorder.wrap(original, name, hot,
                                           COUNTERS.get(layer)))
        patched += 1
    return patched
