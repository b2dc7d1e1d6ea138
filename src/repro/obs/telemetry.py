"""The one telemetry handle: flight-recorder events, spans and metrics.

Library code takes one optional ``telemetry=`` argument.  A
:class:`Telemetry` records the run's ordered event timeline (the flight
recorder, :mod:`repro.obs.events`), opens spans as ``phase-start`` /
``phase-end`` event pairs (read back as a tree by
:mod:`repro.obs.trace`), and owns the run's
:class:`~repro.obs.metrics.MetricsRegistry` aggregates.  Passing
nothing selects :data:`NULL_TELEMETRY`, the one shared no-op, which
keeps untouched callers bit-identical in behavior and essentially free
in cost.

A portfolio worker builds its own handle and ships one
:meth:`Telemetry.snapshot`; the parent folds it in with one
:meth:`Telemetry.merge`.

Usage::

    telemetry = Telemetry(path="events.jsonl")
    with telemetry.span("recommend", method="ts-greedy") as root:
        telemetry.inc("greedy.evaluations", 41)
        root.set("improvement_pct", 27.6)
    print(telemetry.render_tree())
    telemetry.close()
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, IO, Iterator

from repro.obs.events import EVENT_TYPES, new_run_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, render_tree, spans_from_events


class Telemetry:
    """Collects (and optionally streams) one run's telemetry.

    Args:
        run_id: Run identifier; generated when omitted.  Merged worker
            events are re-stamped with this id.
        source: Name stamped on every event this handle emits —
            ``"parent"`` for the main process, ``"trajectory-<i>"``
            inside portfolio workers, ``"server"`` in the daemon.
        path: Optional JSONL sink, truncated on open: every event is
            written and flushed as it is emitted, so a crashed run
            still leaves a readable prefix of its timeline, and each
            file holds exactly one run.
        clock: Monotonic time source (injectable for tests).
        cpu_clock: Process CPU time source; each ``phase-end`` carries
            the CPU seconds its span covered.
        strict: Require every metric name to be declared in
            :data:`repro.obs.names.METRIC_CATALOG`.

    ``inc``, ``set_gauge``, ``observe`` and ``value`` are the
    registry's own bound methods, so a counter increment costs exactly
    what :meth:`MetricsRegistry.inc` costs.
    """

    def __init__(self, run_id: str | None = None,
                 source: str = "parent",
                 path: str | Path | None = None,
                 clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.process_time,
                 strict: bool = False):
        self.run_id = run_id or new_run_id()
        self.source = source
        self.metrics = MetricsRegistry(strict=strict)
        self.inc = self.metrics.inc
        self.set_gauge = self.metrics.set_gauge
        self.observe = self.metrics.observe
        self.value = self.metrics.value
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._epoch = clock()
        self._events: list[dict[str, Any]] = []
        self._sink: IO[str] | None = \
            open(path, "w") if path is not None else None

    # -- write side --------------------------------------------------------

    def emit(self, type_: str, **data: Any) -> dict[str, Any]:
        """Append one typed event; returns the record.

        Raises:
            ValueError: When ``type_`` is not declared in
                :data:`~repro.obs.events.EVENT_TYPES` — every event type
                must be part of the documented schema.
        """
        if type_ not in EVENT_TYPES:
            raise ValueError(
                f"undeclared event type {type_!r}; declare it in "
                f"repro.obs.events.EVENT_TYPES")
        event = {
            "seq": len(self._events),
            "ts_s": round(self._clock() - self._epoch, 9),
            "run_id": self.run_id,
            "source": self.source,
            "type": type_,
            "data": data,
        }
        self._append(event)
        return event

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time one phase as a ``phase-start``/``phase-end`` pair.

        The yielded :class:`Span` collects attributes (``.set``); the
        closing ``phase-end`` carries ``wall_s``, ``cpu_s`` and every
        attribute, also when the body raises.
        """
        node = Span(name, self.emit("phase-start", phase=name)["ts_s"],
                    attrs=attrs)
        cpu_start = self._cpu_clock()
        try:
            yield node
        finally:
            wall = self._clock() - self._epoch - node.start_s
            self.emit("phase-end", phase=name, wall_s=round(wall, 9),
                      cpu_s=round(self._cpu_clock() - cpu_start, 9),
                      **node.attrs)

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another handle's :meth:`snapshot` into this run.

        Metrics merge as :meth:`MetricsRegistry.merge` defines.  Each
        event keeps its own ``source``, ``ts_s`` (relative to the
        *emitting* handle's epoch), ``type`` and ``data``, but is
        re-sequenced into this timeline and re-stamped with this
        ``run_id`` — one run, one id, one total order.  The portfolio
        engine merges in trajectory order, so the timeline does not
        depend on ``jobs``; worker spans merged while a span is open
        read back nested under it (:func:`~repro.obs.trace.
        spans_from_events`).

        Raises:
            ValueError: On an event type not declared in
                :data:`~repro.obs.events.EVENT_TYPES`.
        """
        self.metrics.merge(snapshot["metrics"])
        for event in snapshot["events"]:
            type_ = event.get("type", "")
            if type_ not in EVENT_TYPES:
                raise ValueError(
                    f"undeclared event type {type_!r} in relayed event")
            self._append({
                "seq": len(self._events),
                "ts_s": float(event.get("ts_s", 0.0)),
                "run_id": self.run_id,
                "source": str(event.get("source", "unknown")),
                "type": type_,
                "data": dict(event.get("data", {})),
            })

    def _append(self, event: dict[str, Any]) -> None:
        self._events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
            self._sink.flush()

    # -- read side ---------------------------------------------------------

    @property
    def events(self) -> list[dict[str, Any]]:
        """The recorded events, in append (= timeline) order."""
        return list(self._events)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready copy of the events and metrics, for :meth:`merge`."""
        return {"events": [dict(e, data=dict(e["data"]))
                           for e in self._events],
                "metrics": self.metrics.to_dict()}

    @property
    def roots(self) -> list[Span]:
        """The span forest, rebuilt from the event stream."""
        return spans_from_events(self._events, self.source)

    def find(self, name: str) -> Span | None:
        """Most recent span named ``name`` across all roots."""
        for root in reversed(self.roots):
            found = root.find(name)
            if found is not None:
                return found
        return None

    def render_tree(self) -> str:
        """Human-readable span tree with durations and percentages."""
        return render_tree(self.roots)

    def close(self) -> None:
        """Close the streaming sink, if one is open."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _NullSpan:
    """The no-op span context and span, one shared instance."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullTelemetry:
    """Records nothing; :data:`NULL_TELEMETRY` is its one instance."""

    __slots__ = ()
    run_id = ""

    @property
    def events(self) -> list[dict[str, Any]]:
        return []

    def emit(self, type_: str, **data: Any) -> dict[str, Any]:
        return {}

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def value(self, name: str) -> float:
        return 0.0

    def merge(self, snapshot: dict[str, Any]) -> None:
        pass


#: The shared no-op handle: the default of every ``telemetry=``.
NULL_TELEMETRY = _NullTelemetry()
