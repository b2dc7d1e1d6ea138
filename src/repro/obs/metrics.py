"""Counters, gauges and histograms for the advisor pipeline.

A :class:`MetricsRegistry` collects named instruments, created lazily on
first use: *counters* (monotone totals — cost-model evaluations, KL swap
moves, annealing accept/reject counts), *gauges* (last-written values —
access-graph node/edge counts), and *histograms* (distributions —
subplans per statement, candidate layouts per greedy step).

Metric naming convention (see ``docs/observability.md``): lowercase
``component.metric`` with dots as separators, e.g.
``costmodel.batch_rows`` or ``partition.kl_passes``.  The resilience
layer records its failure handling under ``resilience.*``:
``resilience.retries`` (extra in-process attempts),
``resilience.timeouts`` (trajectories lost to deadlines or per-future
caps), ``resilience.worker_crashes`` (trajectories lost to pool
breakage), ``resilience.serial_fallbacks`` (in-process re-runs after a
worker failure) and ``resilience.degraded`` (trajectories missing from
a returned result).

A :class:`repro.obs.Telemetry` owns the run's registry; library code
writes through the handle's ``inc``/``set_gauge``/``observe``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the sorted value at index
    ``round(q / 100 * (n - 1))`` (``q`` in 0..100); 0.0 for no values.

    The advisor's one quantile rule: histogram summaries (and so the
    Prometheus quantile samples) and the report's candidates/iteration
    line both read it, so the two always agree.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1,
               max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution: running count/sum/min/max plus raw samples.

    Samples are kept verbatim up to ``max_samples`` (the pipeline's
    cardinalities are small); past the cap only the running aggregates
    keep updating, so summaries stay exact while memory stays bounded.
    """

    __slots__ = ("count", "total", "min", "max", "samples",
                 "max_samples")

    def __init__(self, max_samples: int = 10_000) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_summary(self, summary: dict) -> None:
        """Fold a :meth:`MetricsRegistry.to_dict` histogram entry in.

        Count, total, min and max merge exactly.  The remote samples
        are gone by snapshot time, so percentiles after a merge are
        approximate: the snapshot's p50/p95/p99 stand in as samples.
        """
        count = int(summary.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(summary.get("total", 0.0))
        self.min = min(self.min, float(summary["min"]))
        self.max = max(self.max, float(summary["max"]))
        for key in ("p50", "p95", "p99"):
            if key in summary and len(self.samples) < self.max_samples:
                self.samples.append(float(summary[key]))

    def percentile(self, q: float) -> float:
        """:func:`percentile` over the retained samples."""
        return percentile(self.samples, q)


class MetricsRegistry:
    """Named counters, gauges and histograms, created on demand.

    A name identifies exactly one instrument; asking for it again with a
    different kind raises ``ValueError`` (catching typos early).

    With ``strict=True`` every accessed name must additionally be
    declared with the matching kind in
    :data:`repro.obs.names.METRIC_CATALOG`; an undeclared name raises
    ``ValueError``.  The test suite runs the whole pipeline strict, so
    new metric names must be added to the catalog before they can be
    emitted.
    """

    def __init__(self, strict: bool = False) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.strict = strict

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._instrument(self._counters, name, "counter", Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(self._gauges, name, "gauge", Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(self._histograms, name, "histogram",
                                Histogram)

    def _instrument(self, table: dict, name: str, kind: str, factory):
        # An existing instrument already passed the kind and catalog
        # checks.
        instrument = table.get(name)
        if instrument is None:
            self._check_kind(name, table, kind)
            instrument = table[name] = factory()
        return instrument

    def _check_kind(self, name: str, expected: dict, kind: str) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not expected and name in table:
                raise ValueError(
                    f"metric {name!r} already exists with another kind; "
                    f"cannot reuse it as a {kind}")
        if self.strict and name not in expected:
            from repro.obs.names import METRIC_CATALOG
            declared = METRIC_CATALOG.get(name)
            if declared is None:
                raise ValueError(
                    f"metric {name!r} is not declared in "
                    f"repro.obs.names.METRIC_CATALOG")
            if declared[0] != kind:
                raise ValueError(
                    f"metric {name!r} is declared as a {declared[0]}, "
                    f"not a {kind}")

    # -- convenience write paths ------------------------------------------
    # Hot paths (greedy and the kernel count every call): an existing
    # instrument is written without going through its accessor.

    def inc(self, name: str, amount: float = 1.0) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self.counter(name)
        counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self.gauge(name)
        gauge.value = float(value)

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self.histogram(name)
        histogram.observe(value)

    # -- read side ---------------------------------------------------------

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (0.0 if never written)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return 0.0

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def merge(self, snapshot: dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`to_dict` snapshot into this registry.

        Counters add, gauges take the snapshot's value (last write
        wins), histograms merge via :meth:`Histogram.merge_summary`.
        This is how per-trajectory worker metrics reach the parent
        registry after a portfolio run.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_summary(summary)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every instrument."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {"count": h.count, "total": h.total,
                       "min": h.min if h.count else 0.0,
                       "max": h.max if h.count else 0.0,
                       "mean": h.mean,
                       "p50": h.percentile(50), "p95": h.percentile(95),
                       "p99": h.percentile(99)}
                for name, h in sorted(self._histograms.items())},
        }

    def render(self) -> str:
        """Human-readable metric summary, one instrument per line."""
        lines = ["=== metrics ==="]
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name:40s} {counter.value:14.6g}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(f"{name:40s} {gauge.value:14.6g}")
        for name, hist in sorted(self._histograms.items()):
            if not hist.count:
                continue
            lines.append(
                f"{name:40s} n={hist.count} mean={hist.mean:.6g} "
                f"min={hist.min:.6g} p50={hist.percentile(50):.6g} "
                f"p95={hist.percentile(95):.6g} "
                f"p99={hist.percentile(99):.6g} max={hist.max:.6g}")
        return "\n".join(lines)
