"""repro.obs — observability for the advisor pipeline.

One handle, :class:`Telemetry`, carries a run's telemetry: the flight
recorder (an append-only JSONL event timeline), spans (each a
``phase-start``/``phase-end`` event pair, read back as a tree of
:class:`Span` nodes) and metrics (:class:`MetricsRegistry`
aggregates).  Exporters cover Prometheus text exposition and
OTLP-style JSON spans; import them from :mod:`repro.obs.export`, which
this package leaves unloaded so ``python -m repro.obs.export`` runs
clean.  Every instrumented entry point in the library accepts one
optional ``telemetry=`` argument; passing nothing selects
:data:`NULL_TELEMETRY`, the one shared no-op, which keeps untouched
callers bit-identical in behavior and essentially free in cost.

See ``docs/observability.md`` for the span naming conventions, the
event schema, and the metric catalog
(:data:`repro.obs.names.METRIC_CATALOG`).
"""

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    canonical_lines,
    read_events,
    render_timeline,
    validate_events,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.names import METRIC_CATALOG
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import Span

__all__ = [
    "Counter",
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "Gauge",
    "Histogram",
    "METRIC_CATALOG",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "Span",
    "Telemetry",
    "canonical_lines",
    "read_events",
    "render_timeline",
    "validate_events",
]
