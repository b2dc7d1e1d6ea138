"""Metric and span exporters: Prometheus text exposition and OTLP JSON.

Two standard wire formats for the telemetry a
:class:`~repro.obs.Telemetry` handle collects in memory:

* :func:`to_prometheus` renders a :class:`~repro.obs.MetricsRegistry`
  in the Prometheus text exposition format — counters and gauges as
  single samples, histograms as summaries with p50/p95/p99 quantile
  samples plus ``_sum``/``_count`` — with ``# HELP``/``# TYPE`` lines
  taken from :data:`repro.obs.names.METRIC_CATALOG`.  Metric names are
  sanitized (dots become underscores) and prefixed ``repro_``.
* :func:`to_otlp` renders the handle's span forest (rebuilt from its
  ``phase-start``/``phase-end`` events) as an OTLP/JSON-shaped
  document (``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex
  trace/span ids and nanosecond timestamps), ready to feed an
  OTLP-compatible ingester.  Ids are derived
  deterministically from the run id and span order, so identical runs
  export identical documents.

:func:`parse_prometheus` is a pure-python validator of the exposition
format (used by the CI lint job's format check and ``--self-test``);
it has no external dependencies by design.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Any

from repro.obs.names import metric_help

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PREFIX = "repro_"

#: Histogram quantiles exported as Prometheus summary samples.
QUANTILES = ((50, "0.5"), (95, "0.95"), (99, "0.99"))


def _sanitize(name: str) -> str:
    return _PREFIX + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(metrics) -> str:
    """Prometheus text-exposition rendering of a metrics registry.

    Accepts a :class:`~repro.obs.MetricsRegistry` (anything with
    ``to_dict``) or an already-snapshotted dict.  Histograms become
    summary families: quantile samples for p50/p95/p99 plus ``_sum``
    and ``_count`` series.
    """
    snapshot = metrics if isinstance(metrics, dict) else metrics.to_dict()
    lines: list[str] = []

    def header(raw_name: str, prom_name: str, prom_type: str) -> None:
        help_text = metric_help(raw_name)
        if help_text:
            lines.append(f"# HELP {prom_name} {help_text}")
        lines.append(f"# TYPE {prom_name} {prom_type}")

    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _sanitize(name) + "_total"
        header(name, prom, "counter")
        lines.append(f"{prom} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        prom = _sanitize(name)
        header(name, prom, "gauge")
        lines.append(f"{prom} {_format_value(value)}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        prom = _sanitize(name)
        header(name, prom, "summary")
        for q_key, q_label in QUANTILES:
            value = summary.get(f"p{q_key}", 0.0)
            lines.append(f'{prom}{{quantile="{q_label}"}} '
                         f"{_format_value(value)}")
        lines.append(f"{prom}_sum "
                     f"{_format_value(summary.get('total', 0.0))}")
        lines.append(f"{prom}_count "
                     f"{_format_value(summary.get('count', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(metrics, path: str | Path) -> None:
    """Write :func:`to_prometheus` output to ``path``."""
    Path(path).write_text(to_prometheus(metrics))


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Validate Prometheus text exposition format (pure python).

    Returns ``{metric_name: [(labels, value), ...]}``.

    Raises:
        ValueError: On any malformed line, naming the 1-based line
            number — an invalid metric name, unparsable labels, a
            non-numeric value, or a ``TYPE``/``HELP`` comment for an
            invalid name.
    """
    series: dict[str, list[tuple[dict, float]]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                if not _NAME_OK.match(parts[2]):
                    raise ValueError(
                        f"line {number}: invalid metric name in "
                        f"{parts[1]} comment: {parts[2]!r}")
                if parts[1] == "TYPE" and (
                        len(parts) < 4 or parts[3] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped")):
                    kind = parts[3] if len(parts) > 3 else ""
                    raise ValueError(
                        f"line {number}: unknown metric type "
                        f"{kind!r}")
            continue
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # metric name
            r"(?:\{([^}]*)\})?"                  # optional label set
            r"\s+(\S+)"                          # value
            r"(?:\s+(-?\d+))?$",                 # optional timestamp
            line)
        if match is None:
            raise ValueError(f"line {number}: unparsable sample: "
                             f"{line!r}")
        name, label_text, value_text = match.group(1, 2, 3)
        labels: dict[str, str] = {}
        if label_text:
            for pair in filter(None, label_text.split(",")):
                pair_match = re.match(
                    r'^\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
                    r"\s*$", pair)
                if pair_match is None:
                    raise ValueError(
                        f"line {number}: malformed label {pair!r}")
                labels[pair_match.group(1)] = pair_match.group(2)
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"line {number}: non-numeric value "
                             f"{value_text!r}") from None
        series.setdefault(name, []).append((labels, value))
    return series


# -- OTLP-style JSON span export ----------------------------------------------


def _span_to_otlp(span, trace_id: str, parent_id: str,
                  counter: list[int]) -> list[dict[str, Any]]:
    span_id = f"{counter[0]:016x}"
    counter[0] += 1
    record = {
        "traceId": trace_id,
        "spanId": span_id,
        "name": span.name,
        "kind": "SPAN_KIND_INTERNAL",
        "startTimeUnixNano": str(int(span.start_s * 1e9)),
        "endTimeUnixNano": str(int((span.end_s if span.end_s is not None
                                    else span.start_s) * 1e9)),
        "attributes": [
            {"key": key, "value": _otlp_value(value)}
            for key, value in span.attrs.items()
        ] + [{"key": "cpu_s",
              "value": {"doubleValue": float(span.cpu_s)}}],
    }
    if parent_id:
        record["parentSpanId"] = parent_id
    records = [record]
    for child in span.children:
        records.extend(_span_to_otlp(child, trace_id, span_id, counter))
    return records


def _otlp_value(value: Any) -> dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def to_otlp(telemetry, run_id: str = "") -> dict[str, Any]:
    """OTLP/JSON-shaped document for a handle's span forest.

    The trace id is the md5 of ``run_id`` (or of the empty string) and
    span ids are sequential in pre-order, so the export is a pure
    function of the trace — identical seeded runs export identically.
    """
    trace_id = hashlib.md5(run_id.encode()).hexdigest()
    counter = [1]
    spans: list[dict[str, Any]] = []
    for root in telemetry.roots:
        spans.extend(_span_to_otlp(root, trace_id, "", counter))
    return {
        "resourceSpans": [{
            "resource": {"attributes": [
                {"key": "service.name",
                 "value": {"stringValue": "repro-advisor"}},
                {"key": "run.id", "value": {"stringValue": run_id}},
            ]},
            "scopeSpans": [{
                "scope": {"name": "repro.obs", "version": "2"},
                "spans": spans,
            }],
        }],
    }


def write_otlp(telemetry, path: str | Path, run_id: str = "") -> None:
    """Write :func:`to_otlp` output as a JSON file."""
    Path(path).write_text(json.dumps(to_otlp(telemetry, run_id), indent=2))


# -- self test (used by the CI lint job) --------------------------------------


def self_test() -> str:
    """Round-trip a synthetic registry through the exposition format.

    Builds a registry exercising all three instrument kinds, renders
    it, re-parses the text with :func:`parse_prometheus`, and checks
    the values survive.  Returns a one-line summary; raises on any
    mismatch.
    """
    from repro.obs.metrics import MetricsRegistry
    metrics = MetricsRegistry(strict=True)
    metrics.inc("greedy.evaluations", 42)
    metrics.set_gauge("drift.score", 0.125)
    for value in (1, 2, 3, 4, 100):
        metrics.observe("greedy.candidates_per_iteration", value)
    text = to_prometheus(metrics)
    series = parse_prometheus(text)
    checks = {
        "repro_greedy_evaluations_total": 42.0,
        "repro_drift_score": 0.125,
        "repro_greedy_candidates_per_iteration_count": 5.0,
        "repro_greedy_candidates_per_iteration_sum": 110.0,
    }
    for name, expected in checks.items():
        [(labels, value)] = series[name]
        if value != expected:
            raise AssertionError(f"{name}: expected {expected}, "
                                 f"parsed {value}")
    quantiles = {labels["quantile"]: value for labels, value
                 in series["repro_greedy_candidates_per_iteration"]}
    if set(quantiles) != {"0.5", "0.95", "0.99"}:
        raise AssertionError(f"unexpected quantile set: "
                             f"{sorted(quantiles)}")
    return (f"prometheus exposition self-test ok: "
            f"{sum(len(v) for v in series.values())} samples across "
            f"{len(series)} series round-tripped")


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.export [--self-test | --check FILE]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["--self-test"] or not argv:
        print(self_test())
        return 0
    if len(argv) == 2 and argv[0] == "--check":
        try:
            series = parse_prometheus(Path(argv[1]).read_text())
        except (OSError, ValueError) as error:
            print(f"invalid: {error}", file=sys.stderr)
            return 1
        print(f"valid: {sum(len(v) for v in series.values())} samples "
              f"across {len(series)} series")
        return 0
    print("usage: python -m repro.obs.export [--self-test | "
          "--check FILE]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
