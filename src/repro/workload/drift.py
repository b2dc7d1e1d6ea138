"""Workload drift detection (the incremental-redesign trigger).

The paper's Section 2.3 motivates the data-movement bound with the
observation that workloads change over time and the advisor should be
re-runnable against the *current* layout.  This module supplies the
trigger for that loop: compare two workload windows through their
access graphs — per-object referenced-block deltas and co-access
edge-weight deltas — and reduce the comparison to a scalar drift score
with a "re-layout recommended" threshold.

The score is a normalized L1 distance in ``[0, 1]``: 0 means the two
windows reference the same objects in the same proportions with the
same co-access structure; 1 means they share nothing.  Both the node
term (what is read, and how much) and the edge term (what is read
*together*) contribute, because either alone can invalidate a layout:
a pure hot-set shift changes which disks should be widest, while a pure
co-access shift changes which objects must be separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs import NULL_TELEMETRY
from repro.workload.access_graph import AccessGraph

#: Default drift score above which a re-layout run is recommended.
#: Calibrated on the TPC-H example windows: statement-weight noise of a
#: few percent scores well under 0.05, while doubling the weight of one
#: heavy query scores above 0.1.
RELAYOUT_THRESHOLD = 0.1


@dataclass(frozen=True)
class ObjectDrift:
    """Referenced-block change of one object between two windows.

    Attributes:
        name: The database object.
        blocks_before: Node weight in the earlier window's access graph.
        blocks_after: Node weight in the later window's access graph.
    """

    name: str
    blocks_before: float
    blocks_after: float

    @property
    def delta(self) -> float:
        """Signed block-count change (positive = hotter)."""
        return self.blocks_after - self.blocks_before

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name,
                "blocks_before": float(self.blocks_before),
                "blocks_after": float(self.blocks_after)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObjectDrift":
        """Inverse of :meth:`to_dict`."""
        return cls(name=str(data["name"]),
                   blocks_before=float(data["blocks_before"]),
                   blocks_after=float(data["blocks_after"]))


@dataclass(frozen=True)
class EdgeDrift:
    """Co-access weight change of one object pair between two windows."""

    u: str
    v: str
    weight_before: float
    weight_after: float

    @property
    def delta(self) -> float:
        """Signed edge-weight change."""
        return self.weight_after - self.weight_before

    def to_dict(self) -> dict[str, Any]:
        return {"u": self.u, "v": self.v,
                "weight_before": float(self.weight_before),
                "weight_after": float(self.weight_after)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EdgeDrift":
        """Inverse of :meth:`to_dict`."""
        return cls(u=str(data["u"]), v=str(data["v"]),
                   weight_before=float(data["weight_before"]),
                   weight_after=float(data["weight_after"]))


@dataclass
class DriftReport:
    """Outcome of comparing two workload windows.

    Attributes:
        score: Scalar drift in ``[0, 1]`` —
            ``0.5 * node_drift + 0.5 * edge_drift``.
        node_drift: Normalized L1 distance between the windows'
            per-object referenced-block weights.
        edge_drift: Normalized L1 distance between the windows'
            co-access edge weights.
        threshold: The re-layout threshold the report was built with.
        objects: Per-object deltas, largest absolute change first
            (objects with zero delta are omitted).
        edges: Per-edge deltas, largest absolute change first (edges
            with zero delta are omitted).
        run_id: Flight-recorder run identifier of the run that produced
            the report, when saved with provenance (see
            :func:`repro.catalog.io.save_drift_report`).
    """

    score: float
    node_drift: float
    edge_drift: float
    threshold: float = RELAYOUT_THRESHOLD
    objects: list[ObjectDrift] = field(default_factory=list)
    edges: list[EdgeDrift] = field(default_factory=list)
    run_id: str | None = None

    @property
    def relayout_recommended(self) -> bool:
        """Whether the drift warrants re-running the advisor."""
        return self.score >= self.threshold

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse: :meth:`from_dict`)."""
        out: dict[str, Any] = {
            "score": float(self.score),
            "node_drift": float(self.node_drift),
            "edge_drift": float(self.edge_drift),
            "threshold": float(self.threshold),
            "relayout_recommended": self.relayout_recommended,
            "objects": [o.to_dict() for o in self.objects],
            "edges": [e.to_dict() for e in self.edges],
        }
        if self.run_id:
            out["run_id"] = str(self.run_id)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DriftReport":
        """Rebuild a report from :meth:`to_dict` output."""
        run_id = data.get("run_id")
        return cls(
            score=float(data["score"]),
            node_drift=float(data["node_drift"]),
            edge_drift=float(data["edge_drift"]),
            threshold=float(data.get("threshold", RELAYOUT_THRESHOLD)),
            objects=[ObjectDrift.from_dict(o)
                     for o in data.get("objects", ())],
            edges=[EdgeDrift.from_dict(e)
                   for e in data.get("edges", ())],
            run_id=str(run_id) if run_id else None)

    def describe(self, top: int = 8) -> str:
        """Human-readable rendering for the CLI and logs."""
        verdict = "re-layout recommended" if self.relayout_recommended \
            else "layout still fits"
        lines = [
            "=== workload drift report ===",
            f"drift score:  {self.score:.3f}  "
            f"(threshold {self.threshold:.3f} -> {verdict})",
            f"  node drift: {self.node_drift:.3f}  "
            f"(referenced-block shift)",
            f"  edge drift: {self.edge_drift:.3f}  "
            f"(co-access shift)",
        ]
        if self.objects:
            lines.append("")
            lines.append("--- largest object shifts ---")
            for obj in self.objects[:top]:
                sign = "+" if obj.delta >= 0 else ""
                lines.append(f"{obj.name:30s} {obj.blocks_before:12.0f} "
                             f"-> {obj.blocks_after:12.0f}  "
                             f"({sign}{obj.delta:.0f} blk)")
        if self.edges:
            lines.append("")
            lines.append("--- largest co-access shifts ---")
            for edge in self.edges[:top]:
                sign = "+" if edge.delta >= 0 else ""
                lines.append(f"{edge.u + ' -- ' + edge.v:40s} "
                             f"{edge.weight_before:10.0f} -> "
                             f"{edge.weight_after:10.0f}  "
                             f"({sign}{edge.delta:.0f})")
        return "\n".join(lines)


def _normalized_l1(before: dict, after: dict) -> float:
    """L1 distance over the key union, normalized to ``[0, 1]``."""
    keys = set(before) | set(after)
    distance = sum(abs(after.get(k, 0.0) - before.get(k, 0.0))
                   for k in keys)
    total = sum(before.values()) + sum(after.values())
    if total <= 0:
        return 0.0
    return distance / total


def detect_drift(before: AccessGraph, after: AccessGraph,
                 threshold: float = RELAYOUT_THRESHOLD,
                 telemetry=NULL_TELEMETRY) -> DriftReport:
    """Compare two workload windows via their access graphs.

    Args:
        before: Access graph of the earlier window (the one the current
            layout was designed for).
        after: Access graph of the later (observed) window.
        threshold: Drift score at which re-layout is recommended.
        telemetry: Optional :class:`repro.obs.Telemetry`; opens one
            ``detect-drift`` span, records ``drift.score`` /
            ``drift.node_drift`` / ``drift.edge_drift`` gauges and the
            ``drift.relayout_recommended`` counter, and emits one
            ``drift-score`` event with the report's headline numbers.

    Returns:
        A :class:`DriftReport`; ``report.relayout_recommended`` is the
        re-run trigger, ``report.objects`` / ``report.edges`` explain
        what moved.
    """
    with telemetry.span("detect-drift") as span:
        nodes_before = {n: before.node_weight(n) for n in before.nodes}
        nodes_after = {n: after.node_weight(n) for n in after.nodes}
        edges_before = before.edges
        edges_after = after.edges
        node_drift = _normalized_l1(nodes_before, nodes_after)
        edge_drift = _normalized_l1(edges_before, edges_after)
        score = 0.5 * node_drift + 0.5 * edge_drift
        objects = sorted(
            (ObjectDrift(name, nodes_before.get(name, 0.0),
                         nodes_after.get(name, 0.0))
             for name in set(nodes_before) | set(nodes_after)),
            key=lambda o: (-abs(o.delta), o.name))
        edges = sorted(
            (EdgeDrift(u, v, edges_before.get((u, v), 0.0),
                       edges_after.get((u, v), 0.0))
             for u, v in set(edges_before) | set(edges_after)),
            key=lambda e: (-abs(e.delta), e.u, e.v))
        report = DriftReport(
            score=score, node_drift=node_drift, edge_drift=edge_drift,
            threshold=threshold,
            objects=[o for o in objects if o.delta != 0.0],
            edges=[e for e in edges if e.delta != 0.0])
        span.set("score", round(score, 6))
        span.set("relayout_recommended", report.relayout_recommended)
        telemetry.set_gauge("drift.score", score)
        telemetry.set_gauge("drift.node_drift", node_drift)
        telemetry.set_gauge("drift.edge_drift", edge_drift)
        if report.relayout_recommended:
            telemetry.inc("drift.relayout_recommended")
        telemetry.emit("drift-score", score=round(score, 6),
                       node_drift=round(node_drift, 6),
                       edge_drift=round(edge_drift, 6),
                       relayout_recommended=report.relayout_recommended)
    return report
