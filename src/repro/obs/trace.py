"""The read side of spans: a phase tree rebuilt from the event stream.

The pipeline never keeps span objects.  :meth:`repro.obs.Telemetry.span`
emits a ``phase-start`` event when a phase opens and a ``phase-end``
event (wall and CPU seconds plus the span's attributes) when it closes;
:func:`spans_from_events` rebuilds the forest of :class:`Span` nodes
from those pairs whenever a reader asks for it — the ``-v`` tree,
``--otlp``, the search bench's per-span timings and the experiments.

Span naming convention (see ``docs/observability.md``): lowercase,
dash-separated phase names; sub-phases of an algorithm use a ``/``
separator under the algorithm's own span (``ts-greedy/step2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: ``phase-end`` data keys that are not span attributes.
_PHASE_KEYS = frozenset({"phase", "wall_s", "cpu_s"})


@dataclass
class Span:
    """One timed phase: a node of the trace tree.

    Times are seconds relative to the emitting handle's epoch (its
    creation time), so exported traces are self-contained and
    machine-independent.
    """

    name: str
    start_s: float
    end_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def duration_s(self) -> float:
        """Elapsed seconds; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attrs[key] = value

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (pre-order)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def leaves(self) -> Iterator["Span"]:
        """The subtree's leaf spans, in tree order."""
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()


def spans_from_events(events: Iterable[dict[str, Any]],
                      home: str) -> list[Span]:
    """The span forest recorded by ``phase-start``/``phase-end`` pairs.

    Spans of the ``home`` source nest by their order in the stream.
    Spans of any other source (a portfolio worker's relayed events)
    nest under the home span open when they were ingested, inside one
    ``<span>/<source>`` node per source — ``portfolio/trajectory-2``
    — whose extent covers its children; with no home span open they
    become roots.  Foreign times stay relative to their own emitter's
    epoch.  A span still open at the end of the stream keeps
    ``end_s=None``.
    """
    roots: list[Span] = []
    stacks: dict[str, list[Span]] = {}
    groups: dict[tuple[int, str], Span] = {}
    for event in events:
        type_ = event["type"]
        if type_ != "phase-start" and type_ != "phase-end":
            continue
        source = event["source"]
        data = event["data"]
        stack = stacks.setdefault(source, [])
        if type_ == "phase-end":
            if stack:
                node = stack.pop()
                node.end_s = node.start_s + float(data["wall_s"])
                node.cpu_s = float(data["cpu_s"])
                node.attrs = {key: value for key, value in data.items()
                              if key not in _PHASE_KEYS}
            continue
        node = Span(name=str(data["phase"]), start_s=float(event["ts_s"]))
        home_stack = stacks.get(home)
        if stack:
            stack[-1].children.append(node)
        elif source == home or not home_stack:
            roots.append(node)
        else:
            parent = home_stack[-1]
            group = groups.get((id(parent), source))
            if group is None:
                group = groups[id(parent), source] = Span(
                    name=f"{parent.name}/{source}", start_s=node.start_s)
                parent.children.append(group)
            group.children.append(node)
        stack.append(node)
    for group in groups.values():
        group.start_s = min(child.start_s for child in group.children)
        ends = [child.end_s for child in group.children
                if child.end_s is not None]
        group.end_s = max(ends) if ends else None
    return roots


def render_tree(roots: Iterable[Span]) -> str:
    """Human-readable span tree with durations and percentages."""
    lines: list[str] = []
    for root in roots:
        _render(root, root.duration_s or 1e-12, 0, lines)
    return "\n".join(lines)


def _render(span: Span, total: float, depth: int,
            lines: list[str]) -> None:
    label = "  " * depth + span.name
    share = 100.0 * span.duration_s / total
    extra = ""
    if span.attrs:
        pairs = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
        extra = f"  [{pairs}]"
    lines.append(f"{label:44s} {span.duration_s:9.4f}s "
                 f"{share:5.1f}%{extra}")
    for child in span.children:
        _render(child, total, depth + 1, lines)
