"""The access graph (Section 4.1, Figure 6).

A weighted undirected graph over database objects.  A node's weight is
the total number of blocks of that object referenced by the workload
(scaled by statement weights); an edge ``(u, v)`` exists when some
statement co-accesses ``u`` and ``v`` in one non-blocking subplan, and
its weight is the summed ``B_u + B_v`` block counts of those subplans.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.catalog.schema import Database
from repro.errors import WorkloadError
from repro.obs import NULL_TELEMETRY
from repro.workload.access import AnalyzedWorkload


def _edge(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) edge key."""
    return (u, v) if u <= v else (v, u)


class AccessGraph:
    """Weighted undirected co-access graph over database objects."""

    def __init__(self, objects: Iterable[str] = ()):
        self._nodes: dict[str, float] = {name: 0.0 for name in objects}
        self._edges: dict[tuple[str, str], float] = {}
        self._adjacency: dict[str, set[str]] = {
            name: set() for name in self._nodes}

    # -- construction --------------------------------------------------------

    def add_object(self, name: str) -> None:
        """Ensure a node exists for the object (weight 0 if new)."""
        if name not in self._nodes:
            self._nodes[name] = 0.0
            self._adjacency[name] = set()

    def add_node_weight(self, name: str, blocks: float) -> None:
        """Increment a node's referenced-blocks weight."""
        self.add_object(name)
        self._nodes[name] += blocks

    def add_edge_weight(self, u: str, v: str, blocks: float) -> None:
        """Increment (creating if needed) the co-access edge weight."""
        if u == v:
            raise WorkloadError("access graph cannot have self-edges")
        self.add_object(u)
        self.add_object(v)
        key = _edge(u, v)
        self._edges[key] = self._edges.get(key, 0.0) + blocks
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> dict[tuple[str, str], float]:
        return dict(self._edges)

    def node_weight(self, name: str) -> float:
        """Total blocks of the object referenced by the workload."""
        try:
            return self._nodes[name]
        except KeyError:
            raise WorkloadError(f"no object {name!r} in access graph") \
                from None

    def edge_weight(self, u: str, v: str) -> float:
        """Edge weight, 0 if the objects are never co-accessed."""
        return self._edges.get(_edge(u, v), 0.0)

    def neighbors(self, name: str) -> set[str]:
        """Objects ever co-accessed with ``name``."""
        return set(self._adjacency.get(name, ()))

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def total_edge_weight(self) -> float:
        """Sum of all co-access edge weights."""
        return sum(self._edges.values())

    def cut_weight(self, partition_of: Mapping[str, int]) -> float:
        """Total weight of edges whose endpoints lie in different parts."""
        return sum(w for (u, v), w in self._edges.items()
                   if partition_of.get(u) != partition_of.get(v))

    def group_edge_weight(self, group_a: Iterable[str],
                          group_b: Iterable[str]) -> float:
        """Total edge weight between two disjoint sets of objects."""
        set_b = set(group_b)
        return sum(self.edge_weight(u, v) for u in group_a for v in set_b)

    def to_dot(self, include_isolated: bool = False) -> str:
        """Render the graph in Graphviz DOT format.

        Node labels carry the referenced-blocks weight, edge labels the
        co-access weight; useful for eyeballing why the search separated
        what it separated (``dot -Tsvg graph.dot``).
        """
        lines = ["graph access_graph {", "  node [shape=box];"]
        for name in sorted(self._nodes):
            if not include_isolated and not self._adjacency[name] \
                    and self._nodes[name] == 0:
                continue
            lines.append(
                f'  "{name}" [label="{name}\\n'
                f'{self._nodes[name]:.0f} blk"];')
        for (u, v), weight in sorted(self._edges.items()):
            lines.append(f'  "{u}" -- "{v}" [label="{weight:.0f}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessGraph({len(self._nodes)} nodes, " \
               f"{len(self._edges)} edges)"


def build_access_graph(analyzed: AnalyzedWorkload,
                       db: Database | None = None,
                       telemetry=NULL_TELEMETRY) -> AccessGraph:
    """Construct the access graph per the paper's Figure 6 algorithm.

    Steps (with statement weights ``w_Q`` applied to both node and edge
    increments):

    1. one node per database object, weight 0;
    2. for each statement, for each object accessed in its plan,
       increment the node weight by the blocks of that object accessed;
    3. for each non-blocking subplan, add/increment an edge between each
       pair of distinct objects accessed in it by the sum of the two
       objects' block counts in that subplan.

    Args:
        analyzed: A planned-and-decomposed workload.
        db: Optional catalog; when given, every catalog object gets a
            node even if the workload never touches it (as in Fig. 6
            step 1).
        telemetry: Optional :class:`repro.obs.Telemetry`; opens one
            ``build-access-graph`` span and records ``graph.nodes`` /
            ``graph.edges`` / ``graph.total_edge_weight`` gauges.
    """
    with telemetry.span("build-access-graph") as span:
        graph = AccessGraph(
            o.name for o in (db.objects() if db is not None else ()))
        for item in analyzed:
            w = item.weight
            for subplan in item.subplans:
                blocks = subplan.blocks_by_object(include_temp=False)
                per_object: dict[str, float] = {}
                for (name, _write), b in blocks.items():
                    per_object[name] = per_object.get(name, 0.0) + b
                for name, b in per_object.items():
                    graph.add_node_weight(name, w * b)
                names = sorted(per_object)
                for i, u in enumerate(names):
                    for v in names[i + 1:]:
                        graph.add_edge_weight(
                            u, v, w * (per_object[u] + per_object[v]))
        span.set("nodes", len(graph))
        span.set("edges", len(graph.edges))
        telemetry.set_gauge("graph.nodes", len(graph))
        telemetry.set_gauge("graph.edges", len(graph.edges))
        telemetry.set_gauge("graph.total_edge_weight",
                            graph.total_edge_weight())
    return graph
