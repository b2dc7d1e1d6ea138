"""Kernighan–Lin style multiway partitioning of the access graph.

TS-GREEDY's first step partitions the access graph's nodes into ``p``
partitions so as to *maximize* the total weight of edges crossing
partitions — the mirror image of the classical min-cut formulation
(heavily co-accessed objects should land in *different* partitions).
The paper uses the Kernighan–Lin heuristic; we implement a deterministic
KL-style local search from scratch:

1. a greedy initial assignment — nodes in descending node-weight order,
   each placed in the partition that currently maximizes the cut gain;
2. repeated improvement passes considering single-node moves and
   pairwise swaps between partitions, applying the best positive-gain
   change of each pass until a pass finds none.

The result is deterministic for a given graph (ties break on object
name), which keeps every downstream experiment reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.tolerance import EPS_GAIN
from repro.errors import LayoutError
from repro.obs import NULL_TELEMETRY
from repro.workload.access_graph import AccessGraph


@dataclass
class PartitionStats:
    """Telemetry of one :func:`partition_access_graph` run.

    Attributes:
        initial_cut_weight: Cut weight after greedy seeding.
        cut_weights: Cut weight after each KL pass.
        moves: Single-node moves applied across all passes.
        swaps: Pairwise swaps applied across all passes.
    """

    initial_cut_weight: float = 0.0
    cut_weights: list[float] = field(default_factory=list)
    moves: int = 0
    swaps: int = 0

    @property
    def passes(self) -> int:
        """KL improvement passes executed (≥ 1 whenever the refinement
        loop ran at all)."""
        return len(self.cut_weights)

    @property
    def final_cut_weight(self) -> float:
        if self.cut_weights:
            return self.cut_weights[-1]
        return self.initial_cut_weight


def partition_access_graph(graph: AccessGraph, p: int,
                           nodes: Sequence[str] | None = None,
                           max_passes: int = 16,
                           stats: PartitionStats | None = None,
                           telemetry=NULL_TELEMETRY,
                           seed: int | None = None) -> list[list[str]]:
    """Partition the graph's nodes into ``p`` parts maximizing cut weight.

    Args:
        graph: The co-access graph.
        p: Number of partitions (the paper uses ``p = m`` disks).
        nodes: Optional subset/ordering of nodes to partition; defaults
            to every node of the graph.
        max_passes: Upper bound on improvement passes.
        stats: Optional :class:`PartitionStats` filled in with per-pass
            telemetry (cut weight per KL pass, move/swap counts).
        telemetry: Optional :class:`repro.obs.Telemetry`; records the
            same counts under ``partition.*`` names.
        seed: ``None`` (default) keeps the canonical deterministic
            processing order.  An integer shuffles the order with a
            seeded RNG, steering greedy seeding and refinement into a
            different — still deterministic per seed — local optimum;
            the portfolio engine uses this for multi-start search.

    Returns:
        ``p`` lists of object names (some possibly empty), sorted within
        each partition.  Every input node appears exactly once.
    """
    if p <= 0:
        raise LayoutError("number of partitions must be positive")
    names = list(nodes) if nodes is not None else list(graph.nodes)
    if not names:
        return [[] for _ in range(p)]
    if p == 1:
        return [sorted(names)]

    # Deterministic processing order: heavy, well-connected nodes first.
    def priority(name: str) -> tuple[float, str]:
        return (-(graph.node_weight(name)
                  + sum(graph.edge_weight(name, v)
                        for v in graph.neighbors(name))), name)

    ordered = sorted(names, key=priority)
    if seed is not None:
        random.Random(seed).shuffle(ordered)
    assign: dict[str, int] = {}
    member_set = set(names)

    def connection(name: str, part: int) -> float:
        """Edge weight between ``name`` and current members of ``part``."""
        return sum(graph.edge_weight(name, v)
                   for v in graph.neighbors(name)
                   if v in member_set and assign.get(v) == part)

    # 1. Greedy seeding: put each node where it is least connected
    # (equivalently, where it adds the most cut weight), breaking ties
    # toward the emptiest partition for spread.
    sizes = [0] * p
    for name in ordered:
        best = min(range(p), key=lambda q: (connection(name, q),
                                            sizes[q], q))
        assign[name] = best
        sizes[best] += 1

    # 2. KL-style refinement: single moves and pairwise swaps.
    stats = stats if stats is not None else PartitionStats()
    stats.initial_cut_weight = graph.cut_weight(assign)
    for _ in range(max_passes):
        moves = 0
        for name in ordered:
            current = assign[name]
            internal = connection(name, current)
            best_gain, best_part = 0.0, current
            for q in range(p):
                if q == current:
                    continue
                gain = internal - connection(name, q)
                if gain > best_gain + EPS_GAIN:
                    best_gain, best_part = gain, q
            if best_part != current:
                assign[name] = best_part
                moves += 1
        swaps = _swap_pass(graph, ordered, assign)
        stats.moves += moves
        stats.swaps += swaps
        stats.cut_weights.append(graph.cut_weight(assign))
        if not moves and not swaps:
            break
    telemetry.inc("partition.kl_passes", stats.passes)
    telemetry.inc("partition.moves", stats.moves)
    telemetry.inc("partition.swaps", stats.swaps)
    telemetry.set_gauge("partition.cut_weight", stats.final_cut_weight)

    partitions: list[list[str]] = [[] for _ in range(p)]
    for name in names:
        partitions[assign[name]].append(name)
    return [sorted(part) for part in partitions]


def _swap_pass(graph: AccessGraph, ordered: Sequence[str],
               assign: dict[str, int]) -> int:
    """One pass of profitable pairwise swaps; how many were applied."""
    applied = 0
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            pu, pv = assign[u], assign[v]
            if pu == pv:
                continue
            gain = _swap_gain(graph, assign, u, v)
            if gain > EPS_GAIN:
                assign[u], assign[v] = pv, pu
                applied += 1
    return applied


def _swap_gain(graph: AccessGraph, assign: dict[str, int],
               u: str, v: str) -> float:
    """Cut-weight change from swapping the partitions of ``u`` and ``v``."""
    pu, pv = assign[u], assign[v]

    def internal(node: str, part: int, *, excluding: str) -> float:
        return sum(graph.edge_weight(node, w)
                   for w in graph.neighbors(node)
                   if w != excluding and assign.get(w) == part)

    before = internal(u, pu, excluding=v) + internal(v, pv, excluding=u)
    after = internal(u, pv, excluding=v) + internal(v, pu, excluding=u)
    # The u–v edge is cut both before and after the swap; it cancels.
    return before - after


def intra_partition_weight(graph: AccessGraph,
                           partitions: Sequence[Sequence[str]]) -> float:
    """Total edge weight *not* cut by the partitioning (lower is better)."""
    total = 0.0
    for part in partitions:
        members = list(part)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                total += graph.edge_weight(u, v)
    return total
