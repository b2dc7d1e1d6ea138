"""Simulated-annealing layout search — the generic baseline.

Section 6 of the paper: "rather than using generic search techniques
for solving non-linear optimization problems, which tend to be
computationally expensive, we try to leverage domain knowledge to
develop a scalable heuristic solution."  This module implements the
generic technique the paper declined, so the claim can be quantified:
how close does domain-blind annealing get, and at what evaluation
budget, compared to TS-GREEDY?  (See ``bench_ablations.py``.)

The move set is layout-native but knowledge-free: pick a random object,
then either add a disk to it, drop a disk from it (if it has more than
one), or jump it to a random disk subset — always re-striped
rate-proportionally, so the search space matches the one TS-GREEDY and
the exhaustive baseline explore.
"""

from __future__ import annotations

import logging
import math
import random
from typing import Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.fullstripe import full_striping
from repro.core.greedy import SearchResult
from repro.core.layout import Layout, stripe_fractions
from repro.core.tolerance import EPS_CAPACITY
from repro.errors import LayoutError
from repro.obs import NULL_TELEMETRY
from repro.storage.disk import DiskFarm

logger = logging.getLogger("repro.core.annealing")


def annealing_search(farm: DiskFarm,
                     evaluator: WorkloadCostEvaluator,
                     object_sizes: Mapping[str, int],
                     seed: int = 0,
                     iterations: int = 2_000,
                     initial_temperature: float | None = None,
                     cooling: float = 0.995,
                     constraints: ConstraintSet | None = None,
                     telemetry=NULL_TELEMETRY) -> SearchResult:
    """Anneal over rate-proportionally-striped layouts.

    Args:
        farm: Disk drives.
        evaluator: Precompiled cost evaluator.
        object_sizes: Object name -> blocks.
        seed: RNG seed (deterministic for a given seed).
        iterations: Proposal budget (each proposal costs one layout
            evaluation, comparable to TS-GREEDY's ``evaluations``).
        initial_temperature: Starting temperature; defaults to 10% of
            the full-striping cost, a standard scale-free choice.
        cooling: Geometric cooling factor per accepted-or-rejected step.
        constraints: Only capacity is enforced here (the baseline is
            deliberately generic); richer constraints reject proposals.
        telemetry: Optional :class:`repro.obs.Telemetry`; opens one
            ``annealing`` span, emits sampled ``anneal-step`` progress
            events (at most 32 per run, evenly strided over the
            proposal budget) and records ``annealing.proposals`` /
            ``annealing.accepted`` / ``annealing.rejected`` /
            ``annealing.infeasible`` counters.

    Returns:
        A :class:`SearchResult` with the best layout visited; its
        ``extras`` carry the accept/reject/infeasible counts.
    """
    if iterations < 1:
        raise LayoutError("iterations must be positive")
    sample_stride = max(1, iterations // 32)
    constraints = constraints or ConstraintSet()
    rng = random.Random(seed)
    names = evaluator.object_names
    sizes = dict(object_sizes)
    m = len(farm)
    capacity = np.array([d.capacity_blocks for d in farm])

    current_layout = full_striping(sizes, farm)
    current = {name: list(current_layout.fractions_of(name))
               for name in names}
    matrix = np.array([current[name] for name in names])
    cost = evaluator.set_base(matrix)
    initial_cost = cost
    best_cost = cost
    best = {name: tuple(row) for name, row in current.items()}
    temperature = initial_temperature \
        if initial_temperature is not None else 0.1 * cost

    disk_used = np.array([current_layout.disk_used_blocks(j)
                          for j in range(m)])
    evaluations = 0
    accepted = rejected = infeasible = 0
    with telemetry.span("annealing", iterations=iterations,
                        seed=seed) as span:
        for proposal_index in range(iterations):
            if proposal_index % sample_stride == 0:
                telemetry.emit("anneal-step", proposal=proposal_index,
                               best_cost=float(best_cost),
                               temperature=float(temperature))
            name = rng.choice(names)
            disks_now = [j for j, f in enumerate(current[name]) if f > 0]
            kind = rng.random()
            if kind < 0.4 and len(disks_now) < m:         # add a disk
                choice = rng.choice([j for j in range(m)
                                     if j not in disks_now])
                proposal = sorted(disks_now + [choice])
            elif kind < 0.7 and len(disks_now) > 1:       # drop a disk
                victim = rng.choice(disks_now)
                proposal = [j for j in disks_now if j != victim]
            else:                                         # random jump
                size = rng.randint(1, m)
                proposal = sorted(rng.sample(range(m), size))
            row = np.array(stripe_fractions(proposal, farm))
            old_row = np.array(current[name])
            delta_use = sizes[name] * (row - old_row)
            if np.any(disk_used + delta_use > capacity + EPS_CAPACITY):
                infeasible += 1
                temperature *= cooling
                continue
            candidate_cost = float(
                evaluator.costs_for_rows(name, row[None])[0])
            evaluations += 1
            delta = candidate_cost - cost
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-12)):
                accepted += 1
                current[name] = list(row)
                disk_used += delta_use
                # O(Δ) adoption: re-cost only the subplans touching the
                # moved object (bit-identical to a full set_base).
                cost = evaluator.commit_rows({name: row})
                if cost < best_cost:
                    best_cost = cost
                    best = {n: tuple(r) for n, r in current.items()}
            else:
                rejected += 1
            temperature *= cooling
        span.set("accepted", accepted)
        span.set("rejected", rejected)
        span.set("infeasible", infeasible)

    telemetry.inc("annealing.proposals", iterations)
    telemetry.inc("annealing.accepted", accepted)
    telemetry.inc("annealing.rejected", rejected)
    telemetry.inc("annealing.infeasible", infeasible)
    logger.info(
        "annealing: cost %.3f -> %.3f (%d proposals: %d accepted, "
        "%d rejected, %d infeasible)", initial_cost, best_cost,
        iterations, accepted, rejected, infeasible)
    layout = Layout(farm, sizes, best)
    if not constraints.is_satisfied(layout):
        raise LayoutError(
            "annealing produced a constraint-violating layout; use "
            "TS-GREEDY for constrained problems")
    return SearchResult(layout=layout, cost=best_cost,
                        initial_cost=initial_cost,
                        iterations=iterations,
                        evaluations=evaluations,
                        extras={"accepted": float(accepted),
                                "rejected": float(rejected),
                                "infeasible": float(infeasible),
                                "seed": float(seed)})
