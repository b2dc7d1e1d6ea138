"""Trajectory execution: one code path for in-process and pooled runs.

A *trajectory* is one independent search run — TS-GREEDY from a seeded
KL partitioning, or an annealing restart — described by a
:class:`~repro.parallel.portfolio.TrajectorySpec`.  The portfolio
engine executes trajectories either in-process (``jobs=1``) or in a
``ProcessPoolExecutor``; both paths funnel through
:func:`run_trajectory` so serial and parallel runs are bit-identical by
construction.

Pool protocol: the executor's *initializer* calls :func:`init_worker`
once per worker process with the run's :class:`TrajectoryContext`,
cost evaluator included — inherited through fork, or unpickled once
per worker under spawn; tasks then call :func:`run_trajectory_task`
with just a trajectory index.  A task returns what an in-process run
returns: the trajectory's :class:`~repro.core.greedy.SearchResult` and
one snapshot of its :class:`~repro.obs.Telemetry` handle, pickled back
(5.4 KB of result and 5.5 KB of snapshot for a 12-disk TPC-H greedy
trajectory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.annealing import annealing_search
from repro.core.constraints import ConstraintSet
from repro.core.greedy import SearchResult, TsGreedySearch
from repro.errors import LayoutError
from repro.obs import Telemetry
from repro.resilience import faults as fault_injection
from repro.resilience.faults import FaultPlan
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph

if TYPE_CHECKING:
    from repro.core.costmodel import WorkloadCostEvaluator
    from repro.core.layout import Layout
    from repro.parallel.portfolio import TrajectorySpec


@dataclass
class TrajectoryContext:
    """Everything one trajectory needs besides its spec."""

    evaluator: "WorkloadCostEvaluator"
    farm: DiskFarm
    sizes: dict[str, int]
    constraints: ConstraintSet
    graph: AccessGraph
    initial_layout: Layout | None
    specs: "tuple[TrajectorySpec, ...]"
    #: Fault-injection plan (tests/chaos runs only; ``None`` in prod).
    faults: FaultPlan | None = field(default=None)


def run_trajectory(context: TrajectoryContext, index: int,
                   ) -> tuple[SearchResult, dict[str, Any]]:
    """Execute one trajectory; return its result and telemetry snapshot.

    The snapshot holds the trajectory's own telemetry handle (events,
    spans as phase events, metrics), which the parent folds in with one
    :meth:`~repro.obs.Telemetry.merge`.  The evaluator counts into the
    trajectory's handle for the run and gets its previous binding back
    afterwards.
    """
    spec = context.specs[index]
    # Fault-injection hooks: no-ops unless a FaultPlan targets this
    # trajectory (kill fires before any work, mimicking a worker lost
    # mid-flight; the eval fault stands in for a cost-model crash).
    fault_injection.fire_kill(context.faults, index)
    fault_injection.fire_delay(context.faults, index)
    fault_injection.fire_eval(context.faults, index)
    telemetry = Telemetry(source=f"trajectory-{index}")
    previous = context.evaluator.bind_telemetry(telemetry)
    try:
        if spec.method == "ts-greedy":
            search = TsGreedySearch(
                context.farm, context.evaluator, context.sizes,
                constraints=context.constraints, k=spec.k,
                partition_seed=spec.partition_seed, telemetry=telemetry)
            result = search.search(
                context.graph, initial_layout=context.initial_layout)
        elif spec.method == "annealing":
            result = annealing_search(
                context.farm, context.evaluator, context.sizes,
                seed=spec.seed, iterations=spec.iterations,
                constraints=context.constraints, telemetry=telemetry)
        else:
            raise LayoutError(
                f"unknown trajectory method {spec.method!r}")
    finally:
        context.evaluator.bind_telemetry(previous)
    return result, telemetry.snapshot()


# -- process-pool plumbing ---------------------------------------------------

#: Per-worker-process state, set once by :func:`init_worker`.
_WORKER_CONTEXT: TrajectoryContext | None = None


def init_worker(context: TrajectoryContext) -> None:
    """Pool initializer: keep the run's context for this worker's tasks.

    Runs once per worker process.  A ``fail_worker_init`` fault fires
    first, so a test can make every worker die at start.
    """
    global _WORKER_CONTEXT
    fault_injection.fire_worker_init(context.faults)
    _WORKER_CONTEXT = context


def run_trajectory_task(index: int,
                        ) -> tuple[SearchResult, dict[str, Any]]:
    """Pool task: run trajectory ``index`` against the worker context."""
    if _WORKER_CONTEXT is None:
        raise LayoutError("worker used before init_worker() ran")
    return run_trajectory(_WORKER_CONTEXT, index)
