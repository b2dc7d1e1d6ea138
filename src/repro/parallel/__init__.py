"""repro.parallel — portfolio search over shared-memory cost evaluation.

Runs several independent search trajectories (seeded TS-GREEDY
variants, annealing restarts) and keeps the best layout.  A portfolio
runs serially in-process, or — for ``jobs > 1`` and an input of at
least ``POOL_MIN_PACKED_BYTES`` — on a worker-process pool whose cost
evaluator is published once in ``multiprocessing.shared_memory``
(workers attach zero-copy instead of re-pickling it per process).

Results are bit-identical regardless of ``jobs`` or the path taken:
the trajectory list is deterministic and the winner is chosen by
``min((cost, index))``.

The engine degrades instead of dying: worker crashes, hung
trajectories and expired deadlines (``repro.resilience``) turn into
:class:`~repro.core.greedy.TrajectoryFailure` records on a *degraded*
result whose layout is still the exact best over the trajectories that
completed.  :func:`reap_orphans` sweeps shared-memory segments a crash
might otherwise leak.

See ``docs/performance.md`` for the engine's design, the shared-memory
lifecycle and tuning guidance, and ``docs/resilience.md`` for the
degradation contract and the fault-injection harness.
"""

from repro.parallel.portfolio import (
    BACKEND_CODES,
    BACKEND_NAMES,
    DEFAULT_TRAJECTORIES,
    POOL_MIN_PACKED_BYTES,
    PortfolioSearch,
    TrajectorySpec,
    available_workers,
    default_portfolio,
)
from repro.parallel.shared import (
    SharedArraySpec,
    SharedEvaluatorSpec,
    SharedEvaluatorState,
    attach_evaluator,
    reap_orphans,
    share_evaluator,
)
from repro.parallel.worker import (
    TrajectoryContext,
    rebuild_result,
    run_trajectory,
)

__all__ = [
    "BACKEND_CODES",
    "BACKEND_NAMES",
    "DEFAULT_TRAJECTORIES",
    "POOL_MIN_PACKED_BYTES",
    "PortfolioSearch",
    "SharedArraySpec",
    "SharedEvaluatorSpec",
    "SharedEvaluatorState",
    "TrajectoryContext",
    "TrajectorySpec",
    "attach_evaluator",
    "available_workers",
    "default_portfolio",
    "reap_orphans",
    "rebuild_result",
    "run_trajectory",
    "share_evaluator",
]
