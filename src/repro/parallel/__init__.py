"""repro.parallel — portfolio search over one precompiled cost evaluator.

Runs several independent search trajectories (seeded TS-GREEDY
variants, annealing restarts) and keeps the best layout.  A portfolio
runs serially in-process, or — for ``jobs > 1`` and an input of at
least ``POOL_MIN_PACKED_BYTES`` — on a worker-process pool whose
initializer hands each worker the search context, cost evaluator
included, once (inherited through fork, or unpickled once per worker
under spawn).  A trajectory returns its ``SearchResult`` and telemetry
snapshot the same way on either path; ``extras["workers"]`` records
which path ran (more than one worker means the pool).

Results are bit-identical regardless of ``jobs`` or the path taken:
the trajectory list is deterministic and the winner is chosen by
``min((cost, index))``.

The engine degrades instead of dying: worker crashes, hung
trajectories and expired deadlines (``repro.resilience``) turn into
:class:`~repro.core.greedy.TrajectoryFailure` records on a *degraded*
result whose layout is still the exact best over the trajectories that
completed.

See ``docs/performance.md`` for the engine's design, the pool protocol
and tuning guidance, and ``docs/resilience.md`` for the degradation
contract and the fault-injection harness.
"""

from repro.parallel.portfolio import (
    DEFAULT_TRAJECTORIES,
    POOL_MIN_PACKED_BYTES,
    PortfolioSearch,
    TrajectorySpec,
    available_workers,
    default_portfolio,
)
from repro.parallel.worker import (
    TrajectoryContext,
    run_trajectory,
)

__all__ = [
    "DEFAULT_TRAJECTORIES",
    "POOL_MIN_PACKED_BYTES",
    "PortfolioSearch",
    "TrajectoryContext",
    "TrajectorySpec",
    "available_workers",
    "default_portfolio",
    "run_trajectory",
]
