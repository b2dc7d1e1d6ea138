"""repro.resilience — deadlines, retries and fault injection.

The resilience layer makes every search entry point survive worker
failure, respect a wall-clock budget, and always return the best
layout found so far:

* :class:`Deadline` — the one wall-clock bound, polled by the portfolio
  engine between trajectories and while draining worker futures.
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic jitter (seeded from the trajectory index, so resilient
  runs stay reproducible); :meth:`RetryPolicy.run` is the one retry
  loop.
* :class:`FaultPlan` — deterministic fault injection (kill a worker,
  delay a trajectory, raise in cost evaluation, fail every pool
  worker at start), enabled via the ``REPRO_FAULTS`` environment
  variable or the CLI ``--faults`` flag; used by the test suite and
  the chaos CI job.

See ``docs/resilience.md`` for deadline semantics, the degradation
contract and the fault-injection cookbook.
"""

from repro.resilience.faults import ENV_VAR, FAULT_KINDS, FaultPlan
from repro.resilience.policy import Deadline, RetryPolicy

__all__ = [
    "Deadline",
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultPlan",
    "RetryPolicy",
]
