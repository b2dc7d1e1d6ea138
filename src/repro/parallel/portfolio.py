"""The portfolio search engine: parallel multi-start layout search.

Exhaustive layout search is NP-complete (Section 6.1), so TS-GREEDY is
a local search — and local searches are only as good as their starting
points.  The portfolio engine runs several independent *trajectories*
concurrently and keeps the best result:

* TS-GREEDY from the canonical KL partitioning (the paper's run);
* TS-GREEDY from seeded KL variants (different step-1 local optima)
  and, for larger portfolios, a wider ``k``;
* simulated-annealing restarts with distinct RNG seeds.

Trajectories share one precompiled
:class:`~repro.core.costmodel.WorkloadCostEvaluator`.  A portfolio
runs either serially in-process or on a worker-process pool, whose
initializer hands each worker the run's
:class:`~repro.parallel.worker.TrajectoryContext` (evaluator included)
once: workers inherit it through fork, or unpickle it once each under
spawn.  The engine picks the pool only for inputs of at least
:data:`POOL_MIN_PACKED_BYTES`; below that, starting the pool eats what
the parallelism returns.  ``extras["workers"]`` records the path: more
than one worker means the pool ran.

Determinism: the trajectory list is fixed up front and the winner is
``min((cost, index))`` — exact float comparison with ties broken on
trajectory order — so a run with ``jobs=4`` returns the bit-identical
layout and cost of the same trajectory list run serially (``jobs=1``).

Fault tolerance (see ``docs/resilience.md``): the engine is built to
run unattended inside a tuning service, so every failure mode short of
losing the whole process degrades instead of raising:

* a killed worker (``BrokenProcessPool``) marks its trajectories
  failed and re-runs them serially in-process under the
  :class:`~repro.resilience.RetryPolicy`;
* a hung trajectory is abandoned when the run's
  :class:`~repro.resilience.Deadline` expires;
* the winner is always the exact ``min((cost, index))`` over the
  trajectories that *completed*, with :class:`TrajectoryFailure`
  records for the rest (``SearchResult.degraded`` / ``failures``).

Only when *no* trajectory completes does the engine raise — a typed
:class:`~repro.errors.SearchTimeout` / :class:`~repro.errors.WorkerCrash`
(or the trajectory's own error), never a bare pool internals error.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Sequence

from repro.core.constraints import ConstraintSet
from repro.core.costmodel import WorkloadCostEvaluator
from repro.core.greedy import SearchResult, TrajectoryFailure
from repro.errors import (
    LayoutError,
    ReproError,
    RetriesExhausted,
    SearchTimeout,
    WorkerCrash,
)
from repro.obs import NULL_TELEMETRY
from repro.parallel.worker import (
    TrajectoryContext,
    init_worker,
    run_trajectory,
    run_trajectory_task,
)
from repro.resilience import Deadline, FaultPlan, RetryPolicy
from repro.resilience import faults as fault_injection
from repro.storage.disk import DiskFarm
from repro.workload.access_graph import AccessGraph

logger = logging.getLogger("repro.parallel.portfolio")

#: Trajectories in a default portfolio when none are specified.
DEFAULT_TRAJECTORIES = 4

#: Worker-count override honored by :func:`available_workers`.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: A ``jobs > 1`` portfolio runs on the process pool only when the
#: evaluator packs at least this many bytes, and serially otherwise.
#: Set from interleaved serial-vs-pool measurements
#: (``docs/performance.md``): below it the pool is at best within
#: noise of serial.  The pool also never gets more workers than usable
#: cores, so a 1-core host runs serially; results are identical on
#: either path.
POOL_MIN_PACKED_BYTES = 4 << 10

#: :func:`default_portfolio`'s slot ``i >= 1`` seeds with
#: ``_BASE_SEED + i``.
_BASE_SEED = 101

#: A portfolio's outcome per trajectory index: the result and its
#: telemetry snapshot (see :func:`~repro.parallel.worker.run_trajectory`).
Outcome = tuple[SearchResult, dict]


@dataclass(frozen=True)
class TrajectorySpec:
    """One independent search trajectory of a portfolio.

    Attributes:
        method: ``"ts-greedy"`` or ``"annealing"``.
        partition_seed: KL processing-order seed (TS-GREEDY only);
            ``None`` is the canonical deterministic partitioning.
        k: TS-GREEDY widening parameter.
        seed: Annealing RNG seed.
        iterations: Annealing proposal budget.
        label: Optional display name for telemetry.
    """

    method: str = "ts-greedy"
    partition_seed: int | None = None
    k: int = 1
    seed: int = 0
    iterations: int = 2_000
    label: str = ""

    def describe(self) -> str:
        """Short human-readable identity for spans and logs."""
        if self.method == "annealing":
            return f"annealing[seed={self.seed}]"
        seed = "base" if self.partition_seed is None \
            else f"seed={self.partition_seed}"
        return f"ts-greedy[{seed}, k={self.k}]"


def default_portfolio(n: int = DEFAULT_TRAJECTORIES, k: int = 1,
                      include_annealing: bool = True,
                      ) -> list[TrajectorySpec]:
    """A deterministic default trajectory list of size ``n``.

    Trajectory 0 is always the canonical TS-GREEDY run (the paper's
    algorithm), so a 1-trajectory portfolio degenerates to plain
    TS-GREEDY.  Remaining slots mix seeded KL variants with annealing
    restarts (every third slot); portfolios of five or more spend one
    slot on a ``k+1`` widening.  Slot ``i`` seeds with ``101 + i``;
    annealing restarts get the default proposal budget.

    Args:
        n: Portfolio size.
        k: TS-GREEDY widening parameter for the greedy trajectories.
        include_annealing: Set ``False`` for constrained problems —
            the annealing baseline only enforces capacity and raises
            on richer constraints, so its slots become seeded greedy
            trajectories instead.
    """
    if n < 1:
        raise LayoutError("portfolio needs at least one trajectory")
    specs = [TrajectorySpec(method="ts-greedy", k=k,
                            label="greedy-base")]
    wide_k_spent = False
    for i in range(1, n):
        seed = _BASE_SEED + i
        if i % 3 == 0 and include_annealing:
            specs.append(TrajectorySpec(
                method="annealing", seed=seed, label=f"anneal-{seed}"))
        elif n >= 5 and not wide_k_spent:
            wide_k_spent = True
            specs.append(TrajectorySpec(
                method="ts-greedy", k=k + 1, partition_seed=seed,
                label=f"greedy-{seed}-k{k + 1}"))
        else:
            specs.append(TrajectorySpec(
                method="ts-greedy", k=k, partition_seed=seed,
                label=f"greedy-{seed}"))
    return specs


def available_workers() -> int:
    """CPUs usable by this process (affinity-aware where supported).

    Respects a positive integer ``REPRO_MAX_WORKERS`` environment
    override as a cap (useful in containers whose affinity mask lies).
    Falls back to ``os.cpu_count()`` when affinity is unsupported *or*
    reports an empty set (seen on some cgroup/BSD configurations);
    never returns less than 1.
    """
    cap = None
    raw = os.environ.get(MAX_WORKERS_ENV, "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            logger.warning("ignoring non-integer %s=%r",
                           MAX_WORKERS_ENV, raw)
        else:
            if cap < 1:
                logger.warning("ignoring non-positive %s=%d",
                               MAX_WORKERS_ENV, cap)
                cap = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux / restricted
        cpus = 0
    if cpus < 1:  # affinity may legally report an empty set
        cpus = os.cpu_count() or 1
    return min(cpus, cap) if cap is not None else cpus


class PortfolioSearch:
    """Runs a trajectory portfolio and returns the best result.

    Args:
        farm: Available disk drives.
        evaluator: Precompiled workload cost evaluator.  Pool workers
            get it once each through the pool initializer, without its
            telemetry handle or per-search state.
        object_sizes: Object name -> size in blocks.
        constraints: Optional manageability/availability constraints.
        specs: Trajectory list; defaults to :func:`default_portfolio`.
        jobs: Worker count.  ``1`` runs every trajectory serially
            in-process (bit-identical results, no pool of any kind);
            ``0`` asks for every usable core.  A larger count uses the
            process pool when the input packs at least
            :data:`POOL_MIN_PACKED_BYTES`, and runs serially below it;
            the pool never gets more workers than trajectories or
            :func:`available_workers`.
        deadline: Wall-clock budget for the whole search, the engine's
            one time bound — seconds (counting from when :meth:`search`
            begins) or a live :class:`~repro.resilience.Deadline`.  When
            it expires the engine stops waiting and returns the best
            result found so far (degraded), raising
            :class:`SearchTimeout` only if nothing completed at all.
        retry: :class:`~repro.resilience.RetryPolicy` for in-process
            (re-)runs of failed trajectories; defaults to two attempts
            with deterministic jitter.  Retries never change *what* a
            trajectory computes, only whether a transient failure is
            survived.
        faults: Fault-injection plan for tests/chaos runs; defaults to
            whatever ``REPRO_FAULTS`` names (``None`` in production).
        telemetry: Optional :class:`~repro.obs.Telemetry`; opens one
            ``portfolio`` span, records the trajectory lifecycle
            (``trajectory-start`` / ``trajectory-end`` /
            ``trajectory-failed``), resilience incidents (``retry`` /
            ``timeout`` / ``worker-crash`` / ``serial-fallback`` /
            ``degraded``), the ``portfolio.*`` gauges and the
            ``resilience.*`` counters, and merges each trajectory's
            own telemetry snapshot in trajectory order — so a
            ``jobs=N`` run reconstructs to the same ordered timeline as
            ``jobs=1``, with each worker's spans read back under a
            ``portfolio/trajectory-i`` node (times relative to that
            worker's own epoch).
        clock: Monotonic time source for elapsed-time accounting;
            injectable for tests (defaults to ``time.perf_counter``).
        sleep: Retry-backoff sleeper; injectable for tests (defaults
            to ``time.sleep``).  Neither affects search results — only
            timing telemetry and backoff pacing.
    """

    def __init__(self, farm: DiskFarm, evaluator: WorkloadCostEvaluator,
                 object_sizes: dict[str, int],
                 constraints: ConstraintSet | None = None,
                 specs: Sequence[TrajectorySpec] | None = None,
                 jobs: int = 1, deadline=None,
                 retry: RetryPolicy | None = None,
                 faults: FaultPlan | None = None,
                 telemetry=NULL_TELEMETRY,
                 clock=time.perf_counter, sleep=time.sleep):
        if jobs < 0:
            raise LayoutError("jobs must be >= 0 (0 = auto)")
        self._farm = farm
        self._evaluator = evaluator
        self._sizes = dict(object_sizes)
        self._constraints = constraints or ConstraintSet()
        self._specs = tuple(specs) if specs is not None \
            else tuple(default_portfolio())
        if not self._specs:
            raise LayoutError("portfolio needs at least one trajectory")
        self._jobs = jobs
        self._telemetry = telemetry
        self._deadline_spec = deadline
        self._retry = retry if retry is not None else RetryPolicy()
        if faults is None:
            faults = FaultPlan.from_env()
        self._faults = None if faults is None or faults.empty else faults
        self._clock = clock
        self._sleep = sleep

    @property
    def specs(self) -> tuple[TrajectorySpec, ...]:
        return self._specs

    def _label(self, index: int) -> str:
        spec = self._specs[index]
        return spec.label or spec.describe()

    def search(self, graph: AccessGraph,
               initial_layout=None) -> SearchResult:
        """Run every trajectory; return the winner with merged telemetry.

        Returns the exact ``min((cost, index))`` over the trajectories
        that completed.  Lost trajectories (worker crash, timeout,
        error) are recorded in ``SearchResult.failures`` and mark the
        result ``degraded``; the call raises only when *nothing*
        completed.

        Args:
            graph: The workload's access graph (drives TS-GREEDY step 1).
            initial_layout: Optional starting layout for incremental
                mode (forwarded to every TS-GREEDY trajectory).
        """
        start = self._clock()
        deadline = Deadline.coerce(self._deadline_spec)
        workers = self._workers()
        context = TrajectoryContext(
            evaluator=self._evaluator, farm=self._farm,
            sizes=self._sizes, constraints=self._constraints,
            graph=graph, initial_layout=initial_layout,
            specs=self._specs, faults=self._faults)
        # The fail_eval hook counts its firings per process; each
        # search starts the count afresh (a forked worker inherits the
        # fresh count, a spawned one starts empty).
        fault_injection.reset_eval_counts()
        with self._telemetry.span("portfolio",
                                  trajectories=len(self._specs)) as span:
            if workers == 1:
                outcomes, failures, errors = self._run_serial(
                    context, deadline)
            else:
                outcomes, failures, errors = self._run_parallel(
                    context, workers, deadline)
            if not outcomes:
                self._raise_total_failure(failures, errors, deadline)
            result = self._merge(outcomes, failures, workers)
            result.elapsed_s = self._clock() - start
            span.set("best_cost", round(result.cost, 6))
            span.set("best_trajectory",
                     int(result.extras["best_trajectory"]))
            if failures:
                span.set("degraded", True)
                span.set("failed_trajectories", len(failures))
        if failures:
            logger.warning(
                "portfolio degraded: %d/%d trajectories failed (%s)",
                len(failures), len(self._specs),
                "; ".join(failures[i].describe()
                          for i in sorted(failures)))
        logger.info(
            "portfolio: %d trajectories on %d worker(s), best cost "
            "%.3f from trajectory %d (%s), %.3fs", len(self._specs),
            workers, result.cost, int(result.extras["best_trajectory"]),
            self._specs[int(result.extras["best_trajectory"])]
            .describe(), result.elapsed_s)
        return result

    # -- execution paths ---------------------------------------------------

    def _workers(self) -> int:
        """Pool workers for this run; ``1`` runs it serially in-process.

        The pool runs only for inputs packing at least
        :data:`POOL_MIN_PACKED_BYTES`, with at most one worker per
        trajectory and per usable core.  Results are identical for any
        worker count.
        """
        if self._evaluator.packed_nbytes < POOL_MIN_PACKED_BYTES:
            return 1
        cores = available_workers()
        return min(self._jobs or cores, len(self._specs), cores)

    def _run_serial(self, context: TrajectoryContext,
                    deadline: Deadline):
        """Run every trajectory in-process, honoring the deadline."""
        outcomes: dict[int, Outcome] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        for index in range(len(self._specs)):
            if outcomes and deadline.expired():
                self._telemetry.inc("resilience.timeouts")
                self._telemetry.emit("timeout", index=index,
                                     label=self._label(index),
                                     budget_s=0.0)
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "timeout", 0,
                    "deadline expired before the trajectory started")
                continue
            self._telemetry.emit("trajectory-start", index=index,
                                 label=self._label(index))
            self._attempt(context, index, deadline, outcomes, failures,
                          errors)
        return outcomes, failures, errors

    def _run_parallel(self, context: TrajectoryContext, workers: int,
                      deadline: Deadline):
        """Run trajectories in a process pool, surviving worker loss.

        The initializer's one argument is the run's context: under
        fork the workers inherit it without pickling, under spawn each
        unpickles it once.
        """
        mp_context = get_context(
            "fork" if "fork" in get_all_start_methods() else "spawn")
        outcomes: dict[int, Outcome] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context,
            initializer=init_worker, initargs=(context,))
        try:
            futures = []
            for index in range(len(self._specs)):
                self._telemetry.emit("trajectory-start", index=index,
                                     label=self._label(index))
                try:
                    future = executor.submit(run_trajectory_task, index)
                except BrokenProcessPool as error:
                    # A worker died before every task was queued;
                    # _drain records the rest as crashes too.
                    future = Future()
                    future.set_exception(error)
                futures.append(future)
            hung = self._drain(futures, deadline, outcomes, failures,
                               errors)
        except BaseException:
            # Interrupt/crash while draining: abandon the workers
            # without waiting, so the error surfaces promptly.
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        # A hung worker would block a waiting join forever; a healthy
        # pool is joined.
        executor.shutdown(wait=not hung, cancel_futures=True)
        # Graceful degradation: crashed/errored trajectories are re-run
        # serially in-process, against the parent's own evaluator.
        # Timeouts are *not* re-run: a trajectory too slow for its
        # budget would blow through the deadline again in-process,
        # where it cannot be preempted.
        self._fallback(context, deadline, outcomes, failures, errors)
        return outcomes, failures, errors

    def _drain(self, futures, deadline: Deadline,
               outcomes: dict[int, Outcome],
               failures: dict[int, TrajectoryFailure],
               errors: dict[int, BaseException]) -> bool:
        """Collect worker results; True when a worker may be hung.

        Futures are visited in trajectory order; each wait is capped by
        the time left to the deadline.
        """
        hung = False
        for index, future in enumerate(futures):
            budget = deadline.remaining()
            timeout = None if math.isinf(budget) else budget
            try:
                outcomes[index] = future.result(timeout=timeout)
            except FutureTimeout:
                future.cancel()
                hung = True
                self._telemetry.inc("resilience.timeouts")
                self._telemetry.emit("timeout", index=index,
                                     label=self._label(index),
                                     budget_s=round(budget, 6))
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "timeout", 1,
                    f"no result within {budget:.3f}s")
                logger.warning("trajectory %d (%s) timed out after "
                               "%.3fs; abandoning its worker", index,
                               self._label(index), budget)
            except (BrokenProcessPool, WorkerCrash) as error:
                # BrokenProcessPool: the pool lost the worker process.
                # WorkerCrash: a worker's fail_eval fault raised it.
                self._telemetry.inc("resilience.worker_crashes")
                self._telemetry.emit(
                    "worker-crash", index=index,
                    label=self._label(index),
                    message=str(error) or "worker process died")
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "crash", 1,
                    str(error) or "worker process died")
                errors[index] = error
                logger.warning("trajectory %d (%s) lost to a worker "
                               "crash", index, self._label(index))
            except Exception as error:  # the trajectory itself raised
                failures[index] = TrajectoryFailure(
                    index, self._label(index), "error", 1,
                    f"{type(error).__name__}: {error}")
                errors[index] = error
        return hung

    def _fallback(self, context: TrajectoryContext, deadline: Deadline,
                  outcomes: dict[int, Outcome],
                  failures: dict[int, TrajectoryFailure],
                  errors: dict[int, BaseException]) -> None:
        """Re-run crashed/errored trajectories serially in-process."""
        for index in sorted(failures):
            failure = failures[index]
            if failure.cause == "timeout":
                continue
            if deadline.expired():
                break
            self._telemetry.inc("resilience.serial_fallbacks")
            self._telemetry.emit("serial-fallback", index=index,
                                 label=failure.label,
                                 cause=failure.cause)
            logger.warning("re-running trajectory %d (%s) in-process "
                           "after %s", index, failure.label,
                           failure.cause)
            del failures[index]
            errors.pop(index, None)
            self._attempt(context, index, deadline, outcomes, failures,
                          errors, attempts_before=failure.attempts)

    def _attempt(self, context: TrajectoryContext, index: int,
                 deadline: Deadline, outcomes: dict[int, Outcome],
                 failures: dict[int, TrajectoryFailure],
                 errors: dict[int, BaseException],
                 attempts_before: int = 0) -> None:
        """Run one trajectory in-process under the retry policy.

        Records its outcome, or its failure and last error once the
        attempts (or the deadline) run out.  Backoff jitter is seeded
        from the trajectory index, so the schedule is reproducible.
        """
        label = self._label(index)

        def on_retry(attempt: int, error: BaseException) -> None:
            logger.warning("trajectory %d (%s) attempt %d failed: %s",
                           index, label, attempts_before + attempt - 1,
                           error)
            self._telemetry.inc("resilience.retries")
            self._telemetry.emit("retry", index=index, label=label,
                                 attempt=attempts_before + attempt)

        try:
            outcomes[index], attempts = self._retry.run(
                lambda: run_trajectory(context, index), seed=index,
                deadline=deadline, sleep=self._sleep, on_retry=on_retry)
        except RetriesExhausted as gave_up:
            error = gave_up.error
            cause = "error"
            if isinstance(error, WorkerCrash):
                cause = "crash"
            elif isinstance(error, SearchTimeout):
                cause = "timeout"
            failures[index] = TrajectoryFailure(
                index, label, cause, attempts_before + gave_up.attempts,
                f"{type(error).__name__}: {error}")
            errors[index] = error
            return
        if attempts > 1:
            logger.info("trajectory %d (%s) recovered on attempt %d",
                        index, label, attempts_before + attempts)

    def _raise_total_failure(self, failures, errors,
                             deadline: Deadline) -> None:
        """Nothing completed: raise the most informative typed error."""
        first = min(failures) if failures else 0
        error = errors.get(first)
        if isinstance(error, ReproError):
            raise error
        if failures and all(f.cause == "timeout"
                            for f in failures.values()):
            raise SearchTimeout(
                f"portfolio deadline expired before any of the "
                f"{len(self._specs)} trajectories completed",
                elapsed_s=deadline.elapsed())
        summary = "; ".join(failures[i].describe()
                            for i in sorted(failures)) or "no detail"
        raise WorkerCrash(
            f"no portfolio trajectory completed: {summary}") from error

    # -- result merging ----------------------------------------------------

    def _merge(self, outcomes: dict[int, Outcome],
               failures: dict[int, TrajectoryFailure],
               workers: int) -> SearchResult:
        ordered = sorted(outcomes)
        best = min(ordered, key=lambda index: (outcomes[index][0].cost,
                                               index))
        result = outcomes[best][0]
        total_evaluations = 0
        pruned = 0.0
        bound_evaluations = 0.0
        for index in ordered:
            trajectory, snapshot = outcomes[index]
            total_evaluations += trajectory.evaluations
            pruned += trajectory.extras.get("pruned_candidates", 0.0)
            bound_evaluations += float(
                snapshot["metrics"]["counters"]
                .get("costmodel.bound_evaluations", 0.0))
            self._telemetry.merge(snapshot)
            self._telemetry.emit("trajectory-end", index=index,
                                 label=self._label(index),
                                 cost=round(trajectory.cost, 6))
        result.evaluations = total_evaluations
        result.extras.update({
            "trajectories": float(len(self._specs)),
            "workers": float(workers),
            "best_trajectory": float(best),
            "best_trajectory_cost": result.cost,
            "pruned_candidates": pruned,
            "bound_evaluations": bound_evaluations,
        })
        if failures:
            result.failures = [failures[i] for i in sorted(failures)]
            self._telemetry.inc("resilience.degraded", len(failures))
            for index in sorted(failures):
                failure = failures[index]
                self._telemetry.emit(
                    "trajectory-failed", index=failure.index,
                    label=failure.label, cause=failure.cause,
                    attempts=failure.attempts,
                    message=failure.message)
            self._telemetry.emit(
                "degraded", failed=len(failures),
                total=len(self._specs),
                causes=",".join(sorted({f.cause
                                        for f in failures.values()})))
        self._telemetry.set_gauge("portfolio.trajectories",
                                  len(self._specs))
        self._telemetry.set_gauge("portfolio.workers", workers)
        self._telemetry.set_gauge("portfolio.best_trajectory", best)
        return result
