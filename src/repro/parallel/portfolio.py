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
the parallelism returns.

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
* a hung trajectory is abandoned after its per-future timeout or the
  run's :class:`~repro.resilience.Deadline`;
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
    SearchTimeout,
    WorkerCrash,
)
from repro.obs import NULL_TELEMETRY
from repro.parallel.worker import (
    TrajectoryContext,
    init_worker,
    rebuild_result,
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
#: noise of serial.  A pure function of the input, so the same
#: workload always takes the same path.
POOL_MIN_PACKED_BYTES = 4 << 10

#: ``portfolio.backend`` gauge / ``extras["backend"]`` encoding.
BACKEND_CODES = {"serial": -1, "process": 1}

#: Inverse of :data:`BACKEND_CODES`, for report rendering.
BACKEND_NAMES = {code: name for name, code in BACKEND_CODES.items()}


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
        prune: Enable bound-based candidate pruning (TS-GREEDY only;
            never changes the result, only the evaluation count).
        label: Optional display name for telemetry.
    """

    method: str = "ts-greedy"
    partition_seed: int | None = None
    k: int = 1
    seed: int = 0
    iterations: int = 2_000
    prune: bool = True
    label: str = ""

    def describe(self) -> str:
        """Short human-readable identity for spans and logs."""
        if self.method == "annealing":
            return f"annealing[seed={self.seed}]"
        seed = "base" if self.partition_seed is None \
            else f"seed={self.partition_seed}"
        return f"ts-greedy[{seed}, k={self.k}]"


def default_portfolio(n: int = DEFAULT_TRAJECTORIES, k: int = 1,
                      base_seed: int = 101,
                      annealing_iterations: int = 2_000,
                      include_annealing: bool = True,
                      ) -> list[TrajectorySpec]:
    """A deterministic default trajectory list of size ``n``.

    Trajectory 0 is always the canonical TS-GREEDY run (the paper's
    algorithm), so a 1-trajectory portfolio degenerates to plain
    TS-GREEDY.  Remaining slots mix seeded KL variants with annealing
    restarts (every third slot); portfolios of five or more spend one
    slot on a ``k+1`` widening.

    Args:
        n: Portfolio size.
        k: TS-GREEDY widening parameter for the greedy trajectories.
        base_seed: First seed; slot ``i`` uses ``base_seed + i``.
        annealing_iterations: Proposal budget per annealing restart.
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
        if i % 3 == 0 and include_annealing:
            specs.append(TrajectorySpec(
                method="annealing", seed=base_seed + i,
                iterations=annealing_iterations,
                label=f"anneal-{base_seed + i}"))
        elif n >= 5 and not wide_k_spent:
            wide_k_spent = True
            specs.append(TrajectorySpec(
                method="ts-greedy", k=k + 1,
                partition_seed=base_seed + i,
                label=f"greedy-{base_seed + i}-k{k + 1}"))
        else:
            specs.append(TrajectorySpec(
                method="ts-greedy", k=k, partition_seed=base_seed + i,
                label=f"greedy-{base_seed + i}"))
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
            ``0`` auto-sizes to the available cores.  A larger count
            uses the process pool when the input packs at least
            :data:`POOL_MIN_PACKED_BYTES`, and runs serially below it.
        deadline: Wall-clock budget for the whole search — seconds, a
            :class:`~repro.resilience.Budget` (starts counting when
            :meth:`search` begins), or a live
            :class:`~repro.resilience.Deadline`.  When it expires the
            engine stops waiting and returns the best result found so
            far (degraded), raising :class:`SearchTimeout` only if
            nothing completed at all.
        retry: :class:`~repro.resilience.RetryPolicy` for in-process
            (re-)runs of failed trajectories; defaults to two attempts
            with deterministic jitter.  Retries never change *what* a
            trajectory computes, only whether a transient failure is
            survived.
        trajectory_timeout_s: Optional per-trajectory cap when draining
            worker futures; a trajectory that produces no result in
            time is recorded as a ``"timeout"`` failure.
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
                 trajectory_timeout_s: float | None = None,
                 faults: FaultPlan | None = None,
                 telemetry=NULL_TELEMETRY,
                 clock=time.perf_counter, sleep=time.sleep):
        if jobs < 0:
            raise LayoutError("jobs must be >= 0 (0 = auto)")
        if trajectory_timeout_s is not None and trajectory_timeout_s <= 0:
            raise LayoutError("trajectory_timeout_s must be > 0")
        self._farm = farm
        self._evaluator = evaluator
        self._sizes = dict(object_sizes)
        self._constraints = constraints or ConstraintSet()
        self._specs = tuple(specs) if specs is not None \
            else tuple(default_portfolio())
        if not self._specs:
            raise LayoutError("portfolio needs at least one trajectory")
        self._jobs = jobs if jobs > 0 else available_workers()
        self._telemetry = telemetry
        self._deadline_spec = deadline
        self._retry = retry if retry is not None else RetryPolicy()
        self._timeout_s = trajectory_timeout_s
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
        backend = self._resolve_backend()
        workers = 1 if backend == "serial" \
            else min(self._jobs, len(self._specs))
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
            if backend == "serial":
                payloads, failures, errors = self._run_serial(
                    context, deadline)
            else:
                payloads, failures, errors = self._run_parallel(
                    context, workers, deadline)
            if not payloads:
                self._raise_total_failure(failures, errors, deadline)
            result = self._merge(payloads, failures, workers, backend)
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
            "portfolio: %d trajectories on %d %s worker(s), best cost "
            "%.3f from trajectory %d (%s), %.3fs", len(self._specs),
            workers, backend, result.cost,
            int(result.extras["best_trajectory"]),
            self._specs[int(result.extras["best_trajectory"])]
            .describe(), result.elapsed_s)
        return result

    # -- execution paths ---------------------------------------------------

    def _resolve_backend(self) -> str:
        """``"serial"`` or ``"process"``, from the jobs and the input.

        Reads only the worker count, the trajectory count and the
        evaluator's packing, never the machine, so the same inputs
        always take the same path.
        """
        if min(self._jobs, len(self._specs)) <= 1 \
                or self._evaluator.packed_nbytes < POOL_MIN_PACKED_BYTES:
            return "serial"
        return "process"

    def _run_serial(self, context: TrajectoryContext,
                    deadline: Deadline):
        """Run every trajectory in-process, honoring the deadline."""
        payloads: dict[int, dict] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        for index in range(len(self._specs)):
            if payloads and deadline.expired():
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
            payload, failure, error = self._attempt(context, index,
                                                    deadline)
            if payload is not None:
                payloads[index] = payload
            else:
                failures[index] = failure
                if error is not None:
                    errors[index] = error
        return payloads, failures, errors

    def _run_parallel(self, context: TrajectoryContext, jobs: int,
                      deadline: Deadline):
        """Run trajectories in a process pool, surviving worker loss.

        The initializer's one argument is the run's context: under
        fork the workers inherit it without pickling, under spawn each
        unpickles it once.
        """
        mp_context = get_context(
            "fork" if "fork" in get_all_start_methods() else "spawn")
        payloads: dict[int, dict] = {}
        failures: dict[int, TrajectoryFailure] = {}
        errors: dict[int, BaseException] = {}
        executor = ProcessPoolExecutor(
            max_workers=jobs, mp_context=mp_context,
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
            hung = self._drain(futures, deadline, payloads, failures,
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
        self._fallback(context, deadline, payloads, failures, errors)
        return payloads, failures, errors

    def _drain(self, futures, deadline: Deadline,
               payloads: dict[int, dict],
               failures: dict[int, TrajectoryFailure],
               errors: dict[int, BaseException]) -> bool:
        """Collect worker results; True when a worker may be hung.

        Futures are visited in trajectory order; each wait is capped by
        the remaining deadline and the per-trajectory timeout.  Because
        workers run concurrently, the per-future cap is an *at least*
        guarantee — a future reached late has usually finished already.
        """
        hung = False
        for index, future in enumerate(futures):
            budget = deadline.remaining()
            if self._timeout_s is not None:
                budget = min(budget, self._timeout_s)
            timeout = None if math.isinf(budget) else budget
            try:
                payloads[index] = future.result(timeout=timeout)
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
                  payloads: dict[int, dict],
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
            payload, new_failure, error = self._attempt(
                context, index, deadline,
                attempts_base=failure.attempts)
            if payload is not None:
                payloads[index] = payload
                del failures[index]
                errors.pop(index, None)
            else:
                failures[index] = new_failure
                if error is not None:
                    errors[index] = error

    def _attempt(self, context: TrajectoryContext, index: int,
                 deadline: Deadline, attempts_base: int = 0):
        """One in-process trajectory run under the retry policy.

        Returns ``(payload, None, None)`` on success or
        ``(None, TrajectoryFailure, last_error)`` once attempts (or the
        deadline) are exhausted.  Backoff jitter is seeded from the
        trajectory index, so the schedule is reproducible.
        """
        attempt = 0
        last_error: Exception | None = None
        for pause in self._retry.delays(seed=index):
            if attempt and deadline.expired():
                break
            if pause > 0.0:
                pause = min(pause, deadline.remaining())
                if pause > 0.0:
                    self._sleep(pause)
            attempt += 1
            if attempt > 1:
                self._telemetry.inc("resilience.retries")
                self._telemetry.emit("retry", index=index,
                                     label=self._label(index),
                                     attempt=attempts_base + attempt)
            try:
                payload = run_trajectory(context, index)
            except Exception as error:
                last_error = error
                logger.warning(
                    "trajectory %d (%s) attempt %d failed: %s", index,
                    self._label(index), attempts_base + attempt, error)
                continue
            if attempt > 1:
                logger.info("trajectory %d (%s) recovered on attempt "
                            "%d", index, self._label(index),
                            attempts_base + attempt)
            return payload, None, None
        assert last_error is not None
        cause = "error"
        if isinstance(last_error, WorkerCrash):
            cause = "crash"
        elif isinstance(last_error, SearchTimeout):
            cause = "timeout"
        failure = TrajectoryFailure(
            index, self._label(index), cause,
            attempts_base + attempt,
            f"{type(last_error).__name__}: {last_error}")
        return None, failure, last_error

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

    def _merge(self, payloads: dict[int, dict],
               failures: dict[int, TrajectoryFailure],
               workers: int, backend: str) -> SearchResult:
        ordered = [payloads[index] for index in sorted(payloads)]
        best = min(ordered, key=lambda p: (p["cost"], p["index"]))
        result = rebuild_result(best, self._farm, self._sizes)
        total_evaluations = 0
        pruned = 0.0
        bound_evaluations = 0.0
        for payload in ordered:
            telemetry = payload["telemetry"]
            total_evaluations += int(telemetry.get("evaluations", 0))
            pruned += float(telemetry.get("extras", {})
                            .get("pruned_candidates", 0.0))
            bound_evaluations += float(
                payload["snapshot"]["metrics"]["counters"]
                .get("costmodel.bound_evaluations", 0.0))
            self._telemetry.merge(payload["snapshot"])
            self._telemetry.emit("trajectory-end",
                                 index=int(payload["index"]),
                                 label=payload["label"],
                                 cost=round(float(payload["cost"]), 6))
        result.evaluations = total_evaluations
        result.extras.update({
            "trajectories": float(len(self._specs)),
            "workers": float(workers),
            "backend": float(BACKEND_CODES[backend]),
            "best_trajectory": float(best["index"]),
            "best_trajectory_cost": float(best["cost"]),
            "pruned_candidates": pruned,
            "bound_evaluations": bound_evaluations,
        })
        if failures:
            result.degraded = True
            result.failures = [failures[i] for i in sorted(failures)]
            result.extras["failed_trajectories"] = float(len(failures))
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
        self._telemetry.set_gauge("portfolio.backend",
                                  BACKEND_CODES[backend])
        self._telemetry.set_gauge("portfolio.best_trajectory",
                                  best["index"])
        return result
