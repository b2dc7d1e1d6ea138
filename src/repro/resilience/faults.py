"""Deterministic fault injection for the search stack.

A :class:`FaultPlan` names the failures to inject into a portfolio run
— kill the worker running trajectory *N*, delay trajectory *M* by *T*
seconds, raise from trajectory *N*'s cost evaluation, or make every
pool worker fail at start — so resilience behavior is testable without
flaky sleeps or real crashes.  Plans are plain frozen dataclasses:
picklable (they ride the process-pool initializer into workers) and
parseable from a compact spec string used by the ``REPRO_FAULTS``
environment variable and the CLI ``--faults`` flag::

    kill_worker=1                 # trajectory 1's process dies hard
    delay=2:0.75                  # trajectory 2 sleeps 0.75s first
    fail_eval=0:2                 # trajectory 0 raises on its first
                                  # 2 attempts (then succeeds)
    fail_worker_init              # every pool worker's initializer
                                  # raises (also =1/true/yes; =0/
                                  # false/no turns it off)
    kill_worker=1,delay=2:0.5     # faults compose with commas

Migration-executor faults (see ``docs/migration.md``) target a *step
index* of the plan being executed instead of a trajectory::

    fail_step=3                   # step 3's transfer raises on its
                                  # first attempt (then succeeds)
    fail_step=3:0                 # ... on every attempt
    crash_after_intent=2          # die right after step 2's intent
                                  # record hits the journal
    crash_before_done=2           # die after the transfer, before the
                                  # done record is journaled
    stall_step=1:0.5              # step 1's transfer hangs 0.5s
                                  # (exercises the deadline path)

Injection points call the ``fire_*`` hooks below.  ``fire_kill`` only
hard-exits when running inside a *worker* process
(``multiprocessing.parent_process()`` is not ``None``); in the parent
— e.g. during the serial fallback that re-runs a crashed trajectory —
it raises :class:`~repro.errors.WorkerCrash` instead, so an injected
crash stays a crash across retries and the run degrades honestly.

Everything here is deterministic: the same plan fires the same faults
at the same points on every run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import FaultSpecError, MigrationInterrupted, WorkerCrash

logger = logging.getLogger("repro.resilience.faults")

#: Environment variable holding the active fault spec.
ENV_VAR = "REPRO_FAULTS"

#: Process-exit code used by an injected worker kill (diagnosable in
#: logs; any non-zero code breaks the pool identically).
KILL_EXIT_CODE = 86

#: Every fault kind :meth:`FaultPlan.from_spec` accepts; unknown-kind
#: errors list exactly this tuple.
FAULT_KINDS = ("kill_worker", "delay", "fail_eval", "fail_worker_init",
               "fail_step", "crash_after_intent", "crash_before_done",
               "stall_step")

#: Spellings of a boolean fault's value; anything else is malformed.
_TRUE = ("", "1", "true", "yes")
_FALSE = ("0", "false", "no")


@dataclass(frozen=True)
class FaultPlan:
    """Which failures to inject, keyed by trajectory index.

    Attributes:
        kill_worker: Trajectory whose executing process dies hard
            (``os._exit``) — in the parent process the same fault
            raises :class:`WorkerCrash` instead of exiting.
        delay_trajectory: Trajectory that sleeps before searching.
        delay_s: Sleep length for ``delay_trajectory``.
        fail_eval: Trajectory whose cost evaluation raises
            :class:`WorkerCrash`.
        fail_eval_times: How many attempts of ``fail_eval`` fail before
            it succeeds; ``0`` means every attempt fails.
        fail_worker_init: Make every pool worker's initializer raise
            :class:`WorkerCrash` (exercises the broken-pool ->
            serial-fallback path).
        fail_step: Migration step whose transfer raises
            :class:`WorkerCrash` (a transient, retryable failure).
        fail_step_times: How many attempts of ``fail_step`` fail before
            it succeeds; ``0`` means every attempt fails.
        crash_after_intent: Migration step at which execution dies
            immediately after the intent record is journaled (raises
            :class:`~repro.errors.MigrationInterrupted`).
        crash_before_done: Migration step at which execution dies after
            the transfer but before the done record is journaled.
        stall_step: Migration step whose transfer sleeps ``stall_s``
            first (exercises the executor's deadline path).
        stall_s: Sleep length for ``stall_step``.
    """

    kill_worker: int | None = None
    delay_trajectory: int | None = None
    delay_s: float = 0.0
    fail_eval: int | None = None
    fail_eval_times: int = 0
    fail_worker_init: bool = False
    fail_step: int | None = None
    fail_step_times: int = 1
    crash_after_intent: int | None = None
    crash_before_done: int | None = None
    stall_step: int | None = None
    stall_s: float = 0.0

    @property
    def empty(self) -> bool:
        return (self.kill_worker is None
                and self.delay_trajectory is None
                and self.fail_eval is None
                and not self.fail_worker_init
                and self.fail_step is None
                and self.crash_after_intent is None
                and self.crash_before_done is None
                and self.stall_step is None)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact fault spec (see the module docstring)."""
        plan = cls()
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            name, _, value = entry.partition("=")
            name = name.strip()
            value = value.strip()
            try:
                if name == "kill_worker":
                    plan = replace(plan, kill_worker=int(value))
                elif name == "delay":
                    index, _, seconds = value.partition(":")
                    plan = replace(plan, delay_trajectory=int(index),
                                   delay_s=float(seconds or 1.0))
                elif name == "fail_eval":
                    index, _, times = value.partition(":")
                    plan = replace(plan, fail_eval=int(index),
                                   fail_eval_times=int(times or 0))
                elif name == "fail_worker_init":
                    flag = value.lower()
                    if flag not in _TRUE + _FALSE:
                        raise ValueError(
                            "expected no value, 1/true/yes or "
                            "0/false/no")
                    plan = replace(plan, fail_worker_init=flag in _TRUE)
                elif name == "fail_step":
                    index, _, times = value.partition(":")
                    plan = replace(plan, fail_step=int(index),
                                   fail_step_times=int(times)
                                   if times else 1)
                elif name == "crash_after_intent":
                    plan = replace(plan, crash_after_intent=int(value))
                elif name == "crash_before_done":
                    plan = replace(plan, crash_before_done=int(value))
                elif name == "stall_step":
                    index, _, seconds = value.partition(":")
                    plan = replace(plan, stall_step=int(index),
                                   stall_s=float(seconds or 1.0))
                else:
                    raise FaultSpecError(
                        f"unknown fault {name!r} in spec {spec!r}; "
                        f"valid kinds: {', '.join(FAULT_KINDS)}")
            except (ValueError, TypeError) as bad:
                raise FaultSpecError(
                    f"malformed fault entry {entry!r} in spec "
                    f"{spec!r}: {bad}") from None
        return plan

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None,
                 ) -> "FaultPlan | None":
        """The plan named by ``REPRO_FAULTS``, or ``None`` when unset."""
        spec = (environ if environ is not None else os.environ).get(
            ENV_VAR, "").strip()
        if not spec:
            return None
        plan = cls.from_spec(spec)
        return None if plan.empty else plan


#: Per-process count of fail_eval firings (supports fail_eval_times).
_EVAL_FIRED: dict[int, int] = {}


def reset_eval_counts() -> None:
    """Forget this process's fail_eval firings (once per search)."""
    _EVAL_FIRED.clear()


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


# -- injection hooks ----------------------------------------------------------


def fire_kill(plan: FaultPlan | None, index: int) -> None:
    """Kill the current worker if the plan targets trajectory ``index``.

    In a worker process this hard-exits (no cleanup — exactly what a
    SIGKILLed or OOM-killed worker looks like to the parent pool).  In
    the parent it raises :class:`WorkerCrash`, so serial fallback
    attempts of the same doomed trajectory keep failing and the run
    degrades instead of silently un-crashing.
    """
    if plan is None or plan.kill_worker != index:
        return
    if _in_worker_process():
        logger.warning("fault injection: killing worker running "
                       "trajectory %d", index)
        os._exit(KILL_EXIT_CODE)
    raise WorkerCrash(
        f"fault injection: trajectory {index} worker killed")


def fire_delay(plan: FaultPlan | None, index: int,
               sleep=time.sleep) -> None:
    """Sleep if the plan delays trajectory ``index``."""
    if plan is None or plan.delay_trajectory != index:
        return
    logger.warning("fault injection: delaying trajectory %d by %.3fs",
                   index, plan.delay_s)
    sleep(plan.delay_s)


def fire_eval(plan: FaultPlan | None, index: int) -> None:
    """Raise from trajectory ``index``'s cost evaluation.

    Honors ``fail_eval_times``: with a positive limit the fault fires
    only on the first N attempts *in this process*, letting retry
    policies demonstrate recovery deterministically.
    """
    if plan is None or plan.fail_eval != index:
        return
    fired = _EVAL_FIRED.get(index, 0)
    if plan.fail_eval_times and fired >= plan.fail_eval_times:
        return
    _EVAL_FIRED[index] = fired + 1
    raise WorkerCrash(
        f"fault injection: cost evaluation failed for trajectory "
        f"{index} (attempt {fired + 1})")


def fire_worker_init(plan: FaultPlan | None) -> None:
    """Fail a pool worker's initializer when the plan says so."""
    if plan is None or not plan.fail_worker_init:
        return
    raise WorkerCrash("fault injection: pool worker failed to start")


# -- migration-executor hooks --------------------------------------------------

#: Fallback per-process count of fail_step firings; the executor passes
#: its own per-run counter so repeated runs in one process stay
#: independent and deterministic.
_STEP_FIRED: dict[int, int] = {}


def fire_step_fail(plan: FaultPlan | None, index: int,
                   fired: dict[int, int] | None = None) -> None:
    """Fail migration step ``index``'s transfer (a transient error).

    Honors ``fail_step_times`` via the ``fired`` counter (the
    executor's per-run attempt ledger): with a positive limit the fault
    fires only on the first N attempts, letting a
    :class:`~repro.resilience.policy.RetryPolicy` demonstrate recovery
    deterministically.
    """
    if plan is None or plan.fail_step != index:
        return
    counter = fired if fired is not None else _STEP_FIRED
    count = counter.get(index, 0)
    if plan.fail_step_times and count >= plan.fail_step_times:
        return
    counter[index] = count + 1
    raise WorkerCrash(
        f"fault injection: transfer failed for migration step "
        f"{index} (attempt {count + 1})")


def fire_step_crash(plan: FaultPlan | None, index: int,
                    when: str, journal: str | None = None) -> None:
    """Crash migration execution at a journaled step boundary.

    ``when`` is ``"after_intent"`` (the intent record is durable, the
    transfer has not run) or ``"before_done"`` (the transfer ran, the
    done record was never written).  Both leave the journal ending in a
    dangling intent — exactly what a SIGKILLed executor leaves behind —
    so resume re-executes the step idempotently.
    """
    if plan is None:
        return
    target = plan.crash_after_intent if when == "after_intent" \
        else plan.crash_before_done
    if target != index:
        return
    logger.warning("fault injection: crashing migration executor at "
                   "step %d (%s)", index, when)
    raise MigrationInterrupted(
        f"fault injection: executor crashed {when.replace('_', ' ')} "
        f"at step {index}; the journal is a valid prefix — resume "
        f"with 'repro-advisor migrate --resume'",
        step=index, journal=journal)


def fire_step_stall(plan: FaultPlan | None, index: int,
                    sleep=time.sleep) -> None:
    """Stall migration step ``index``'s transfer for ``stall_s``."""
    if plan is None or plan.stall_step != index:
        return
    logger.warning("fault injection: stalling migration step %d "
                   "by %.3fs", index, plan.stall_s)
    sleep(plan.stall_s)
