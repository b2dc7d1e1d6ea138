"""Deadlines and retry policies for unattended search runs.

The advisor is meant to run inside a tuning service where a hung or
crashed recommendation is worse than a slightly suboptimal one.  This
module provides the primitives every resilient caller composes:

* :class:`Deadline` — an absolute point on the monotonic clock; cheap
  to poll (``expired()``/``remaining()``) and to assert
  (``check()`` raises :class:`~repro.errors.SearchTimeout`).
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  **deterministic** jitter: the jitter stream is seeded from the
  caller-supplied seed (the portfolio engine passes the trajectory
  index), so two runs of the same failing trajectory sleep the exact
  same schedule and results stay reproducible.  :meth:`RetryPolicy.run`
  is the one retry loop; the portfolio engine and the migration
  executor both call it.

Determinism note: retrying a trajectory never changes *what* it
computes — trajectories are pure functions of their spec — so retries
affect only wall-clock time and the ``attempts`` count recorded in
:class:`~repro.core.greedy.TrajectoryFailure`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import LayoutError, RetriesExhausted, SearchTimeout


class Deadline:
    """A wall-clock cutoff on the monotonic clock.

    Args:
        seconds: Allowance from *now*; ``None`` means unlimited.
        clock: Injectable clock (monotonic seconds) for testing.
    """

    __slots__ = ("_clock", "_expires_at", "_started_at")

    def __init__(self, seconds: float | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        if seconds is not None and seconds < 0:
            raise LayoutError("deadline seconds must be >= 0")
        self._clock = clock
        self._started_at = clock()
        self._expires_at = None if seconds is None \
            else self._started_at + seconds

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    @classmethod
    def after(cls, seconds: float, *,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(seconds, clock=clock)

    @classmethod
    def coerce(cls, value) -> "Deadline":
        """Normalize ``None`` / seconds / ``Deadline``.

        ``None`` becomes an unlimited deadline, a number starts counting
        now, and an existing ``Deadline`` passes through unchanged.
        """
        if value is None:
            return cls.never()
        if isinstance(value, Deadline):
            return value
        if isinstance(value, (int, float)):
            return cls.after(float(value))
        raise LayoutError(
            f"cannot interpret {value!r} as a deadline "
            "(want None, seconds or a Deadline)")

    @property
    def unlimited(self) -> bool:
        return self._expires_at is None

    def elapsed(self) -> float:
        """Seconds since this deadline started counting."""
        return self._clock() - self._started_at

    def remaining(self) -> float:
        """Seconds left (never negative); ``inf`` when unlimited."""
        if self._expires_at is None:
            return math.inf
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, label: str = "search") -> None:
        """Raise :class:`SearchTimeout` if the deadline has expired."""
        if self.expired():
            raise SearchTimeout(f"{label} deadline expired",
                                elapsed_s=self.elapsed())

    def __repr__(self) -> str:
        if self.unlimited:
            return "Deadline(unlimited)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Attributes:
        attempts: Total attempts (1 = no retries).
        base_delay_s: Sleep before the first retry.
        multiplier: Backoff factor between consecutive retries.
        max_delay_s: Cap on any single sleep.
        jitter: Fractional jitter in ``[0, 1]``: each sleep is scaled by
            a factor drawn uniformly from ``[1, 1 + jitter]`` using a
            PRNG seeded from the caller's ``seed`` — the schedule for a
            given seed is identical across runs, keeping resilient runs
            reproducible.
    """

    attempts: int = 2
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise LayoutError("RetryPolicy needs attempts >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise LayoutError("RetryPolicy delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise LayoutError("RetryPolicy jitter must be in [0, 1]")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single-attempt policy (fail fast, no retries)."""
        return cls(attempts=1)

    def delays(self, seed: int = 0) -> Iterator[float]:
        """Pre-attempt sleeps: ``0.0`` first, then jittered backoffs.

        Yields exactly :attr:`attempts` values.  The jitter stream is a
        pure function of ``seed`` (use e.g. the trajectory index), so
        the schedule is deterministic.
        """
        # Integer seed derivation only: seeding from a tuple would go
        # through hash(), which PYTHONHASHSEED salts across runs.
        rng = random.Random(0x5EED_CAFE ^ (int(seed) * 1_000_003))
        yield 0.0
        delay = self.base_delay_s
        for _ in range(self.attempts - 1):
            scale = 1.0 + self.jitter * rng.random()
            yield min(delay * scale, self.max_delay_s)
            delay *= self.multiplier

    def run(self, fn: Callable[[], object], *, seed: int = 0,
            retry_on: tuple[type[BaseException], ...] = (Exception,),
            deadline: Deadline | None = None,
            sleep: Callable[[float], None] = time.sleep,
            on_retry: Callable[[int, BaseException], None] | None = None):
        """Call ``fn`` under this policy; return ``(value, attempts)``.

        Retries on ``retry_on`` exceptions, sleeping the deterministic
        backoff schedule between attempts; any other exception
        propagates at once.  Stops early when ``deadline`` expires — a
        sleep is never allowed to overshoot the deadline.
        ``on_retry(attempt, error)`` is called when a retry starts, after
        its sleep, with the number of the attempt about to run and the
        previous attempt's error.

        Raises:
            RetriesExhausted: From the last error, carrying the number
                of attempts made, once the attempts or the deadline
                run out.
        """
        last_error: BaseException | None = None
        attempt = 0
        for pause in self.delays(seed):
            if last_error is not None and deadline is not None \
                    and deadline.expired():
                break
            if pause > 0.0:
                if deadline is not None:
                    pause = min(pause, deadline.remaining())
                if pause > 0.0:
                    sleep(pause)
            attempt += 1
            if last_error is not None and on_retry is not None:
                on_retry(attempt, last_error)
            try:
                return fn(), attempt
            except retry_on as error:
                last_error = error
        assert last_error is not None
        raise RetriesExhausted(attempt, last_error) from last_error
