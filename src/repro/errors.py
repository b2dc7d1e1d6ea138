"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CatalogError(ReproError):
    """A schema or statistics object is malformed or inconsistent.

    Also raised for a malformed input file (catalog, disks, layout,
    constraints, overlap spec), naming the file and, for a missing
    field, the field.

    Attributes:
        path: The input file's path, when known.
        key: The missing or malformed JSON key, when known.
    """

    def __init__(self, message: str, path: str | None = None,
                 key: str | None = None):
        details = []
        if path is not None:
            details.append(f"file {path!r}")
        if key is not None:
            details.append(f"key {key!r}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.path = path
        self.key = key


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Attributes:
        line: 1-based line of the offending token, when known.
        column: 1-based column of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (
                f", column {column})" if column is not None else ")")
        super().__init__(message + location)
        self.line = line
        self.column = column


class PlanningError(ReproError):
    """The optimizer could not produce an execution plan for a statement."""


class LayoutError(ReproError):
    """A database layout is invalid (Definition 2 of the paper) or cannot
    be constructed under the given constraints."""


class ConstraintError(LayoutError):
    """A manageability/availability constraint is unsatisfiable or violated."""


class AnalysisError(ReproError):
    """Static analysis found error-level diagnostics in the inputs.

    Raised by the advisor's pre-flight (and by
    :func:`repro.analysis.preflight` directly) before any search work is
    done.  The message lists the rule IDs and messages of every
    error-level diagnostic; the structured report is attached.

    Attributes:
        diagnostics: The error-level :class:`repro.analysis.Diagnostic`
            objects that caused the failure.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class SimulationError(ReproError):
    """The I/O simulator was driven into an inconsistent state."""


class WorkloadError(ReproError):
    """A workload file or statement set is malformed."""


class SearchTimeout(ReproError):
    """A search deadline expired before any usable result was produced.

    Only raised when *nothing* completed: the resilient portfolio
    engine prefers returning a degraded partial result (see
    ``SearchResult.failures``) over raising.

    Attributes:
        elapsed_s: Seconds spent before giving up, when known.
    """

    def __init__(self, message: str, elapsed_s: float | None = None):
        if elapsed_s is not None:
            message = f"{message} (after {elapsed_s:.3f}s)"
        super().__init__(message)
        self.elapsed_s = elapsed_s


class WorkerCrash(ReproError):
    """A search worker process died or failed irrecoverably.

    Raised in-process by the fault-injection harness (standing in for a
    killed worker) and by the portfolio engine when every trajectory
    was lost to worker failure.
    """


class RetriesExhausted(ReproError):
    """:meth:`repro.resilience.RetryPolicy.run` gave up.

    Raised from the last attempt's error once the policy's attempts or
    the caller's deadline ran out.

    Attributes:
        attempts: Attempts made, the failed last one included.
        error: The last attempt's error (also the ``__cause__``).
    """

    def __init__(self, attempts: int, error: BaseException):
        noun = "attempt" if attempts == 1 else "attempts"
        super().__init__(f"gave up after {attempts} {noun}: {error}")
        self.attempts = attempts
        self.error = error


class FaultSpecError(ReproError):
    """A ``REPRO_FAULTS`` / ``--faults`` fault specification is malformed."""


class DegradedResult(ReproError, UserWarning):
    """Warning category: a search finished degraded.

    Emitted (via :mod:`warnings`) when the advisor returns a partial
    portfolio result — some trajectories failed or timed out, and the
    recommendation is the exact best over the *completed* ones.  Filter
    with ``warnings.simplefilter("error", DegradedResult)`` to turn
    degraded runs into hard failures.
    """


class RecommendationFormatError(CatalogError):
    """A persisted recommendation, migration plan or drift report is
    malformed.

    Raised by :func:`repro.catalog.io.load_recommendation` (and the
    plan and drift-report loaders) with the offending file path and,
    for missing-field failures, the offending key — so degraded-run
    artifacts fail loud when reloaded instead of surfacing a bare
    ``KeyError``.
    """


class MigrationExecutionError(ReproError):
    """Executing a migration plan failed.

    Raised by :class:`repro.storage.executor.MigrationExecutor` when a
    step cannot be completed (retries exhausted, target mismatch, a
    journal that belongs to a different plan or source layout).  The
    journal is always left consistent — every message carries the
    recovery guidance, and :attr:`step` / :attr:`journal` locate the
    failure for tooling.

    Attributes:
        step: 0-based index of the step that failed, when known.
        journal: The journal's file path, when known.
    """

    def __init__(self, message: str, step: int | None = None,
                 journal: str | None = None):
        details = []
        if step is not None:
            details.append(f"step {step}")
        if journal is not None:
            details.append(f"journal {journal!r}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.step = step
        self.journal = journal


class MigrationInterrupted(MigrationExecutionError):
    """A migration execution stopped mid-plan with a resumable journal.

    Raised by injected crash faults (``crash_after_intent`` /
    ``crash_before_done``) and by deadline expiry between steps — the
    situations where stopping is the *correct* behavior, not a bug.
    The journal on disk is a valid truncated prefix; ``resume()`` (CLI:
    ``repro-advisor migrate --resume``) replays it and continues to the
    same final state an uninterrupted run would have reached, and
    ``rollback()`` returns to the exact source layout.  The CLI maps
    this error to exit code 3 (resumable), not 2 (input error).
    """


class JournalFormatError(MigrationExecutionError):
    """A migration journal (JSONL) is corrupt or malformed.

    Raised by :func:`repro.storage.executor.read_journal` when the file
    cannot be read or parsed, and by replay when the record grammar is
    broken.  A corrupt journal cannot be resumed; the recovery path is
    ``rollback`` from a backup or re-planning from the actual farm
    state.

    Attributes:
        path: The journal's file path, when known.
        line: 1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        details = []
        if path is not None:
            details.append(f"file {path!r}")
        if line is not None:
            details.append(f"line {line}")
        if details:
            message = f"{message} ({', '.join(details)})"
        Exception.__init__(self, message)
        self.step = None
        self.journal = path
        self.path = path
        self.line = line


class ServerError(ReproError):
    """An advisor-service request cannot be satisfied.

    Base class for errors raised by :mod:`repro.server`; the HTTP layer
    maps subclasses onto status codes (see ``docs/server.md``).
    """


class QueueFull(ServerError):
    """The service's job queue is saturated.

    Raised by :meth:`repro.server.jobs.JobQueue.submit` when admitting
    another job would exceed ``max_queue``; the HTTP layer maps it to a
    ``429 Too Many Requests`` response with a ``Retry-After`` hint.

    Attributes:
        retry_after_s: Suggested client back-off in whole seconds.
    """

    def __init__(self, message: str, retry_after_s: int = 1):
        super().__init__(message)
        self.retry_after_s = int(retry_after_s)


class UnknownResource(ServerError):
    """A request referenced a tenant, workload or job that does not
    exist.  The HTTP layer maps it to ``404 Not Found``."""


class BadRequest(ServerError):
    """A request body or parameter is malformed.  The HTTP layer maps
    it to ``400 Bad Request``."""


class EventLogFormatError(ReproError):
    """A flight-recorder event log (JSONL) is malformed.

    Raised by :func:`repro.obs.events.read_events` when a file cannot
    be read or a line is not a valid JSON event record; the CLI's
    ``inspect`` subcommand maps it to exit code 2 like other input
    errors.

    Attributes:
        path: The event log's file path, when known.
        line: 1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        details = []
        if path is not None:
            details.append(f"file {path!r}")
        if line is not None:
            details.append(f"line {line}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.path = path
        self.line = line
