"""Crash-safe migration execution: journaled, resumable, reversible.

:func:`repro.storage.migration.plan_migration` produces an ordered,
capacity-safe :class:`~repro.storage.migration.MigrationPlan`; this
module *runs* one.  The executor writes a durable append-only JSONL
journal — an ``intent`` record before each step and a ``done`` record
after it, flushed and fsynced per entry — so execution is idempotent
and resumable: killed at any instant, the journal is a valid prefix,
:meth:`MigrationExecutor.resume` replays it, re-verifies the
intermediate farm state against per-step digests, and continues to a
final layout bit-identical to an uninterrupted run.
:meth:`MigrationExecutor.rollback` plans and executes the
capacity-safe reverse path back to the exact source layout from any
interruption point.

Journal grammar (one JSON object per line, ``seq`` contiguous from 0)::

    open (intent done)* [intent] [close]     # one segment
    journal := segment+                      # resume/rollback append
                                             # a new segment

Record kinds:

* ``open`` — ``{"seq", "kind": "open", "version", "mode", "steps",
  "plan", "source", ...}``; ``mode`` is ``execute``, ``resume`` or
  ``rollback``.  ``plan`` and ``source`` are content digests binding
  the journal to one (plan, source-layout) pair; a rollback ``open``
  additionally embeds its reverse plan (``plan_steps``) and the
  forward step count it rolled back from (``from_step``).
* ``intent`` — the step about to run (``step``, ``phase``, ``obj``,
  ``src``, ``dst``, ``blocks``, ``staged``).  A journal ending in a
  dangling intent means the step may or may not have run; resume
  re-executes it whole, which is safe because a step is a plain block
  copy and the ``done`` record is what commits it.
* ``done`` — the step committed (``step``, ``phase``, ``attempts``,
  ``state``); ``state`` is the digest of the farm state *after* the
  step, verified on every replay.
* ``close`` — terminal record (``status`` of ``complete`` or
  ``rolled-back``, final ``state`` digest).

Durable truth is ``source layout + ordered done-record deltas``.  Block
counts round-trip JSON exactly (Python floats), so replaying a journal
reproduces the in-memory farm state bit for bit — digest equality, not
tolerance comparison, is the resume contract.  See ``docs/migration.md``
for the operational story (throttling, fault cookbook, CLI verbs).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    JournalFormatError,
    MigrationExecutionError,
    MigrationInterrupted,
    RetriesExhausted,
    WorkerCrash,
)
from repro.obs import NULL_TELEMETRY
from repro.resilience.faults import (
    FaultPlan,
    fire_step_crash,
    fire_step_fail,
    fire_step_stall,
)
from repro.resilience.policy import Deadline, RetryPolicy
from repro.storage.migration import (
    EPS_BLOCKS,
    MigrationPlan,
    MigrationStep,
    plan_migration,
)

if TYPE_CHECKING:
    from repro.core.layout import Layout

logger = logging.getLogger("repro.storage.executor")

#: Journal schema version stamped into every ``open`` record.
JOURNAL_VERSION = 1

_MODES = ("execute", "resume", "rollback")
_STATUSES = ("complete", "rolled-back")


def _digest(payload: Any) -> str:
    """Stable 16-hex-char content digest of a JSON-able payload."""
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def plan_digest(plan: MigrationPlan | list[MigrationStep]) -> str:
    """Content digest of a plan's steps (order-sensitive, run_id-free)."""
    steps = plan.steps if isinstance(plan, MigrationPlan) else plan
    return _digest([s.to_dict() for s in steps])


class FarmState:
    """Mutable per-disk block placement replayed from a journal.

    The durable representation of "where the data is": for each object,
    the blocks it occupies on each disk (``size * fraction``).  Steps
    apply as exact float deltas, so two replays of the same journal —
    or a replay and the live execution it mirrors — agree bit for bit.
    """

    def __init__(self, farm, object_sizes: dict[str, int],
                 blocks: dict[str, list[float]]):
        self.farm = farm
        self.object_sizes = dict(object_sizes)
        self.blocks = {name: list(row) for name, row in blocks.items()}

    @classmethod
    def from_layout(cls, layout: "Layout") -> "FarmState":
        """The state a layout describes."""
        blocks = {name: [layout.size_of(name) * f
                         for f in layout.fractions_of(name)]
                  for name in layout.object_names}
        return cls(layout.farm, layout.object_sizes, blocks)

    def copy(self) -> "FarmState":
        return FarmState(self.farm, self.object_sizes, self.blocks)

    def apply(self, obj: str, src: int, dst: int, blocks: float) -> None:
        """Move ``blocks`` of ``obj`` from disk ``src`` to ``dst``."""
        row = self.blocks[obj]
        row[src] -= blocks
        row[dst] += blocks

    def disk_used_blocks(self, j: int) -> float:
        """Blocks currently resident on disk ``j``."""
        return sum(row[j] for row in self.blocks.values())

    def digest(self) -> str:
        """Content digest of the exact float placement."""
        return _digest(self.blocks)

    def matches(self, other: "FarmState",
                tolerance: float = EPS_BLOCKS) -> bool:
        """Whether every per-disk block count agrees within tolerance."""
        if sorted(self.blocks) != sorted(other.blocks):
            return False
        for name in sorted(self.blocks):
            mine, theirs = self.blocks[name], other.blocks[name]
            if len(mine) != len(theirs):
                return False
            if any(abs(a - b) > tolerance
                   for a, b in zip(mine, theirs)):
                return False
        return True

    def to_layout(self, check_capacity: bool = True) -> "Layout":
        """Materialize the state as a :class:`~repro.core.layout.Layout`.

        Tiny negative residues (float noise from replayed deltas) are
        clamped to zero; fractions are otherwise the exact block counts
        over the object size.
        """
        # Deferred import: repro.storage is a lower layer than
        # repro.core, so Layout cannot be imported at module load.
        from repro.core.layout import Layout
        fractions = {}
        for name in sorted(self.blocks):
            size = self.object_sizes[name]
            row = self.blocks[name]
            if size <= 0:
                fractions[name] = [0.0] * len(row)
                continue
            fractions[name] = [max(0.0, b) / size for b in row]
        return Layout(self.farm, self.object_sizes, fractions,
                      check_capacity=check_capacity)


@dataclass
class ExecutionResult:
    """Outcome of one executor invocation.

    Attributes:
        status: ``"complete"`` (forward migration finished) or
            ``"rolled-back"`` (reverse path finished).
        layout: The layout the farm is now in — the exact target on
            completion, the exact source after a rollback.
        executed_steps: Steps this invocation ran and journaled.
        skipped_steps: Already-done steps a resume skipped.
        retried_steps: Steps that needed more than one attempt.
        transfer_seconds: Estimated transfer time of the steps this
            invocation executed.
        state_digest: Digest of the final farm state (the bit-identity
            handle: equal digests mean equal states).
        journal_path: Where the journal lives.
    """

    status: str
    layout: "Layout"
    executed_steps: int = 0
    skipped_steps: int = 0
    retried_steps: int = 0
    transfer_seconds: float = 0.0
    state_digest: str = ""
    journal_path: str = ""


@dataclass
class JournalReplay:
    """What a journal proves already happened.

    Attributes:
        state: Farm state after every committed (``done``) step.
        done_steps: Forward-plan steps committed, in order.
        mode: Mode of the journal's last ``open`` segment.
        closed: Terminal status if the journal ends in ``close``.
        rollback_steps: The last rollback segment's embedded reverse
            plan (``None`` outside rollback).
        rollback_done: Reverse steps committed in that segment.
        dangling_intent: Step index of a trailing uncommitted intent.
        records: How many records were replayed.
    """

    state: FarmState
    done_steps: list[int] = field(default_factory=list)
    mode: str = "execute"
    closed: str | None = None
    rollback_steps: list[MigrationStep] | None = None
    rollback_done: int = 0
    dangling_intent: int | None = None
    records: int = 0


class _Journal:
    """Append-only JSONL writer, flushed and fsynced per record."""

    def __init__(self, path: str, start_seq: int = 0):
        self.path = str(path)
        self.seq = start_seq

    def append(self, kind: str, **fields) -> dict[str, Any]:
        record = {"seq": self.seq, "kind": kind}
        record.update(fields)
        line = json.dumps(record, sort_keys=False)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.seq += 1
        return record


def read_journal(path: str) -> list[dict[str, Any]]:
    """Parse a journal file into its records.

    Raises:
        JournalFormatError: On unparseable or non-object lines; blank
            trailing lines (a torn final write) are tolerated only at
            the very end of the file.
        FileNotFoundError: When the journal does not exist.
    """
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            raise JournalFormatError(
                "blank line inside a migration journal",
                path=str(path), line=number)
        try:
            record = json.loads(line)
        except json.JSONDecodeError as bad:
            if number == len(lines):
                # A torn final write is exactly what a crash mid-append
                # leaves behind; everything before it is still valid.
                logger.warning("journal %s: dropping torn final line "
                               "%d (%s)", path, number, bad)
                break
            raise JournalFormatError(
                f"unparseable journal line: {bad}",
                path=str(path), line=number) from None
        if not isinstance(record, dict):
            raise JournalFormatError(
                "journal line is not a JSON object",
                path=str(path), line=number)
        records.append(record)
    return records


_REQUIRED = {
    "open": ("mode", "version", "steps", "plan", "source"),
    "intent": ("step", "phase", "obj", "src", "dst", "blocks"),
    "done": ("step", "phase", "attempts", "state"),
    "close": ("status", "state"),
}


def _scan(records: list[dict[str, Any]],
          plan: MigrationPlan | None = None,
          source: "Layout | None" = None,
          ) -> tuple[list[tuple[str, int, str]], JournalReplay | None]:
    """Walk a journal once, collecting problems and the replayed state.

    Returns ``(problems, replay)`` where each problem is
    ``(category, line, message)`` with category ``"format"`` (the
    journal itself is malformed) or ``"mismatch"`` (the journal is
    well-formed but disagrees with the plan/source or its own
    digests).  ``replay`` is ``None`` when the walk had to stop early.
    """
    problems: list[tuple[str, int, str]] = []
    if not records:
        return [("format", 0, "journal has no records")], None
    state = FarmState.from_layout(source) if source is not None else None
    replay = JournalReplay(state=state)  # type: ignore[arg-type]
    phase = "execute"
    seg_steps: list[MigrationStep] | None = \
        list(plan.steps) if plan is not None else None
    pending: dict[str, Any] | None = None
    last_done_state: str | None = None
    for index, record in enumerate(records):
        line = index + 1
        if record.get("seq") != index:
            problems.append(("format", line,
                             f"seq {record.get('seq')!r} out of order "
                             f"(expected {index})"))
            return problems, None
        kind = record.get("kind")
        if kind not in _REQUIRED:
            problems.append(("format", line,
                             f"unknown record kind {kind!r}"))
            return problems, None
        missing = sorted(k for k in _REQUIRED[kind] if k not in record)
        if missing:
            problems.append(("format", line,
                             f"{kind} record missing fields: "
                             f"{', '.join(missing)}"))
            return problems, None
        if replay.closed is not None:
            problems.append(("format", line,
                             "record after the terminal close"))
            return problems, None
        if kind == "open":
            mode = record["mode"]
            if mode not in _MODES:
                problems.append(("format", line,
                                 f"unknown mode {mode!r}"))
                return problems, None
            if record["version"] != JOURNAL_VERSION:
                problems.append(("format", line,
                                 f"unsupported journal version "
                                 f"{record['version']!r}"))
                return problems, None
            if (mode == "execute") != (index == 0):
                problems.append(("format", line,
                                 f"mode {mode!r} segment in the wrong "
                                 f"position"))
            if pending is not None:
                replay.dangling_intent = None  # superseded by new segment
                pending = None
            replay.mode = mode
            if mode == "rollback":
                phase = "rollback"
                raw = record.get("plan_steps")
                if not isinstance(raw, list):
                    problems.append(("format", line,
                                     "rollback open embeds no "
                                     "plan_steps"))
                    return problems, None
                try:
                    seg_steps = [MigrationStep.from_dict(s) for s in raw]
                except (KeyError, TypeError, ValueError) as bad:
                    problems.append(("format", line,
                                     f"bad rollback plan_steps: {bad}"))
                    return problems, None
                replay.rollback_steps = seg_steps
                replay.rollback_done = 0
                if record["plan"] != plan_digest(seg_steps):
                    problems.append(("mismatch", line,
                                     "rollback plan digest does not "
                                     "match its embedded steps"))
            else:
                phase = "execute"
                seg_steps = list(plan.steps) if plan is not None else None
                if plan is not None:
                    if record["plan"] != plan_digest(plan):
                        problems.append((
                            "mismatch", line,
                            f"journal plan digest {record['plan']!r} "
                            f"does not match the given plan "
                            f"({plan_digest(plan)})"))
                    if record["steps"] != len(plan.steps):
                        problems.append((
                            "mismatch", line,
                            f"journal says {record['steps']} steps, "
                            f"plan has {len(plan.steps)}"))
            if source is not None \
                    and record["source"] != \
                    FarmState.from_layout(source).digest():
                problems.append((
                    "mismatch", line,
                    f"journal source digest {record['source']!r} does "
                    f"not match the given source layout"))
        elif kind == "intent":
            if pending is not None:
                problems.append(("format", line,
                                 f"intent for step {record['step']} "
                                 f"while step {pending['step']} is "
                                 f"still pending"))
                return problems, None
            if record["phase"] != phase:
                problems.append(("format", line,
                                 f"intent phase {record['phase']!r} in "
                                 f"a {phase} segment"))
            expected = len(replay.done_steps) if phase == "execute" \
                else replay.rollback_done
            if record["step"] != expected:
                problems.append(("format", line,
                                 f"intent for step {record['step']}, "
                                 f"expected step {expected}"))
                return problems, None
            if seg_steps is not None:
                if record["step"] >= len(seg_steps):
                    problems.append(("mismatch", line,
                                     f"intent step {record['step']} "
                                     f"beyond the {len(seg_steps)}-step "
                                     f"plan"))
                    return problems, None
                step = seg_steps[record["step"]]
                for key, want in (("obj", step.obj), ("src", step.src),
                                  ("dst", step.dst),
                                  ("blocks", float(step.blocks)),
                                  ("staged", step.staged)):
                    if record.get(key, False) != want:
                        problems.append((
                            "mismatch", line,
                            f"intent {key}={record.get(key)!r} "
                            f"disagrees with plan step "
                            f"{record['step']} ({key}={want!r})"))
            pending = record
            replay.dangling_intent = record["step"]
        elif kind == "done":
            if pending is None or pending["step"] != record["step"] \
                    or pending["phase"] != record["phase"]:
                problems.append(("format", line,
                                 f"done for step {record['step']} "
                                 f"without a matching intent"))
                return problems, None
            if state is not None:
                state.apply(pending["obj"], int(pending["src"]),
                            int(pending["dst"]),
                            float(pending["blocks"]))
                if record["state"] != state.digest():
                    problems.append((
                        "mismatch", line,
                        f"state digest {record['state']!r} after step "
                        f"{record['step']} does not match the replay "
                        f"({state.digest()}); the journal was not "
                        f"produced from this source layout and plan"))
            if phase == "execute":
                replay.done_steps.append(int(record["step"]))
            else:
                replay.rollback_done += 1
            pending = None
            replay.dangling_intent = None
            last_done_state = str(record["state"])
        elif kind == "close":
            if pending is not None:
                problems.append(("format", line,
                                 "close while a step is pending"))
                return problems, None
            status = record["status"]
            if status not in _STATUSES:
                problems.append(("format", line,
                                 f"unknown close status {status!r}"))
                return problems, None
            if status == "complete":
                if phase != "execute":
                    problems.append(("format", line,
                                     "complete close on a rollback "
                                     "segment"))
                elif seg_steps is not None \
                        and len(replay.done_steps) != len(seg_steps):
                    problems.append((
                        "mismatch", line,
                        f"complete close after "
                        f"{len(replay.done_steps)} of "
                        f"{len(seg_steps)} steps"))
            else:
                if phase != "rollback":
                    problems.append(("format", line,
                                     "rolled-back close outside a "
                                     "rollback segment"))
                elif seg_steps is not None \
                        and replay.rollback_done != len(seg_steps):
                    problems.append((
                        "mismatch", line,
                        f"rolled-back close after "
                        f"{replay.rollback_done} of "
                        f"{len(seg_steps)} reverse steps"))
            if state is not None and record["state"] != state.digest():
                problems.append(("mismatch", line,
                                 "close state digest does not match "
                                 "the replayed state"))
            elif state is None and last_done_state is not None \
                    and record["state"] != last_done_state:
                problems.append(("mismatch", line,
                                 "close state digest does not match "
                                 "the last done record"))
            replay.closed = status
        replay.records = index + 1
    return problems, replay


def validate_journal(records: list[dict[str, Any]],
                     plan: MigrationPlan | None = None,
                     source: "Layout | None" = None) -> list[str]:
    """Every problem in a journal, as human-readable strings.

    With ``plan``/``source`` supplied the check extends from pure
    structure (grammar, sequencing, pairing) to semantic consistency
    (digest binding, per-step field agreement, replayed state digests).
    """
    problems, _ = _scan(records, plan=plan, source=source)
    return [f"line {line}: {message}" if line else message
            for _, line, message in problems]


def replay_journal(records: list[dict[str, Any]],
                   plan: MigrationPlan | None = None,
                   source: "Layout | None" = None,
                   path: str | None = None) -> JournalReplay:
    """Strictly replay a journal to its proven state.

    Raises:
        JournalFormatError: The journal itself is malformed.
        MigrationExecutionError: The journal is well-formed but
            disagrees with the given plan/source or its own state
            digests (the wrong inputs were supplied, or the journal
            was tampered with).
    """
    problems, replay = _scan(records, plan=plan, source=source)
    for category, line, message in problems:
        if category == "format":
            raise JournalFormatError(message, path=path, line=line)
    if problems:
        _, line, message = problems[0]
        raise MigrationExecutionError(
            f"journal disagrees with its inputs: {message} "
            f"(line {line}); re-check the plan and source layout "
            f"before resuming", journal=path)
    assert replay is not None
    return replay


def render_journal(records: list[dict[str, Any]],
                   problems: list[str] | None = None) -> str:
    """Human-readable journal rendering for ``repro-advisor inspect``."""
    lines = ["=== migration journal ==="]
    segments = sum(1 for r in records if r.get("kind") == "open")
    closes = [r for r in records if r.get("kind") == "close"]
    status = closes[-1].get("status") if closes else "in-flight"
    lines.append(f"records: {len(records)}  segments: {segments}  "
                 f"status: {status}")
    for record in records:
        seq = record.get("seq", "?")
        kind = record.get("kind", "?")
        if kind == "open":
            detail = (f"{record.get('mode'):8s} steps={record.get('steps')}"
                      f"  plan={record.get('plan')}"
                      f"  source={record.get('source')}")
            if record.get("from_step") is not None:
                detail += f"  from_step={record.get('from_step')}"
        elif kind == "intent":
            staged = "  (staged)" if record.get("staged") else ""
            detail = (f"step {record.get('step'):<3} "
                      f"{record.get('obj')} "
                      f"d{record.get('src')} -> d{record.get('dst')}  "
                      f"{float(record.get('blocks', 0.0)):.1f} blk"
                      f"{staged}")
        elif kind == "done":
            detail = (f"step {record.get('step'):<3} "
                      f"attempts={record.get('attempts')}  "
                      f"state={record.get('state')}")
        elif kind == "close":
            detail = (f"{record.get('status')}  "
                      f"state={record.get('state')}")
        else:
            detail = json.dumps(record, sort_keys=True)
        lines.append(f"[{seq:>4}] {kind:7s} {detail}")
    if problems:
        lines.append("")
        lines.append(f"--- problems ({len(problems)}) ---")
        lines.extend(f"  {p}" for p in problems)
    return "\n".join(lines)


class MigrationExecutor:
    """Runs a migration plan with a crash-safe journal.

    Args:
        plan: The ordered, capacity-safe plan to execute.
        source: The layout the data is in before step 0 — the anchor
            every replay starts from.
        journal_path: Where the JSONL journal lives.  ``execute``
            refuses a non-empty journal (use ``resume``); ``resume``
            and ``rollback`` require one.
        target: Optional expected final layout; when given, the final
            state is verified against it and the exact object is
            returned in the result.
        retry: Per-step :class:`~repro.resilience.policy.RetryPolicy`
            for transient transfer failures (default: no retries).
        deadline: Overall :class:`~repro.resilience.policy.Deadline`
            (anything :meth:`Deadline.coerce` accepts); expiry raises
            :class:`~repro.errors.MigrationInterrupted` at the next
            step boundary, leaving a resumable journal.
        faults: Optional :class:`~repro.resilience.faults.FaultPlan`
            for deterministic chaos testing (``fail_step``,
            ``crash_after_intent``, ``crash_before_done``,
            ``stall_step``).
        telemetry: Optional :class:`repro.obs.Telemetry`; opens the
            ``*-migration`` spans, emits ``migration-*`` events and
            records ``migration.*`` metrics; journals carry its run id.
        sleep: Injectable sleep (retry backoff and stall faults).
    """

    def __init__(self, plan: MigrationPlan, source: "Layout", *,
                 journal_path: str, target: "Layout | None" = None,
                 retry: RetryPolicy | None = None,
                 deadline=None, faults: FaultPlan | None = None,
                 telemetry=NULL_TELEMETRY,
                 sleep: Callable[[float], None] = time.sleep):
        self._plan = plan
        self._source = source
        self._target = target
        self._journal_path = str(journal_path)
        self._retry = retry if retry is not None else RetryPolicy.none()
        self._deadline = Deadline.coerce(deadline)
        self._faults = faults
        self._telemetry = telemetry
        self._sleep = sleep
        self._step_failures: dict[int, int] = {}

    # -- public verbs ------------------------------------------------------------

    def execute(self) -> ExecutionResult:
        """Run the plan from step 0, journaling every step.

        Raises:
            MigrationExecutionError: A step failed permanently, the
                journal already has records (resume instead), or the
                final state disagrees with ``target``.
            MigrationInterrupted: The deadline expired or an injected
                crash fired; the journal is a valid resumable prefix.
        """
        if self._existing_records():
            raise MigrationExecutionError(
                f"journal {self._journal_path!r} already has records; "
                f"use resume() to continue or rollback() to undo",
                journal=self._journal_path)
        with self._telemetry.span("execute-migration") as span:
            span.set("steps", len(self._plan.steps))
            journal = _Journal(self._journal_path)
            state = FarmState.from_layout(self._source)
            self._open(journal, "execute")
            result = self._run_forward(journal, state, start=0)
        return result

    def resume(self) -> ExecutionResult:
        """Continue an interrupted execution from its journal.

        Replays the journal against the source layout (verifying every
        state digest), skips committed steps, and runs the rest.  On a
        journal whose last segment is an unfinished rollback, the
        rollback is continued instead.  Resuming an already-closed
        journal is idempotent.
        """
        records = self._require_records("resume")
        replay = replay_journal(records, plan=self._plan,
                                source=self._source,
                                path=self._journal_path)
        if replay.closed == "complete":
            return self._completed_result(replay)
        if replay.closed == "rolled-back":
            return ExecutionResult(
                status="rolled-back", layout=self._source,
                skipped_steps=len(self._plan.steps),
                state_digest=replay.state.digest(),
                journal_path=self._journal_path)
        if replay.mode == "rollback":
            logger.warning("journal %s ends in an unfinished rollback; "
                           "resuming the rollback", self._journal_path)
            return self._rollback_from(records, replay)
        with self._telemetry.span("resume-migration") as span:
            done = len(replay.done_steps)
            span.set("done", done)
            span.set("pending", len(self._plan.steps) - done)
            journal = _Journal(self._journal_path,
                               start_seq=replay.records)
            self._open(journal, "resume")
            self._telemetry.inc("migration.resumes")
            if done:
                self._telemetry.inc("migration.skipped_steps", done)
            self._telemetry.emit(
                "migration-resume", done=done,
                pending=len(self._plan.steps) - done)
            result = self._run_forward(journal, replay.state, start=done)
            result.skipped_steps = done
        return result

    def rollback(self) -> ExecutionResult:
        """Undo an interrupted migration back to the exact source.

        Replays the journal to the proven intermediate state, plans the
        capacity-safe reverse path with
        :func:`~repro.storage.migration.plan_migration`, and executes
        it under the same journaling discipline (so a rollback can
        itself be crashed and resumed).  Rolling back an already
        rolled-back journal is idempotent.
        """
        records = self._require_records("rollback")
        replay = replay_journal(records, plan=self._plan,
                                source=self._source,
                                path=self._journal_path)
        if replay.closed == "rolled-back":
            return ExecutionResult(
                status="rolled-back", layout=self._source,
                state_digest=replay.state.digest(),
                journal_path=self._journal_path)
        if replay.closed == "complete":
            raise MigrationExecutionError(
                "migration already completed; plan a fresh migration "
                "from target back to source instead of rolling back",
                journal=self._journal_path)
        return self._rollback_from(records, replay)

    # -- shared machinery --------------------------------------------------------

    def _existing_records(self) -> list[dict[str, Any]]:
        try:
            return read_journal(self._journal_path)
        except FileNotFoundError:
            return []

    def _require_records(self, verb: str) -> list[dict[str, Any]]:
        try:
            records = read_journal(self._journal_path)
        except FileNotFoundError:
            raise MigrationExecutionError(
                f"no journal at {self._journal_path!r} to {verb} from; "
                f"run execute() first", journal=self._journal_path,
            ) from None
        if not records:
            raise MigrationExecutionError(
                f"journal {self._journal_path!r} is empty; nothing to "
                f"{verb}", journal=self._journal_path)
        return records

    def _open(self, journal: _Journal, mode: str, **extra) -> None:
        run_id = self._telemetry.run_id
        fields: dict[str, Any] = {
            "version": JOURNAL_VERSION, "mode": mode,
            "steps": extra.pop("steps", len(self._plan.steps)),
            "plan": extra.pop("plan", plan_digest(self._plan)),
            "source": FarmState.from_layout(self._source).digest(),
        }
        if run_id:
            fields["run_id"] = str(run_id)
        fields.update(extra)
        journal.append("open", **fields)
        self._telemetry.emit("migration-exec-start", mode=mode,
                             steps=fields["steps"],
                             journal=self._journal_path)

    def _run_steps(self, journal: _Journal, state: FarmState,
                   steps: list[MigrationStep], start: int,
                   phase: str) -> tuple[int, int, float]:
        """Execute ``steps[start:]``, journaling each; returns
        ``(executed, retried, transfer_seconds)``."""
        executed = retried = 0
        transfer = 0.0
        for index in range(start, len(steps)):
            step = steps[index]
            if self._deadline.expired():
                raise MigrationInterrupted(
                    f"deadline expired before step {index}; the "
                    f"journal is a valid prefix — resume with "
                    f"'repro-advisor migrate --resume'",
                    step=index, journal=self._journal_path)
            journal.append(
                "intent", step=index, phase=phase, obj=step.obj,
                src=step.src, dst=step.dst,
                blocks=float(step.blocks), staged=step.staged)
            self._telemetry.emit(
                "migration-intent", step=index, phase=phase,
                obj=step.obj, src=step.src, dst=step.dst,
                blocks=round(float(step.blocks), 3),
                staged=step.staged)
            fire_step_crash(self._faults, index, "after_intent",
                            journal=self._journal_path)

            def attempt() -> None:
                fire_step_stall(self._faults, index, sleep=self._sleep)
                if self._deadline.expired():
                    raise MigrationInterrupted(
                        f"deadline expired during step {index}; the "
                        f"journal ends in a dangling intent — resume "
                        f"with 'repro-advisor migrate --resume'",
                        step=index, journal=self._journal_path)
                fire_step_fail(self._faults, index,
                               fired=self._step_failures)

            try:
                _, attempts = self._retry.run(
                    attempt, seed=index, retry_on=(WorkerCrash,),
                    deadline=self._deadline, sleep=self._sleep)
            except RetriesExhausted as gave_up:
                raise MigrationExecutionError(
                    f"step {index} transfer failed permanently "
                    f"({gave_up.error}); the journal ends in a dangling "
                    f"intent — resume re-attempts the step, rollback "
                    f"undoes the committed prefix", step=index,
                    journal=self._journal_path) from gave_up.error
            state.apply(step.obj, step.src, step.dst,
                        float(step.blocks))
            fire_step_crash(self._faults, index, "before_done",
                            journal=self._journal_path)
            journal.append("done", step=index, phase=phase,
                           attempts=attempts, state=state.digest())
            self._telemetry.emit("migration-step-done", step=index,
                                 phase=phase, attempts=attempts)
            self._telemetry.inc("migration.executed_steps")
            executed += 1
            transfer += step.est_seconds
            if attempts > 1:
                retried += 1
                self._telemetry.inc("migration.step_retries",
                                    attempts - 1)
        return executed, retried, transfer

    def _run_forward(self, journal: _Journal, state: FarmState,
                     start: int) -> ExecutionResult:
        executed, retried, transfer = self._run_steps(
            journal, state, list(self._plan.steps), start, "execute")
        if self._target is not None:
            expected = FarmState.from_layout(self._target)
            if not state.matches(expected):
                raise MigrationExecutionError(
                    "executed plan does not land on the provided "
                    "target layout; the plan and target disagree",
                    journal=self._journal_path)
            layout = self._target
        else:
            layout = state.to_layout()
        journal.append("close", status="complete",
                       state=state.digest())
        self._telemetry.emit("migration-exec-end", status="complete",
                             executed=executed,
                             skipped=start)
        self._telemetry.set_gauge("migration.transfer_seconds", transfer)
        return ExecutionResult(
            status="complete", layout=layout, executed_steps=executed,
            retried_steps=retried, transfer_seconds=transfer,
            state_digest=state.digest(),
            journal_path=self._journal_path)

    def _rollback_from(self, records: list[dict[str, Any]],
                       replay: JournalReplay) -> ExecutionResult:
        with self._telemetry.span("rollback-migration") as span:
            state = replay.state
            from_step = len(replay.done_steps)
            reverse = plan_migration(
                state.to_layout(), self._source,
                telemetry=self._telemetry)
            span.set("from_step", from_step)
            span.set("reverse_steps", len(reverse.steps))
            journal = _Journal(self._journal_path,
                               start_seq=replay.records)
            self._open(journal, "rollback",
                       steps=len(reverse.steps),
                       plan=plan_digest(reverse),
                       plan_steps=[s.to_dict() for s in reverse.steps],
                       from_step=from_step)
            self._telemetry.inc("migration.rollbacks")
            self._telemetry.emit("migration-rollback",
                                 steps=len(reverse.steps),
                                 from_step=from_step)
            executed, retried, transfer = self._run_steps(
                journal, state, list(reverse.steps), 0, "rollback")
            expected = FarmState.from_layout(self._source)
            if not state.matches(expected):
                raise MigrationExecutionError(
                    "rollback did not land on the source layout; "
                    "this is a bug in the reverse planner",
                    journal=self._journal_path)
            journal.append("close", status="rolled-back",
                           state=state.digest())
            self._telemetry.emit("migration-exec-end",
                                 status="rolled-back",
                                 executed=executed, skipped=from_step)
            self._telemetry.set_gauge("migration.transfer_seconds",
                                      transfer)
        return ExecutionResult(
            status="rolled-back", layout=self._source,
            executed_steps=executed, retried_steps=retried,
            transfer_seconds=transfer, state_digest=state.digest(),
            journal_path=self._journal_path)

    def _completed_result(self, replay: JournalReplay
                          ) -> ExecutionResult:
        if self._target is not None:
            layout = self._target
        else:
            layout = replay.state.to_layout()
        return ExecutionResult(
            status="complete", layout=layout,
            skipped_steps=len(self._plan.steps),
            state_digest=replay.state.digest(),
            journal_path=self._journal_path)
