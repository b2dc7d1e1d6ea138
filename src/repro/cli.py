"""Command-line interface: the paper's Figure-3 tool as a program.

Inputs are files, exactly as the paper describes them: a database
catalog (JSON — the stand-in for reading the server's system catalogs),
a workload of SQL DML statements, a list of disk drives with their
characteristics (JSON), and optional constraints (JSON).

Subcommands::

    repro-advisor recommend  --database db.json --disks disks.json \\
                             (--workload w.sql | --workload-trace t.csv) \\
                             [--constraints c.json] \\
                             [--concurrency spec.json] \\
                             [--current-layout l.json|rec.json] \\
                             [--method ts-greedy] [--k 1] \\
                             [--portfolio 4] [--jobs 4] \\
                             [--deadline 30] [--retries 2] \\
                             [--budget 0.2] [--save-plan plan.json] \\
                             [--save-layout out.json] [--script] \\
                             [--otlp spans.json] [--metrics] [-v]
    repro-advisor analyze    --database db.json --workload w.sql
    repro-advisor estimate   --database db.json --disks disks.json \\
                             --workload w.sql --layout l.json ...
    repro-advisor simulate   --database db.json --disks disks.json \\
                             --workload w.sql --layout l.json
    repro-advisor lint       --database db.json [--disks disks.json] \\
                             [--workload w.sql] [--constraints c.json] \\
                             [--layout l.json] \\
                             [--format text|json|sarif]
    repro-advisor selfcheck  [paths ...] [--format text|json|sarif] \\
                             [--select RPC1,RPC301] [--rules]
    repro-advisor drift      --database db.json --before old.sql \\
                             --after new.sql [--threshold 0.1] \\
                             [--format text|json] [--save report.json]
    repro-advisor migrate    --disks disks.json --current l.json \\
                             (--plan plan.json | --target t.json) \\
                             --journal j.jsonl \\
                             [--execute|--resume|--rollback] \\
                             [--throttle MB_S] [--faults SPEC] \\
                             [--retries N] [--deadline S] \\
                             [--database db.json --workload w.sql]
    repro-advisor inspect    events.jsonl|journal.jsonl [--top 10] \\
                             [--format text|json]

``lint`` statically analyzes the inputs (see ``docs/static-analysis.md``
for every ``ALR0xx`` rule); its exit code is 0 when clean (or info
only), 1 with warnings, 2 with errors.  ``lint --rules`` lists every
registered rule.

``selfcheck`` runs the same machinery over the advisor's *source*: the
``RPC0xx`` AST rules (determinism, concurrency/resources, telemetry
contracts, numeric hygiene — same doc).  Exit codes match ``lint``;
``--format sarif`` emits a SARIF 2.1.0 log for code-scanning UIs, and
findings are suppressed per line with a justified
``# repro: noqa RPCxxx -- reason`` pragma.

Performance (see ``docs/performance.md``): ``--method portfolio`` runs
several search trajectories (seeded TS-GREEDY multi-starts plus
annealing restarts) and keeps the best layout; ``--jobs N`` spreads
them over up to ``N`` worker processes, at most one per usable core
(each gets the one cost evaluator once, at start), when the workload
is large enough to repay starting them, and runs them serially
otherwise.  The recommendation is bit-identical for any ``--jobs``.

Resilience (see ``docs/resilience.md``): ``--deadline S``, the
search's one time bound, caps the portfolio search's wall clock; on
expiry (or worker crashes) the advisor returns the exact best layout
over the trajectories that completed and marks the run *degraded*
instead of raising.  ``--retries N`` grants a failed trajectory N
in-process re-runs, and ``--faults`` injects deterministic faults for
testing (same syntax as the ``REPRO_FAULTS`` environment variable).

Overlap information (the paper's stated future work): ``--concurrency``
names groups of co-executing statements, and a ``--workload-trace``
derives them from the trace's timestamps; ``--method ts-greedy`` (the
default) and ``--method incremental`` then optimize the
concurrency-aware cost.  Other methods exit 2: that cost is not bounded
below, and a search without TS-GREEDY's pruning chases it.

Incremental re-layout (see ``docs/incremental.md``): ``drift`` compares
two workload windows and exits 1 when the shift is large enough that a
re-layout is recommended; ``recommend --method incremental`` re-runs
the advisor seeded from the *current* layout (``--current-layout``
accepts a layout JSON or a saved recommendation JSON) while keeping
the moved fraction of the database within ``--budget``, prints the
capacity-safe migration plan and saves it with ``--save-plan``.

Migration execution (see ``docs/migration.md``): ``migrate`` runs a
saved plan step by step with a crash-safe JSONL journal.  A killed or
fault-injected run exits 3 (resumable) and leaves a valid journal
prefix; ``--resume`` continues it to a bit-identical final layout and
``--rollback`` executes the capacity-safe reverse path to the exact
source.  With ``--database``/``--workload`` the run also simulates
executing the plan under live traffic and reports per-window foreground
degradation plus time-to-benefit (``--throttle`` caps the migration
bandwidth).  ``inspect`` recognizes journal files and renders/validates
them (exit 2 on an inconsistent journal).

Observability (see ``docs/observability.md``): every subcommand but
``selfcheck``, ``inspect`` and ``serve`` takes ``--events out.jsonl``
(stream the run's flight-recorder timeline as structured JSONL
events, one run per file) and ``--prom out.prom`` (dump the metric
registry in Prometheus text exposition format); ``serve`` takes
``--events`` only.  ``recommend`` additionally takes ``--otlp
out.json``, the one span-file export (OTLP-style JSON); one telemetry
handle per run feeds them all.  ``inspect`` renders a saved event log
as a phase/trajectory timeline with a hotspot table.  ``--metrics``
(``recommend``, ``migrate``) prints the metric summary; ``-v`` enables
INFO logging and, on ``recommend``, prints the span tree; ``-vv``
enables DEBUG logging (per-iteration search progress).

Run any subcommand with ``-h`` for the full options.
"""

from __future__ import annotations

import argparse
import logging
import sys
import threading
import warnings
from pathlib import Path

from repro.catalog.io import (
    constraints_from_dict,
    layout_from_dict,
    load_database,
    load_farm,
    load_layout,
    load_migration_plan,
    read_json,
    recommendation_from_dict,
    save_drift_report,
    save_layout,
    save_migration_plan,
    save_recommendation,
)
from repro.core.advisor import METHODS, LayoutAdvisor, SearchOptions
from repro.core.costmodel import CostModel
from repro.core.fullstripe import full_striping
from repro.core.report import (
    render_filegroup_script,
    render_migration_execution,
    render_online_migration,
    render_report,
)
from repro.errors import DegradedResult, MigrationInterrupted, ReproError
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    NULL_TELEMETRY,
    Telemetry,
    read_events,
    render_timeline,
    validate_events,
)
from repro.obs.export import write_otlp, write_prometheus
from repro.resilience import FaultPlan, RetryPolicy
from repro.optimizer.explain import explain
from repro.simulator.measure import WorkloadSimulator
from repro.workload.access import analyze_workload
from repro.workload.access_graph import build_access_graph
from repro.workload.drift import RELAYOUT_THRESHOLD, detect_drift
from repro.workload.workload import Workload


def _add_common_inputs(parser: argparse.ArgumentParser,
                       with_disks: bool = True,
                       workload_required: bool = True) -> None:
    parser.add_argument("--database", required=True, type=Path,
                        help="database catalog JSON")
    parser.add_argument("--workload", required=workload_required,
                        type=Path, help="workload SQL file")
    if with_disks:
        parser.add_argument("--disks", required=True, type=Path,
                            help="disk-drive list JSON")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logs (recommend also prints "
                             "the span tree); -vv: DEBUG logs "
                             "(per-iteration search progress)")


def _add_obs_outputs(parser: argparse.ArgumentParser,
                     otlp: bool = False) -> None:
    """Attach the flight-recorder/exporter flags every subcommand gets."""
    parser.add_argument("--events", type=Path, metavar="OUT_JSONL",
                        help="stream the run's flight-recorder event "
                             "timeline to a JSONL file, replacing its "
                             "contents (render it later with "
                             "'repro-advisor inspect')")
    parser.add_argument("--prom", type=Path, metavar="OUT_PROM",
                        help="write the run's metrics in Prometheus "
                             "text exposition format")
    if otlp:
        parser.add_argument("--otlp", type=Path, metavar="OUT_JSON",
                            help="write the run's span tree as "
                                 "OTLP-style JSON")


def _telemetry_begin(args: argparse.Namespace, command: str):
    """The subcommand's telemetry handle, or ``NULL_TELEMETRY``.

    A real :class:`~repro.obs.Telemetry` exists whenever *any*
    observability flag is active, so one run feeds every requested
    exporter.  It streams to ``--events`` as the run progresses (a
    crashed run still leaves a valid, truncated timeline on disk) and
    opens with a ``run-start`` event.
    """
    active = bool(getattr(args, "events", None)
                  or getattr(args, "prom", None)
                  or getattr(args, "otlp", None)
                  or getattr(args, "metrics", False)
                  or getattr(args, "verbose", 0))
    if not active:
        return NULL_TELEMETRY
    telemetry = Telemetry(path=getattr(args, "events", None))
    telemetry.emit("run-start", command=command,
                   schema=EVENT_SCHEMA_VERSION)
    return telemetry


def _telemetry_finish(args: argparse.Namespace, telemetry,
                      status: str = "ok") -> None:
    """Close out the handle: final event + exporters.

    File-written notes go to stderr so ``--format json`` subcommands
    keep a machine-readable stdout.
    """
    if telemetry is NULL_TELEMETRY:
        return
    telemetry.emit("run-end", status=status)
    telemetry.close()
    if getattr(args, "events", None):
        print(f"events written to {args.events}", file=sys.stderr)
    if getattr(args, "prom", None):
        write_prometheus(telemetry.metrics, args.prom)
        print(f"prometheus metrics written to {args.prom}",
              file=sys.stderr)
    if getattr(args, "otlp", None):
        write_otlp(telemetry, args.otlp, run_id=telemetry.run_id)
        print(f"otlp spans written to {args.otlp}", file=sys.stderr)


def _print_trace_and_metrics(args: argparse.Namespace,
                             telemetry) -> None:
    """The ``-v`` span tree and the ``--metrics`` summary."""
    if args.verbose:
        print()
        print("=== trace ===")
        print(telemetry.render_tree())
    if args.metrics:
        print()
        print(telemetry.metrics.render())


def _configure_logging(verbosity: int) -> None:
    """Wire ``repro.*`` loggers to stderr at the requested level.

    Only the CLI may call ``logging.basicConfig``; library modules only
    ever create loggers (``logging.getLogger("repro.…")``).
    """
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(
        stream=sys.stderr, level=level,
        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("repro").setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-advisor",
        description="Workload-driven database layout advisor "
                    "(ICDE 2003 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recommend",
                         help="recommend a layout for a workload")
    _add_common_inputs(rec, workload_required=False)
    rec.add_argument("--workload-trace", type=Path,
                     dest="workload_trace",
                     help="profiler trace CSV (start,end,sql); derives "
                          "both the workload and the overlap spec — "
                          "an alternative to --workload")
    rec.add_argument("--constraints", type=Path,
                     help="constraint set JSON")
    rec.add_argument("--current-layout", type=Path,
                     help="the database's current layout: a layout "
                          "JSON, or a saved recommendation JSON (its "
                          "recommended layout is used); default: full "
                          "striping")
    rec.add_argument("--method", default=SearchOptions.method,
                     choices=METHODS)
    rec.add_argument("--budget", type=float, default=None,
                     metavar="FRACTION",
                     help="for --method incremental: max fraction of "
                          "the database allowed to move (default: 1.0)")
    rec.add_argument("--k", type=int, default=SearchOptions.k,
                     help="TS-GREEDY widening parameter")
    rec.add_argument("--jobs", type=int, default=SearchOptions.jobs,
                     metavar="N",
                     help="workers for --method portfolio "
                          "(1 = serial in-process, 0 = all cores; "
                          "the result is identical either way)")
    rec.add_argument("--portfolio", type=int, default=None,
                     metavar="N",
                     help="trajectory count for --method portfolio "
                          "(default: 4); implies --method portfolio")
    rec.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget for --method portfolio; "
                          "on expiry the advisor returns the exact "
                          "best layout over the trajectories that "
                          "completed (a degraded result) instead of "
                          "raising")
    rec.add_argument("--retries", type=int,
                     default=SearchOptions.retries, metavar="N",
                     help="extra in-process attempts a failed "
                          "portfolio trajectory gets after its first "
                          "(default: %(default)s)")
    rec.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault-injection plan for testing/chaos runs "
                          "(e.g. 'kill_worker=1,delay=2:0.5'); "
                          "overrides the REPRO_FAULTS environment "
                          "variable")
    rec.add_argument("--save-plan", type=Path,
                     help="for --method incremental: write the "
                          "migration plan as JSON")
    rec.add_argument("--save-layout", type=Path,
                     help="write the recommended layout as JSON")
    rec.add_argument("--script", action="store_true",
                     help="emit a filegroup implementation script")
    rec.add_argument("--concurrency", type=Path,
                     help="overlap spec JSON: {\"groups\": [[0, 1]], "
                          "\"overlap_factor\": 0.5} — statements in a "
                          "group are treated as co-executing "
                          "(ts-greedy and incremental only)")
    rec.add_argument("--metrics", action="store_true",
                     help="print the metric summary after the report")
    rec.add_argument("--save-recommendation", type=Path,
                     help="write the full recommendation (layout, "
                          "costs, search telemetry) as JSON")
    _add_obs_outputs(rec, otlp=True)

    ana = sub.add_parser("analyze",
                         help="show plans and the access graph")
    _add_common_inputs(ana, with_disks=False)
    ana.add_argument("--plans", action="store_true",
                     help="print each statement's execution plan")
    _add_obs_outputs(ana)

    est = sub.add_parser("estimate",
                         help="score one or more layouts with the "
                              "cost model")
    _add_common_inputs(est)
    est.add_argument("--layout", type=Path, action="append",
                     default=[],
                     help="layout JSON (repeatable; default adds "
                          "full striping)")
    _add_obs_outputs(est)

    simp = sub.add_parser("simulate",
                          help="simulate workload execution on a layout")
    _add_common_inputs(simp)
    simp.add_argument("--layout", type=Path,
                      help="layout JSON (default: full striping)")
    _add_obs_outputs(simp)

    lint = sub.add_parser(
        "lint",
        help="statically analyze advisor inputs (ALR0xx rules)")
    lint.add_argument("--database", type=Path,
                      help="database catalog JSON")
    lint.add_argument("--disks", type=Path,
                      help="disk-drive list JSON (enables constraint "
                           "and layout rules)")
    lint.add_argument("--workload", type=Path,
                      help="workload SQL file (enables plan/workload "
                           "rules)")
    lint.add_argument("--constraints", type=Path,
                      help="constraint set JSON")
    lint.add_argument("--layout", type=Path,
                      help="layout JSON (checked even when invalid)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="output format (default: text)")
    lint.add_argument("--rules", action="store_true",
                      help="list every registered rule and exit")
    lint.add_argument("-v", "--verbose", action="count", default=0,
                      help="enable INFO (-v) / DEBUG (-vv) logging")
    _add_obs_outputs(lint)

    selfc = sub.add_parser(
        "selfcheck",
        help="statically analyze the advisor's own source "
             "(RPC0xx contract rules)")
    selfc.add_argument("paths", nargs="*", type=Path,
                       default=[Path("src")],
                       help="Python files/directories to scan "
                            "(default: src)")
    selfc.add_argument("--format", choices=["text", "json", "sarif"],
                       default="text",
                       help="output format (default: text)")
    selfc.add_argument("--select", metavar="PREFIXES",
                       help="comma-separated rule-ID prefixes to run "
                            "(e.g. RPC1,RPC301; default: all)")
    selfc.add_argument("--rules", action="store_true",
                       help="list every registered code rule and exit")
    selfc.add_argument("-v", "--verbose", action="count", default=0,
                       help="enable INFO (-v) / DEBUG (-vv) logging")

    drf = sub.add_parser(
        "drift",
        help="compare two workload windows; exit 1 when a re-layout "
             "is recommended")
    drf.add_argument("--database", required=True, type=Path,
                     help="database catalog JSON")
    drf.add_argument("--before", required=True, type=Path,
                     help="earlier workload window (SQL file)")
    drf.add_argument("--after", required=True, type=Path,
                     help="later workload window (SQL file)")
    drf.add_argument("--threshold", type=float,
                     default=RELAYOUT_THRESHOLD, metavar="SCORE",
                     help="drift score at or above which a re-layout "
                          f"is recommended (default: "
                          f"{RELAYOUT_THRESHOLD})")
    drf.add_argument("--format", choices=["text", "json"],
                     default="text",
                     help="output format (default: text)")
    drf.add_argument("--save", type=Path,
                     help="write the drift report as JSON")
    drf.add_argument("-v", "--verbose", action="count", default=0,
                     help="enable INFO (-v) / DEBUG (-vv) logging")
    _add_obs_outputs(drf)

    mig = sub.add_parser(
        "migrate",
        help="execute a migration plan with a crash-safe journal; "
             "resume or roll back an interrupted one")
    mig.add_argument("--disks", required=True, type=Path,
                     help="disk-drive list JSON")
    mig.add_argument("--current", required=True, type=Path,
                     help="the source layout: a layout JSON or a "
                          "saved recommendation JSON")
    what = mig.add_mutually_exclusive_group(required=True)
    what.add_argument("--plan", type=Path,
                      help="migration plan JSON (recommend "
                           "--save-plan output)")
    what.add_argument("--target", type=Path,
                      help="target layout JSON; the plan is derived "
                           "with the capacity-safe planner")
    mig.add_argument("--journal", required=True, type=Path,
                     help="JSONL execution journal (created by "
                          "--execute, required by --resume/--rollback)")
    verb = mig.add_mutually_exclusive_group()
    verb.add_argument("--execute", action="store_true",
                      help="run the plan from step 0 (default)")
    verb.add_argument("--resume", action="store_true",
                      help="continue an interrupted journal to a "
                           "bit-identical final layout")
    verb.add_argument("--rollback", action="store_true",
                      help="execute the capacity-safe reverse path "
                           "back to the exact source layout")
    mig.add_argument("--throttle", type=float, metavar="MB_S",
                     help="migration bandwidth cap for the online "
                          "impact simulation")
    mig.add_argument("--faults", metavar="SPEC",
                     help="inject deterministic migration faults "
                          "(fail_step=N[:TIMES], crash_after_intent=N, "
                          "crash_before_done=N, stall_step=N[:S]); "
                          "falls back to $REPRO_FAULTS")
    mig.add_argument("--retries", type=int, default=0, metavar="N",
                     help="per-step retries for transient transfer "
                          "failures (default: 0)")
    mig.add_argument("--deadline", type=float, metavar="SECONDS",
                     help="overall wall-clock bound; expiry leaves a "
                          "resumable journal and exits 3")
    mig.add_argument("--database", type=Path,
                     help="database catalog JSON; with --workload, "
                          "simulate the migration under live traffic")
    mig.add_argument("--workload", type=Path,
                     help="foreground workload SQL for the online "
                          "impact simulation")
    mig.add_argument("--metrics", action="store_true",
                     help="print the metric summary after the report")
    mig.add_argument("-v", "--verbose", action="count", default=0,
                     help="enable INFO (-v) / DEBUG (-vv) logging")
    _add_obs_outputs(mig)

    ins = sub.add_parser(
        "inspect",
        help="render a flight-recorder event log (--events output) or "
             "a migration journal as a timeline with validation")
    ins.add_argument("events", type=Path,
                     help="events JSONL file written by --events, or "
                          "a migration journal written by migrate")
    ins.add_argument("--top", type=int, default=10, metavar="N",
                     help="hotspot-table rows (default: 10)")
    ins.add_argument("--format", choices=["text", "json"],
                     default="text",
                     help="output format (default: text)")
    ins.add_argument("-v", "--verbose", action="count", default=0,
                     help="enable INFO (-v) / DEBUG (-vv) logging")

    srv = sub.add_parser(
        "serve",
        help="run the advisor as a multi-tenant HTTP service (JSON "
             "API: upload catalogs/workloads, submit jobs, poll "
             "results; see docs/server.md)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8734,
                     help="TCP port; 0 picks a free ephemeral port "
                          "(default: 8734)")
    srv.add_argument("--workers", type=int, default=2,
                     help="search worker threads (default: 2)")
    srv.add_argument("--max-queue", type=int, default=16,
                     help="jobs allowed to wait before submissions "
                          "get 429 (default: 16)")
    srv.add_argument("--max-cache", type=int, default=128,
                     help="fingerprint-cache capacity (default: 128)")
    srv.add_argument("--events", type=Path, metavar="OUT_JSONL",
                     help="stream the service's flight-recorder "
                          "timeline to a JSONL file as it runs, "
                          "replacing its contents")
    srv.add_argument("-v", "--verbose", action="count", default=0,
                     help="enable INFO (-v) / DEBUG (-vv) logging")
    return parser


def _load_constraints(args, farm, db):
    if not getattr(args, "constraints", None):
        return None
    return read_json(
        args.constraints, "constraints",
        lambda data: constraints_from_dict(
            data, farm=farm, object_sizes=db.object_sizes()))


def _load_current_layout(path: Path, farm):
    """A layout from either a layout JSON or a recommendation JSON.

    ``--current-layout`` (and ``migrate --current``) points at whatever
    the DBA has on hand: the layout file the last run saved with
    ``--save-layout``, or the full recommendation saved with
    ``--save-recommendation`` (in which case the *recommended* layout —
    the one presumably implemented — is the current one).
    """
    def build(data):
        if "fractions" in data:
            return layout_from_dict(data, farm)
        return recommendation_from_dict(data, farm).layout
    return read_json(path, "layout", build)


def cmd_recommend(args: argparse.Namespace) -> int:
    """``recommend``: run the advisor and print/save the result."""
    if args.save_plan is not None and args.method != "incremental":
        print("error: --save-plan needs --method incremental (only an "
              "incremental run plans a migration)", file=sys.stderr)
        return 2
    db = load_database(args.database)
    farm = load_farm(args.disks)
    trace_spec = None
    if args.workload_trace is not None:
        from repro.workload.profiler import load_trace
        workload, trace_spec = load_trace(args.workload_trace)
    elif args.workload is not None:
        workload = Workload.load(args.workload)
    else:
        print("error: provide --workload or --workload-trace",
              file=sys.stderr)
        return 2
    method = args.method
    if args.portfolio is not None and method == "ts-greedy":
        method = "portfolio"
    options = SearchOptions(
        method=method, k=args.k, jobs=args.jobs,
        portfolio=args.portfolio, deadline=args.deadline,
        retries=args.retries,
        faults=FaultPlan.from_spec(args.faults) if args.faults
        else None,
        movement_budget=args.budget)
    concurrency = None
    if trace_spec is not None and trace_spec.groups:
        concurrency = trace_spec
    elif args.concurrency:
        from repro.workload.concurrency import ConcurrencySpec
        concurrency = read_json(
            args.concurrency, "concurrency",
            lambda data: ConcurrencySpec.from_groups(
                data.get("groups", ()),
                overlap_factor=data.get("overlap_factor", 0.5)))
    constraints = _load_constraints(args, farm, db)
    telemetry = _telemetry_begin(args, "recommend")
    telemetry.emit(
        "workload-ingest", statements=len(workload),
        source="trace" if trace_spec is not None else "sql")
    advisor = LayoutAdvisor(db, farm, constraints=constraints,
                            telemetry=telemetry)
    current = None
    if args.current_layout:
        current = _load_current_layout(args.current_layout, farm)
    # The CLI renders degradation itself (stderr line + report
    # section), so the library's warning would be a duplicate.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResult)
        recommendation = advisor.recommend(
            workload, current_layout=current, options=options,
            concurrency=concurrency)
    search = recommendation.search
    if search is not None and search.degraded:
        print(f"warning: degraded: {len(search.failures)}/"
              f"{int(search.extras.get('trajectories', 0))} "
              f"trajectories failed "
              f"({', '.join(sorted({f.cause for f in search.failures}))})",
              file=sys.stderr)
    print(render_report(recommendation))
    if args.script:
        print()
        print(render_filegroup_script(recommendation.layout, db.name))
    if args.save_plan:
        save_migration_plan(recommendation.migration, args.save_plan,
                            run_id=telemetry.run_id)
        print(f"\nmigration plan written to {args.save_plan}")
    if args.save_layout:
        save_layout(recommendation.layout, args.save_layout)
        print(f"\nlayout written to {args.save_layout}")
    if args.save_recommendation:
        save_recommendation(recommendation, args.save_recommendation,
                            run_id=telemetry.run_id)
        print(f"\nrecommendation written to {args.save_recommendation}")
    _print_trace_and_metrics(args, telemetry)
    _telemetry_finish(args, telemetry)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: print plans and the access-graph summary."""
    db = load_database(args.database)
    workload = Workload.load(args.workload)
    telemetry = _telemetry_begin(args, "analyze")
    telemetry.emit("workload-ingest", statements=len(workload),
                   source="sql")
    analyzed = analyze_workload(workload, db, telemetry=telemetry)
    if args.plans:
        for statement in analyzed:
            print(f"--- {statement.statement.name or 'statement'} ---")
            print(explain(statement.plan))
            print()
    graph = build_access_graph(analyzed, db, telemetry=telemetry)
    print("=== access graph ===")
    print(f"{'object':30s} {'blocks referenced':>18s}")
    for name in sorted(graph.nodes,
                       key=lambda n: -graph.node_weight(n)):
        weight = graph.node_weight(name)
        if weight > 0:
            print(f"{name:30s} {weight:18.0f}")
    print()
    print(f"{'co-accessed pair':45s} {'edge weight':>12s}")
    for (u, v), weight in sorted(graph.edges.items(),
                                 key=lambda kv: -kv[1]):
        print(f"{u + ' -- ' + v:45s} {weight:12.0f}")
    _telemetry_finish(args, telemetry)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    """``estimate``: score candidate layouts with the cost model."""
    db = load_database(args.database)
    farm = load_farm(args.disks)
    workload = Workload.load(args.workload)
    telemetry = _telemetry_begin(args, "estimate")
    analyzed = analyze_workload(workload, db, telemetry=telemetry)
    model = CostModel(farm)
    candidates = [("full-striping",
                   full_striping(db.object_sizes(), farm))]
    for path in args.layout:
        candidates.append((path.stem, load_layout(path, farm)))
    print(f"{'layout':25s} {'estimated I/O time':>20s}")
    for name, layout in candidates:
        print(f"{name:25s} "
              f"{model.workload_cost(analyzed, layout):19.1f}s")
    _telemetry_finish(args, telemetry)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """``simulate``: play the workload on a layout, print timings."""
    db = load_database(args.database)
    farm = load_farm(args.disks)
    workload = Workload.load(args.workload)
    telemetry = _telemetry_begin(args, "simulate")
    analyzed = analyze_workload(workload, db, telemetry=telemetry)
    layout = load_layout(args.layout, farm) if args.layout \
        else full_striping(db.object_sizes(), farm)
    report = WorkloadSimulator(telemetry=telemetry).run(analyzed, layout)
    print(f"{'statement':15s} {'simulated (s)':>14s} {'weight':>8s}")
    for timing in report.statements:
        print(f"{timing.name:15s} {timing.seconds:14.2f} "
              f"{timing.weight:8.1f}")
    print(f"{'TOTAL':15s} {report.total_seconds:14.2f}")
    _telemetry_finish(args, telemetry)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``lint``: static diagnostics over whatever inputs were given.

    Exit code mirrors :attr:`AnalysisReport.exit_code`: 0 for a clean
    (or info-only) report, 1 for warnings, 2 for errors — so CI can
    gate on it like any other linter.
    """
    import json

    from repro import analysis

    if args.rules:
        rules = analysis.rules_by_category()
        if args.format == "json":
            print(json.dumps([
                {"rule": r.rule_id, "severity": r.severity.value,
                 "category": r.category, "title": r.title}
                for r in rules], indent=2))
        else:
            for rule in rules:
                print(f"{rule.rule_id}  {rule.severity.value:7s} "
                      f"{rule.category:11s} {rule.title}")
        return 0

    if args.database is None:
        print("error: --database is required (or use --rules)",
              file=sys.stderr)
        return 2
    db = load_database(args.database)
    farm = load_farm(args.disks) if args.disks else None
    workload = Workload.load(args.workload) if args.workload else None
    layout = None
    if args.layout:
        if farm is None:
            print("error: --layout requires --disks", file=sys.stderr)
            return 2
        # Raw dict, not load_layout(): an invalid layout cannot be
        # constructed as a Layout, and linting it is the whole point.
        layout = read_json(args.layout, "layout")

    telemetry = _telemetry_begin(args, "lint")
    report = analysis.AnalysisReport()
    constraints = None
    if args.constraints:
        if farm is None:
            print("error: --constraints requires --disks",
                  file=sys.stderr)
            return 2
        try:
            constraints = _load_constraints(args, farm, db)
        except ReproError as error:
            report.extend(analysis.constraint_construction_diagnostic(
                error, source=args.constraints.name))

    report.extend(analysis.analyze_inputs(
        db=db, farm=farm, workload=workload, constraints=constraints,
        layout=layout))

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        print(json.dumps(analysis.to_sarif(report), indent=2))
    elif report:
        print(report.render_text())
    else:
        print("clean: no diagnostics")
    _telemetry_finish(args, telemetry,
                      status="ok" if report.exit_code == 0
                      else "diagnostics")
    return report.exit_code


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """``selfcheck``: the RPC0xx contract linter over advisor source.

    Mirrors ``lint``'s UX (``--format``, ``--rules``, exit code =
    :attr:`AnalysisReport.exit_code`) but lints the codebase itself:
    determinism, concurrency/resource, telemetry-contract and
    numeric-hygiene rules over the AST.  CI runs it over ``src/`` and
    requires zero unsuppressed findings.
    """
    import json

    from repro import analysis

    if args.rules:
        rules = sorted(analysis.code_rules(),
                       key=lambda rule: rule.rule_id)
        if args.format == "json":
            print(json.dumps([
                {"rule": r.rule_id, "severity": r.severity.value,
                 "category": r.category, "title": r.title}
                for r in rules], indent=2))
        else:
            for rule in rules:
                print(f"{rule.rule_id}  {rule.severity.value:7s} "
                      f"{rule.category:11s} {rule.title}")
        return 0

    select = None
    if args.select:
        select = [part for part in args.select.split(",")
                  if part.strip()]
    result = analysis.analyze_paths(args.paths, select=select)
    report = result.report
    if args.format == "json":
        payload = report.to_dict()
        payload["files"] = result.files
        payload["suppressed"] = [d.to_dict()
                                 for d in result.suppressed]
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(json.dumps(analysis.to_sarif(report), indent=2))
    else:
        if report:
            print(report.render_text())
        else:
            print("clean: no diagnostics")
        print(f"checked {result.files} file(s); "
              f"{len(result.suppressed)} suppressed finding(s)")
    return report.exit_code


def cmd_drift(args: argparse.Namespace) -> int:
    """``drift``: compare two workload windows.

    Exit code 1 means the drift score reached the threshold and a
    re-layout is recommended — so a cron job can chain straight into
    ``repro-advisor recommend --method incremental``; 0 means the
    layout still fits.
    """
    import json
    db = load_database(args.database)
    before = Workload.load(args.before)
    after = Workload.load(args.after)
    telemetry = _telemetry_begin(args, "drift")
    graph_before = build_access_graph(
        analyze_workload(before, db, telemetry=telemetry),
        db, telemetry=telemetry)
    graph_after = build_access_graph(
        analyze_workload(after, db, telemetry=telemetry),
        db, telemetry=telemetry)
    report = detect_drift(graph_before, graph_after,
                          threshold=args.threshold, telemetry=telemetry)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    if args.save:
        save_drift_report(report, args.save, run_id=telemetry.run_id)
        if args.format != "json":
            print(f"\ndrift report written to {args.save}")
    _telemetry_finish(args, telemetry,
                      status="drift" if report.relayout_recommended
                      else "ok")
    return 1 if report.relayout_recommended else 0


def cmd_migrate(args: argparse.Namespace) -> int:
    """``migrate``: journaled execution of a migration plan.

    Exit codes: 0 on success, 2 on a permanent error (corrupt journal,
    mismatched inputs, exhausted retries), and 3 when execution was
    interrupted with a resumable journal (deadline expiry or an
    injected crash) — rerun with ``--resume`` to finish, or
    ``--rollback`` to undo.
    """
    from repro.storage import MigrationExecutor, plan_migration
    farm = load_farm(args.disks)
    current = _load_current_layout(args.current, farm)
    telemetry = _telemetry_begin(args, "migrate")
    if args.plan:
        plan = load_migration_plan(args.plan)
        target = None
    else:
        target = load_layout(args.target, farm)
        plan = plan_migration(current, target, telemetry=telemetry)
    faults = FaultPlan.from_spec(args.faults) if args.faults \
        else FaultPlan.from_env()
    retry = RetryPolicy(attempts=args.retries + 1) if args.retries \
        else None
    executor = MigrationExecutor(
        plan, current, journal_path=str(args.journal), target=target,
        retry=retry, deadline=args.deadline, faults=faults,
        telemetry=telemetry)
    try:
        if args.rollback:
            result = executor.rollback()
        elif args.resume:
            result = executor.resume()
        else:
            result = executor.execute()
    except MigrationInterrupted as stop:
        print(f"interrupted: {stop}", file=sys.stderr)
        print(f"the journal at {args.journal} is a valid prefix; "
              f"rerun with --resume to finish or --rollback to undo",
              file=sys.stderr)
        _telemetry_finish(args, telemetry, status="interrupted")
        return 3
    print(render_migration_execution(result))
    if args.database and args.workload and result.status == "complete":
        db = load_database(args.database)
        workload = Workload.load(args.workload)
        analyzed = analyze_workload(workload, db, telemetry=telemetry)
        from repro.simulator import OnlineMigrationSimulator
        simulator = OnlineMigrationSimulator(telemetry=telemetry)
        online = simulator.run_online(
            analyzed, current, plan, target=target,
            throttle_mb_s=args.throttle)
        print()
        print(render_online_migration(online))
    if args.metrics:
        print()
        print(telemetry.metrics.render())
    _telemetry_finish(args, telemetry)
    return 0


def _looks_like_journal(path: Path) -> bool:
    """Whether a JSONL file is a migration journal (vs. an event log).

    Journal records carry a ``kind`` field; flight-recorder events
    carry ``type``.  Sniffs only the first line, cheaply.
    """
    import json
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        record = json.loads(first)
    except (OSError, ValueError):
        return False
    return isinstance(record, dict) and "kind" in record


def _inspect_journal(args: argparse.Namespace) -> int:
    """``inspect`` on a migration journal: render and validate."""
    from repro.storage import (
        read_journal,
        render_journal,
        validate_journal,
    )
    records = read_journal(args.events)
    problems = validate_journal(records)
    if args.format == "json":
        import json
        counts: dict[str, int] = {}
        for record in records:
            kind = str(record.get("kind"))
            counts[kind] = counts.get(kind, 0) + 1
        closes = [r for r in records if r.get("kind") == "close"]
        print(json.dumps({
            "records": len(records),
            "kinds": dict(sorted(counts.items())),
            "status": closes[-1].get("status") if closes
            else "in-flight",
            "problems": problems,
        }, indent=2))
    else:
        print(render_journal(records, problems))
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 2
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """``inspect``: render a flight-recorder event log.

    Text mode prints the reconstructed timeline (phases, search
    iterations, portfolio trajectory lifecycle, degradation) followed
    by a per-phase hotspot table; JSON mode prints a machine-readable
    summary.  Exit code 2 on a malformed log (missing fields, broken
    sequence order, undeclared event types).

    Migration journals (``migrate --journal`` output) are recognized
    by their ``kind`` field and rendered/validated as journals instead.
    """
    if _looks_like_journal(args.events):
        return _inspect_journal(args)
    events = read_events(args.events)
    problems = validate_events(events)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json
        counts: dict[str, int] = {}
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        print(json.dumps({
            "run_id": events[0]["run_id"] if events else "",
            "events": len(events),
            "sources": sorted({e["source"] for e in events}),
            "types": dict(sorted(counts.items())),
        }, indent=2))
    else:
        print(render_timeline(events, top=args.top))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the advisor service until SIGINT/SIGTERM.

    Prints the bound address on stdout once listening (port 0 resolves
    to the actual ephemeral port), then blocks.  Both SIGINT and
    SIGTERM trigger a graceful shutdown: the HTTP listener stops, the
    job queue drains every admitted job, and the flight recorder is
    sealed — an accepted job is never dropped by a restart.
    """
    import signal

    from repro.server import AdvisorService, make_server

    telemetry = Telemetry(source="server", strict=True,
                          path=getattr(args, "events", None))
    service = AdvisorService(workers=args.workers,
                             max_queue=args.max_queue,
                             max_cache=args.max_cache,
                             telemetry=telemetry)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro-advisor serving on http://{host}:{port} "
          f"(workers={args.workers}, max_queue={args.max_queue})",
          flush=True)

    def _stop(signum, frame) -> None:
        # shutdown() must not run on the serve_forever thread; hand it
        # to a helper so the signal handler returns immediately.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.close(drain=True)
        if getattr(args, "events", None):
            print(f"events written to {args.events}", file=sys.stderr)
    return 0


_COMMANDS = {
    "recommend": cmd_recommend,
    "analyze": cmd_analyze,
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "lint": cmd_lint,
    "selfcheck": cmd_selfcheck,
    "drift": cmd_drift,
    "migrate": cmd_migrate,
    "inspect": cmd_inspect,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
