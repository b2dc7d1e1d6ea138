"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {tpch,relayout,service} \\
        --seed N --seconds S --trace {0,1} [--trace-out PATH]

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs half of ``--seconds`` untraced and half
traced on the same inputs, reports the per-layer metrics of the traced
half plus the tracing overhead, and writes the spans and per-op counts
to ``--trace-out`` (default ``.perfbench-traces/<workload>-seed<N>.json``).

Every op's output is checked; a human-readable table goes to stderr and
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Set-up samples per run: fresh interpreters for the closed loops,
#: daemon boots for the service.
SETUP_SAMPLES = 11


def _closed(args, workdir: Path) -> dict:
    import closed
    make_inputs, op, check, warmup = closed.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, workdir)
    if not args.trace:
        setup_s, raw_setup_s = common.timed_setup(
            lambda: common.probe_once(args.workload, workdir),
            SETUP_SAMPLES)
    ctx = closed.setup(args.workload, workdir)
    if warmup is not None:
        warmup(ctx)
    warm = closed.run_loop(ctx, op, check, inputs, 1e-9, "warm")
    if warm.failed:
        raise common.BenchError(f"warm-up failed: {warm.errors[0]}")
    if not args.trace:
        phase = closed.run_loop(ctx, op, check, inputs, args.seconds, "run")
        values = common.end_to_end(setup_s, phase.normalized,
                                   sum(phase.normalized),
                                   phase.improvements,
                                   common.peak_rss_mb())
        extra = dict(common.wall_metrics(phase.latencies, phase.speeds),
                     **{"wall.setup_s": raw_setup_s})
        return {"attempted": len(phase.latencies), "failed": phase.failed,
                "errors": phase.errors, "values": values, "extra": extra}
    import layers
    plain = closed.run_loop(ctx, op, check, inputs, args.seconds / 2,
                            "plain")
    recorder = layers.Recorder()
    layers.install(recorder)
    traced = closed.run_loop(ctx, op, check, inputs, args.seconds / 2,
                             "traced", recorder)
    values = common.layer_metrics(recorder.totals, recorder.counts,
                                  len(traced.latencies))
    values.update(common.wall_metrics(plain.latencies, plain.speeds))
    # Normalized times: the two halves run at different moments.
    values["tracing.overhead_pct"] = common.overhead_pct(plain.normalized,
                                                         traced.normalized)
    trace = {"workload": args.workload, "seed": args.seed,
             "ops": traced.records, "recorder": recorder.to_dict(),
             "metrics": values}
    return {"attempted": len(plain.latencies) + len(traced.latencies),
            "failed": plain.failed + traced.failed,
            "errors": plain.errors + traced.errors, "values": values,
            "trace": trace}


def _service(args, workdir: Path) -> dict:
    import service
    seconds = args.seconds / 2 if args.trace else args.seconds
    pool, schedule = service.make_inputs(args.seed, seconds)
    if not args.trace:
        setup_s, raw_setup_s, daemon = service.timed_boots(workdir,
                                                           SETUP_SAMPLES)
        phase = service.run_phase(workdir, "run", pool, schedule,
                                  daemon=daemon)
        records = service.check(phase.outcomes, pool)
        improvements = [r["improvement_pct"] for r in records
                        if "improvement_pct" in r]
        values = common.end_to_end(setup_s, phase.latencies,
                                   service.span(phase.outcomes),
                                   improvements, phase.daemon_rss_mb)
        outcomes = phase.outcomes
        health = service.client_metrics(outcomes, None)
        raw = [service.latency(o) for o in outcomes]
        extra = dict(common.wall_metrics(raw, [phase.speed]),
                     **{"wall.setup_s": raw_setup_s})
        trace = None
    else:
        plain = service.run_phase(workdir, "plain", pool, schedule)
        traced = service.run_phase(workdir, "traced", pool, schedule,
                                   traced=True)
        service.check(plain.outcomes, pool)
        records = service.check(traced.outcomes, pool)
        n = len(traced.outcomes)
        values = common.layer_metrics(traced.spans["totals"],
                                      traced.spans["counts"], n)
        health = service.client_metrics(traced.outcomes, traced.spans)
        values.update(health)
        values.update(common.wall_metrics(
            [service.latency(o) for o in plain.outcomes], [plain.speed]))
        values["tracing.overhead_pct"] = common.overhead_pct(
            plain.latencies, traced.latencies)
        outcomes = plain.outcomes + traced.outcomes
        extra = {}
        trace = {"workload": args.workload, "seed": args.seed,
                 "ops": records, "daemon": traced.spans, "metrics": values}
    if health["service.fell_behind"]:
        print(f"warning: the generator fell behind its schedule (worst "
              f"send lag {health['service.send_lag_max_s']:.3f}s)",
              file=sys.stderr)
    errors = [o.error for o in outcomes if o.error is not None]
    return {"attempted": len(outcomes), "failed": len(errors),
            "errors": errors, "values": values, "trace": trace,
            "extra": extra}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tpch", "relayout", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        common.require_checkout()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    common.use_program()
    workdir = common.make_workdir(args.workload)
    try:
        run = _service if args.workload == "service" else _closed
        result = run(args, workdir)
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        common.remove_workdir(workdir)
    table = common.PER_LAYER if args.trace else common.END_TO_END
    for error in result["errors"][:10]:
        print(f"failed: {error}", file=sys.stderr)
    for name, unit in table:
        print(f"{name:34s} {result['values'].get(name, 0.0):14.6g} {unit}",
              file=sys.stderr)
    for key, value in result.get("extra", {}).items():
        print(f"{key:34s} {value}", file=sys.stderr)
    if result.get("trace") is not None:
        path = common.write_trace(args.workload, args.seed, result["trace"],
                                  args.trace_out)
        print(f"trace written to {path}", file=sys.stderr)
    print(common.result_line(result["failed"] == 0, result["attempted"],
                             result["failed"], result["values"], table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
