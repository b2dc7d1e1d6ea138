"""SRCH — search-speed benchmark: pruning and the portfolio engine.

Times four configurations of the layout search on a synthetic
paper-scale workload (TPC-H schema, seeded query generator):

1. TS-GREEDY with bound-based pruning disabled (the pre-optimization
   baseline);
2. TS-GREEDY with pruning enabled — must return the bit-identical
   layout and cost while fully evaluating fewer candidates;
3. the trajectory portfolio run serially (``jobs=1``);
4. the same portfolio on the worker-process pool — must return the
   bit-identical result of the serial portfolio.  The pool is forced
   (``POOL_MIN_PACKED_BYTES`` set to 0 and ``available_workers``
   pinned to ``jobs`` for this run): small mode's input packs under
   the threshold and would otherwise run serially, as would any run on
   a single-core machine.

A separate micro-benchmark isolates the evaluator kernel itself: one
``cost_with_rows`` call per candidate (one kernel call per row)
against one fused ``best_for_rows`` call over the same candidate
rows, reported as ``eval_throughput_candidates_per_s`` and the
speedup ratio.

Writes a machine-readable ``BENCH_search.json`` at the repo root (wall
times, evaluation/pruning counts, speedups, drift, a per-configuration
``spans`` map and a telemetry-overhead measurement) in addition to the
usual ``benchmarks/results/`` table.  The ``spans`` map gives each leaf
span of the configuration's span forest (``ts-greedy/step1``,
``ts-greedy/step2``, ``annealing``) its count, wall and CPU seconds,
so ``perf_gate.py`` can attribute a wall-clock regression to the span
that caused it.

Three sizes, selected with ``--mode`` (or ``REPRO_BENCH_MODE``):

* ``small`` (default) — seconds-fast smoke run.  At this scale the
  per-run wall clock is dominated by fixed overheads (process-pool
  startup, candidate generation), so speedup ratios are noise; only
  the *invariants* are asserted — pruning fired, strictly fewer full
  evaluations, and zero cost/layout drift for both pruning and
  ``jobs>1``.
* ``ci`` — calibrated so the ratios mean something: 6 trajectories at
  80 queries/12 disks put ~0.2 s of search behind each trajectory,
  which amortizes pool startup on a multi-core runner.  Asserts the
  invariants plus: pruning skips >=50% of full evaluations without
  being a net wall-clock loss, and the pooled portfolio beats the
  serial one whenever the machine actually has the cores
  (``cores >= jobs >= 2``).  This is the payload CI's perf-gate
  compares against its stored baseline.
* ``full`` — paper-scale (120 queries / 16 disks); same assertions as
  ``ci`` with a stronger parallel-speedup floor.  ``REPRO_BENCH_FULL=1``
  selects it for backward compatibility.

Run directly::

    PYTHONPATH=src python benchmarks/bench_search_speed.py \
        [--mode small|ci|full] [--jobs N]
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for conftest helpers
from bench_env import resolve_jobs, resolve_mode  # noqa: E402
from conftest import write_result  # noqa: E402

from repro.benchdb import tpch  # noqa: E402
from repro.benchdb.synth import synthetic_workload  # noqa: E402
from repro.core.costmodel import WorkloadCostEvaluator  # noqa: E402
from repro.core.greedy import TsGreedySearch  # noqa: E402
from repro.core.layout import stripe_fractions  # noqa: E402
from repro.experiments import common  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.parallel import (  # noqa: E402
    PortfolioSearch,
    available_workers,
    default_portfolio,
)
from repro.parallel import portfolio as portfolio_module  # noqa: E402
from repro.workload.access import analyze_workload  # noqa: E402
from repro.workload.access_graph import build_access_graph  # noqa: E402

BENCH_JSON = Path(__file__).parent.parent / "BENCH_search.json"

#: Per-mode calibration: (queries, disks, portfolio trajectories).
MODES = {
    "small": (40, 8, 4),
    "ci": (80, 12, 6),
    "full": (120, 16, 6),
}


def _case(mode: str):
    """The benchmark's (evaluator, graph, sizes, farm) quadruple."""
    db = tpch.tpch_database()
    n_queries, m_disks, _ = MODES[mode]
    workload = synthetic_workload(n_queries, seed=4_242,
                                  name=f"SRCH-{n_queries}")
    farm = common.paper_farm(m_disks)
    analyzed = analyze_workload(workload, db)
    sizes = db.object_sizes()
    evaluator = WorkloadCostEvaluator(analyzed, farm, sorted(sizes))
    graph = build_access_graph(analyzed, db)
    return evaluator, graph, sizes, farm


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def leaf_spans(telemetry: Telemetry) -> dict:
    """Count, wall and CPU seconds of each leaf span name of a run.

    Folds the leaves of the handle's span forest by name, merged
    portfolio workers' spans included; the orchestration spans above
    them (``ts-greedy``, ``portfolio``) would count their time twice.
    """
    totals: dict[str, dict] = {}
    for root in telemetry.roots:
        for leaf in root.leaves():
            entry = totals.setdefault(
                leaf.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += leaf.duration_s
            entry["cpu_s"] += leaf.cpu_s
    return {name: {"count": entry["count"],
                   "wall_s": round(entry["wall_s"], 9),
                   "cpu_s": round(entry["cpu_s"], 9)}
            for name, entry in totals.items()}


def measure_telemetry_overhead(farm, evaluator, sizes, graph,
                               repeats: int = 11) -> dict:
    """Wall cost of full telemetry vs none on the pruned greedy search.

    Times ``repeats`` adjacent off/on pairs, alternating which arm runs
    first, and reports the median of the per-pair overheads: host-speed
    drift then lands on both arms of a pair instead of on one arm, and
    the median drops the odd pair a stall hit.  "Full" means a live
    telemetry handle (events, spans as phase events, metrics) that the
    evaluator also counts into — everything the CLI turns on for
    ``--events`` — against a run on the null handle.
    """
    def run_off():
        return TsGreedySearch(farm, evaluator, sizes,
                              prune=True).search(graph)

    def run_on():
        telemetry = Telemetry()
        previous = evaluator.bind_telemetry(telemetry)
        try:
            return TsGreedySearch(
                farm, evaluator, sizes, prune=True,
                telemetry=telemetry).search(graph)
        finally:
            evaluator.bind_telemetry(previous)

    offs, ons, overheads = [], [], []
    for pair in range(repeats):
        first, second = (run_off, run_on) if pair % 2 == 0 \
            else (run_on, run_off)
        timings = {first: _timed(first)[1], second: _timed(second)[1]}
        offs.append(timings[run_off])
        ons.append(timings[run_on])
        overheads.append(100.0 * (ons[-1] - offs[-1])
                         / max(offs[-1], 1e-9))
    return {"off_s": round(statistics.median(offs), 4),
            "on_s": round(statistics.median(ons), 4),
            "overhead_pct": round(statistics.median(overheads), 2)}


def measure_eval_throughput(farm, evaluator, sizes, graph,
                            repeats: int = 7,
                            max_candidates: int = 2048,
                            layout=None) -> dict:
    """Candidate-evaluation throughput: per-row loop vs fused kernel.

    Measures the evaluator at the search's steady state: the base is
    the *converged* pruned-greedy layout and the incumbent is its cost
    — exactly what the kernel sees when greedy revisits an object late
    in the search, when the running best is tight enough for the
    transfer-only bound to do real work.  (From a fresh full-striping
    base nothing has been learned yet, no bound can fire, and the
    measurement degenerates to batch arithmetic alone.)

    Builds a deterministic candidate set for the object with the most
    touching subplans (every striped disk subset, capped), then times
    two arms over the identical rows:

    * ``loop`` — one ``cost_with_rows({name: row})`` call per
      candidate plus a Python running-minimum: the per-candidate
      access pattern.  Each call is a one-row :meth:`costs_for_rows`
      call through the same slice cache, so the arm pays the kernel's
      fixed per-call cost once per candidate and prunes nothing;
    * ``fused`` — a single :meth:`best_for_rows` call (vectorized
      bounds prune + chunked batch evaluation of the survivors).

    Both arms process every candidate (the fused arm's pruned rows
    count as processed — disposing of them via the bound *is* the
    optimization; the pruned count itself is deterministic), so
    throughput is candidates/s over the same input.  The arms are
    timed interleaved, best-of-``repeats`` each, so a machine-wide
    stall (noisy-neighbor CI runners) cannot bias one arm; they agree
    on the winning cost by construction (asserted).

    Args:
        layout: The converged layout to measure at; computed with a
            fresh pruned greedy search when ``None`` (the bench passes
            its own greedy run's result in).
    """
    if layout is None:
        layout = TsGreedySearch(farm, evaluator, sizes,
                                prune=True).search(graph).layout
    matrix = evaluator.matrix_of(layout)
    base_cost = evaluator.set_base(matrix)
    name = max(evaluator.object_names,
               key=lambda n: evaluator.touching_count(n))
    m = len(farm)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(m), size)
        for size in range(1, m + 1))
    rows = np.array([
        stripe_fractions(list(subset), farm)
        for subset in itertools.islice(subsets, max_candidates)])

    def run_loop():
        best = base_cost
        for row in rows:
            cost = evaluator.cost_with_rows({name: row})
            if cost < best:
                best = cost
        return best

    pruned = {"n": 0}

    def run_fused():
        best, index, n_pruned = evaluator.best_for_rows(
            name, rows, base_cost)
        pruned["n"] = n_pruned
        return best if index >= 0 else base_cost

    run_loop(), run_fused()  # warm the slice/bound caches
    timings = [(_timed(run_loop), _timed(run_fused))
               for _ in range(repeats)]
    loop_best, loop_s = min((t[0] for t in timings),
                            key=lambda r: r[1])
    fused_best, fused_s = min((t[1] for t in timings),
                              key=lambda r: r[1])
    assert abs(loop_best - fused_best) < 1e-9, \
        f"fused kernel disagrees with the loop: {loop_best} " \
        f"vs {fused_best}"
    n = len(rows)
    loop_tp = n / max(loop_s, 1e-9)
    fused_tp = n / max(fused_s, 1e-9)
    return {
        "candidates": n,
        "object": name,
        "pruned": pruned["n"],
        "loop_s": round(loop_s, 6),
        "fused_s": round(fused_s, 6),
        "loop_candidates_per_s": round(loop_tp, 1),
        "fused_candidates_per_s": round(fused_tp, 1),
        "speedup": round(fused_tp / max(loop_tp, 1e-9), 2),
    }


def run_bench(jobs: int = 0, mode: str | None = None) -> dict:
    """Run all four configurations; return the BENCH_search payload."""
    mode = resolve_mode(mode)
    evaluator, graph, sizes, farm = _case(mode)
    n_trajectories = MODES[mode][2]
    cores = available_workers()
    # At least 2 so the pooled path (the process pool) is
    # always exercised — the drift check needs to cross the process
    # boundary even on a single-core machine.
    jobs = jobs if jobs > 0 else min(4, max(cores, 2))
    specs = default_portfolio(n_trajectories)

    # 1/2 — single-trajectory greedy, pruning off vs on.  Every
    # configuration runs under its own telemetry handle so the payload
    # can attribute wall time to its leaf spans.
    telemetry_off = Telemetry()
    plain, t_noprune = _timed(lambda: TsGreedySearch(
        farm, evaluator, sizes, prune=False,
        telemetry=telemetry_off).search(graph))
    telemetry_on = Telemetry()
    previous = evaluator.bind_telemetry(telemetry_on)
    try:
        pruned_run, t_prune = _timed(lambda: TsGreedySearch(
            farm, evaluator, sizes, prune=True,
            telemetry=telemetry_on).search(graph))
    finally:
        evaluator.bind_telemetry(previous)
    prune_drift = abs(pruned_run.cost - plain.cost)
    same_layout = all(
        pruned_run.layout.fractions_of(name)
        == plain.layout.fractions_of(name)
        for name in plain.layout.object_names)

    # 3/4 — the portfolio: serial, then on the forced process pool.
    telemetry_serial = Telemetry()
    serial, t_serial = _timed(lambda: PortfolioSearch(
        farm, evaluator, sizes, specs=specs, jobs=1,
        telemetry=telemetry_serial).search(graph))
    telemetry_pooled = Telemetry()
    with mock.patch.object(portfolio_module, "POOL_MIN_PACKED_BYTES", 0), \
            mock.patch.object(portfolio_module, "available_workers",
                              lambda: jobs):
        pooled, t_pooled = _timed(lambda: PortfolioSearch(
            farm, evaluator, sizes, specs=specs, jobs=jobs,
            telemetry=telemetry_pooled).search(graph))
    assert pooled.extras["workers"] > 1, \
        "the pooled configuration did not run on the process pool"
    portfolio_drift = abs(pooled.cost - serial.cost)
    throughput = measure_eval_throughput(farm, evaluator, sizes, graph,
                                         layout=pruned_run.layout)

    return {
        "mode": mode,
        "cores": cores,
        "jobs": jobs,
        "trajectories": n_trajectories,
        "greedy_noprune": {
            "wall_s": round(t_noprune, 4),
            "evaluations": plain.evaluations,
            "cost": plain.cost,
            "spans": leaf_spans(telemetry_off),
        },
        "greedy_prune": {
            "wall_s": round(t_prune, 4),
            "evaluations": pruned_run.evaluations,
            "pruned_candidates": int(
                pruned_run.extras.get("pruned_candidates", 0)),
            "bound_evaluations": int(telemetry_on.value(
                "costmodel.bound_evaluations")),
            "cost": pruned_run.cost,
            "spans": leaf_spans(telemetry_on),
        },
        "portfolio_serial": {
            "wall_s": round(t_serial, 4),
            "evaluations": serial.evaluations,
            "cost": serial.cost,
            "workers": int(serial.extras["workers"]),
            "spans": leaf_spans(telemetry_serial),
        },
        "portfolio_parallel": {
            "wall_s": round(t_pooled, 4),
            "evaluations": pooled.evaluations,
            "cost": pooled.cost,
            "workers": int(pooled.extras["workers"]),
            "spans": leaf_spans(telemetry_pooled),
        },
        "telemetry_overhead": measure_telemetry_overhead(
            farm, evaluator, sizes, graph),
        "eval_throughput": throughput,
        "eval_throughput_candidates_per_s":
            throughput["fused_candidates_per_s"],
        "eval_throughput_speedup": throughput["speedup"],
        "prune_eval_reduction": round(
            1.0 - pruned_run.evaluations / max(plain.evaluations, 1), 4),
        "prune_speedup": round(t_noprune / max(t_prune, 1e-9), 3),
        "parallel_speedup": round(t_serial / max(t_pooled, 1e-9), 3),
        "prune_drift": prune_drift,
        "prune_same_layout": same_layout,
        "portfolio_drift": portfolio_drift,
    }


def check_invariants(payload: dict) -> None:
    """The correctness claims the optimization must not break.

    Always asserted, in every mode: pruning fired, needed strictly
    fewer full evaluations, and neither pruning nor ``jobs>1`` changed
    the result by one bit.  Wall-clock claims are asserted only in
    ``ci``/``full`` modes, where the case is sized so the ratios are
    not dominated by fixed overheads — and the parallel claim only
    when the machine actually has the cores.
    """
    assert payload["greedy_prune"]["pruned_candidates"] > 0, \
        "pruning never fired — the bound is not doing any work"
    assert payload["prune_drift"] == 0.0, \
        f"pruning changed the cost by {payload['prune_drift']}"
    assert payload["prune_same_layout"], "pruning changed the layout"
    assert payload["portfolio_drift"] == 0.0, \
        f"jobs>1 changed the cost by {payload['portfolio_drift']}"
    assert payload["greedy_prune"]["evaluations"] \
        < payload["greedy_noprune"]["evaluations"]
    if payload["mode"] == "small":
        return
    # The fused kernel must dominate the per-candidate loop it
    # replaced: one vectorized bounds pass plus chunked batch
    # evaluation of the survivors, against len(rows) Python calls.
    assert payload["eval_throughput_speedup"] >= 10.0, \
        f"fused kernel is only " \
        f"{payload['eval_throughput_speedup']}x the per-candidate loop"
    # Pruning must be net-positive: most full evaluations skipped, and
    # the cheap bound evaluations must not eat the saving (>= 0.85
    # rather than > 1.0 leaves room for timer noise on a sub-second
    # phase; the eval-reduction floor is the deterministic claim).
    assert payload["prune_eval_reduction"] >= 0.5, \
        f"pruning skipped only " \
        f"{100 * payload['prune_eval_reduction']:.0f}% of evaluations"
    assert payload["prune_speedup"] >= 0.85, \
        f"pruning is a net wall-clock loss: " \
        f"{payload['prune_speedup']}x"
    # Observability must stay out of the hot path: full telemetry
    # (events + spans + bound metrics) may cost at most 5%
    # wall on the pruned greedy search.  Payloads without the
    # measurement skip the check instead of crashing.
    overhead_info = payload.get("telemetry_overhead")
    if overhead_info is not None:
        overhead = overhead_info["overhead_pct"]
        assert overhead <= 5.0, \
            f"full telemetry costs {overhead:.1f}% wall (budget: 5%)"
    # Parallel speedup needs parallel hardware: assert only when the
    # machine has a spare core per extra worker.
    if payload["cores"] >= payload["jobs"] >= 2:
        floor = 1.2 if payload["mode"] == "full" else 1.0
        assert payload["parallel_speedup"] > floor, \
            f"no speedup on {payload['cores']} cores: " \
            f"{payload['parallel_speedup']}x"


def _render(payload: dict) -> str:
    rows = [
        [name, f"{payload[name]['wall_s']:.3f}s",
         payload[name]["evaluations"],
         f"{payload[name]['cost']:.4f}",
         payload[name].get("workers", "-")]
        for name in ("greedy_noprune", "greedy_prune",
                     "portfolio_serial", "portfolio_parallel")]
    table = common.format_table(
        ["configuration", "wall", "evaluations", "cost", "workers"],
        rows)
    throughput = payload["eval_throughput"]
    return (f"{table}\n"
            f"pruned {payload['greedy_prune']['pruned_candidates']} "
            f"candidates "
            f"({100 * payload['prune_eval_reduction']:.1f}% fewer full "
            f"evaluations), prune speedup "
            f"{payload['prune_speedup']}x, parallel speedup "
            f"{payload['parallel_speedup']}x on "
            f"{payload['cores']} core(s) with jobs={payload['jobs']}, "
            f"drift 0.0, telemetry overhead "
            f"{payload['telemetry_overhead']['overhead_pct']}%\n"
            f"fused kernel: "
            f"{throughput['fused_candidates_per_s']:,.0f} "
            f"candidates/s over {throughput['candidates']} rows of "
            f"{throughput['object']} "
            f"({payload['eval_throughput_speedup']}x the "
            f"per-candidate loop)")


def test_search_speed():
    """Pytest entry: run the bench (mode from the environment)."""
    payload = run_bench(jobs=resolve_jobs())
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    write_result("search_speed", _render(payload))
    check_invariants(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel run "
                             "(default: min(4, cores))")
    parser.add_argument("--mode", choices=sorted(MODES), default=None,
                        help="benchmark size (default: small, or "
                             "REPRO_BENCH_MODE / REPRO_BENCH_FULL)")
    parser.add_argument("--full", action="store_true",
                        help="alias for --mode full")
    parser.add_argument("--out", type=Path, default=BENCH_JSON,
                        help="where to write the JSON payload "
                             "(default: repo-root BENCH_search.json)")
    args = parser.parse_args()
    mode = "full" if args.full else args.mode
    payload = run_bench(jobs=args.jobs, mode=mode)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(_render(payload))
    print(f"\nbench payload written to {args.out}")
    check_invariants(payload)
    print(f"invariants ({payload['mode']} mode): pruning>0, "
          f"zero drift — OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
