"""The closed-loop workloads: ``tpch`` and ``relayout``.

One client runs ops back to back; each op starts when the previous one
(and its output check) is done.  The loop measures until the ops' own
time adds up to ``--seconds``, so output checks never count as op time.
The host-speed reference runs after every op; an op's normalized time
uses the mean of the references on either side of it.

``tpch``: the paper's tool as a user runs it.  Each op loads a fresh
TPC-H-22 qgen variant from SQL text, recommends a layout with
TS-GREEDY on the 8-disk farm of ``examples/tpch/``, renders the report
and saves the recommendation.

``relayout``: drift-driven incremental re-layout on a 12-disk farm.
Each op analyzes an 80-statement synthetic window, scores its drift
against the design window, re-lays it out from one fixed current layout
under a movement budget, and executes the migration plan with the
crash-safe executor (one fsync per journal record).  Ops never chain:
every op starts from the same current layout.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    EXAMPLE_DB,
    EXAMPLE_DISKS,
    costs_agree,
    host_speed,
    layout_hash,
    reference_work,
    workload_text,
)

#: Op inputs generated per run; a run that needs more cycles through
#: them (no op caches anything, so a repeat costs the same).
N_INPUTS = {"tpch": 400, "relayout": 300}
#: The relayout window size, farm width and movement budget Δ.
WINDOW_STATEMENTS = 80
RELAYOUT_DISKS = 12
MOVEMENT_BUDGET = 0.2
#: Seeds of the relayout inputs that stay fixed across ``--seed``: the
#: design window and the current layout every op starts from.
DESIGN_SEED = 2003
CURRENT_LAYOUT_SEED = 1985


def op_seed(seed: int, index: int) -> int:
    """Per-op input seed; distinct across (seed, index) pairs."""
    return seed * 1_000_003 + index


# -- inputs ----------------------------------------------------------------


def tpch_inputs(seed: int, workdir: Path) -> list[str]:
    """SQL text of one TPC-H-22 qgen variant per op."""
    from repro.benchdb.tpch import tpch22_workload
    return [workload_text((s.name, s.sql) for s in tpch22_workload(
        random.Random(op_seed(seed, i)))) for i in range(N_INPUTS["tpch"])]


def _current_layout(sizes: dict[str, int], farm: list[dict],
                    rng: random.Random) -> dict:
    """A fixed starting layout: each object striped, rate-proportionally,
    over 1-3 disks drawn at random (a layout built for another
    workload, so re-layout has something to gain)."""
    fractions = {}
    for name in sorted(sizes):
        disks = sorted(rng.sample(range(len(farm)), rng.randint(1, 3)))
        total = sum(farm[j]["read_mb_s"] for j in disks)
        fractions[name] = [farm[j]["read_mb_s"] / total if j in disks
                           else 0.0 for j in range(len(farm))]
    return {"object_sizes": dict(sizes), "fractions": fractions}


def relayout_inputs(seed: int, workdir: Path) -> list[str]:
    """Write the 12-disk farm, current layout and design window; return
    one synthetic window per op."""
    from repro.benchdb.synth import synthetic_workload
    from repro.catalog.io import farm_to_dict, load_database
    from repro.storage.disk import winbench_farm

    farm = farm_to_dict(winbench_farm(RELAYOUT_DISKS))
    (workdir / "disks12.json").write_text(json.dumps(farm))
    sizes = load_database(EXAMPLE_DB).object_sizes()
    (workdir / "current.json").write_text(json.dumps(_current_layout(
        sizes, farm, random.Random(CURRENT_LAYOUT_SEED))))

    def window(window_seed: int) -> str:
        workload = synthetic_workload(WINDOW_STATEMENTS, seed=window_seed)
        return workload_text((s.name, s.sql) for s in workload)

    (workdir / "design.sql").write_text(window(DESIGN_SEED))
    return [window(op_seed(seed, i)) for i in range(N_INPUTS["relayout"])]


# -- set-up ------------------------------------------------------------------


@dataclass
class Context:
    """What set-up leaves ready for the first op."""

    workdir: Path
    db: object
    farm: object
    current: object = None
    design_graph: object = None
    modules: dict = field(default_factory=dict)


def setup(kind: str, workdir: Path) -> Context:
    """Import the program and load the catalog, farm and current layout.

    Ops call the program through module attributes (``report.
    render_report``), never through names bound here, so the traced run's
    wrappers see every call.
    """
    from repro.catalog import io as catalog_io
    from repro.core import advisor, report
    from repro.workload import workload

    modules = {"catalog_io": catalog_io, "advisor": advisor,
               "report": report, "workload": workload}
    db = catalog_io.load_database(EXAMPLE_DB)
    if kind == "tpch":
        return Context(workdir, db, catalog_io.load_farm(EXAMPLE_DISKS),
                       modules=modules)
    from repro.storage import executor
    from repro.workload import drift
    modules.update(executor=executor, drift=drift)
    farm = catalog_io.load_farm(workdir / "disks12.json")
    current = catalog_io.load_layout(workdir / "current.json", farm)
    return Context(workdir, db, farm, current=current, modules=modules)


# -- ops and their checks -------------------------------------------------------


def tpch_op(ctx: Context, index: int, text: str, tag: str) -> dict:
    m = ctx.modules
    workload = m["workload"].Workload.loads(text, name=f"tpch-{index}")
    advisor = m["advisor"].LayoutAdvisor(ctx.db, ctx.farm)
    analyzed = advisor.analyze(workload)
    rec = advisor.recommend(analyzed)
    text_report = m["report"].render_report(rec)
    path = ctx.workdir / "recommendation.json"
    m["catalog_io"].save_recommendation(rec, path)
    return {"analyzed": analyzed, "rec": rec, "report": text_report,
            "path": path}


def tpch_check(ctx: Context, out: dict) -> tuple[bool, float, dict, str]:
    from repro.core.costmodel import CostModel
    rec = out["rec"]
    scalar = CostModel(ctx.farm).workload_cost(out["analyzed"], rec.layout)
    saved = ctx.modules["catalog_io"].load_recommendation(out["path"],
                                                          ctx.farm)
    digest = layout_hash(rec.layout)
    ok = (costs_agree(rec.estimated_cost, scalar)
          and "estimated improvement" in out["report"]
          and saved.estimated_cost == rec.estimated_cost
          and layout_hash(saved.layout) == digest)
    return ok, rec.improvement_pct, {}, digest


def relayout_warmup(ctx: Context) -> None:
    """Analyze the design window the current layout was made for."""
    advisor = ctx.modules["advisor"].LayoutAdvisor(ctx.db, ctx.farm)
    design = ctx.modules["workload"].Workload.load(
        ctx.workdir / "design.sql")
    ctx.design_graph = advisor.access_graph(advisor.analyze(design))


def relayout_op(ctx: Context, index: int, text: str, tag: str) -> dict:
    m = ctx.modules
    workload = m["workload"].Workload.loads(text, name=f"window-{index}")
    advisor = m["advisor"].LayoutAdvisor(ctx.db, ctx.farm)
    analyzed = advisor.analyze(workload)
    graph = advisor.access_graph(analyzed)
    drift = m["drift"].detect_drift(ctx.design_graph, graph)
    rec = advisor.recommend(analyzed, current_layout=ctx.current,
                            method="incremental",
                            movement_budget=MOVEMENT_BUDGET)
    journal = ctx.workdir / f"journal-{tag}-{index}.jsonl"
    result = m["executor"].MigrationExecutor(
        rec.migration, ctx.current, journal_path=str(journal),
        target=rec.layout).execute()
    return {"analyzed": analyzed, "rec": rec, "drift": drift,
            "result": result, "journal": journal}


def relayout_check(ctx: Context,
                   out: dict) -> tuple[bool, float, dict, str]:
    from repro.core.costmodel import CostModel
    from repro.core.tolerance import EPS_CAPACITY
    rec, result, journal = out["rec"], out["result"], out["journal"]
    scalar = CostModel(ctx.farm).workload_cost(out["analyzed"], rec.layout)
    total = sum(ctx.current.object_sizes.values())
    moved = ctx.current.data_movement_blocks(rec.layout)
    data = journal.read_bytes()
    journal.unlink()
    digest = layout_hash(rec.layout)
    ok = (costs_agree(rec.estimated_cost, scalar)
          and moved <= MOVEMENT_BUDGET * total + EPS_CAPACITY
          and result.status == "complete"
          and result.executed_steps == len(rec.migration.steps)
          and layout_hash(result.layout) == digest)
    counts = {"storage.journal_bytes": len(data),
              "storage.journal_records": data.count(b"\n")}
    return ok, rec.improvement_pct, counts, digest


WORKLOADS = {
    "tpch": (tpch_inputs, tpch_op, tpch_check, None),
    "relayout": (relayout_inputs, relayout_op, relayout_check,
                 relayout_warmup),
}


# -- the loop -----------------------------------------------------------------


@dataclass
class Phase:
    """Results of one measured loop: raw op times, the host speed
    around each op, and the times normalized by it."""

    latencies: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    normalized: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    improvements: list[float] = field(default_factory=list)
    failed: int = 0
    records: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_loop(ctx: Context, op, check, inputs: list[str], seconds: float,
             tag: str, recorder=None) -> Phase:
    """Run ops back to back until their time adds up to ``seconds``."""
    phase = Phase()
    index = 0
    reference = reference_work()
    while phase.busy_s < seconds:
        text = inputs[index % len(inputs)]
        if recorder is not None:
            before = recorder.snapshot()
            recorder.op = index
            recorder.active = True
        start = time.perf_counter()
        try:
            out, error = op(ctx, index, text, tag), None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            out, error = None, f"op {index}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.active = False
        following = reference_work()
        speed = host_speed((reference + following) / 2)
        reference = following
        phase.busy_s += elapsed
        phase.latencies.append(elapsed)
        phase.speeds.append(speed)
        phase.normalized.append(elapsed / speed)
        ok, improvement, counts, digest = False, 0.0, {}, ""
        if error is None:
            try:
                ok, improvement, counts, digest = check(ctx, out)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = f"check {index}: {type(exc).__name__}: {exc}"
            else:
                if not ok:
                    error = f"check {index}: output check failed"
        if ok:
            phase.improvements.append(improvement)
        else:
            phase.failed += 1
            phase.errors.append(error)
        if recorder is not None:
            for name, value in counts.items():
                recorder.count(name, value)
            after = recorder.snapshot()
            delta = {k: v - before.get(k, 0) for k, v in after.items()
                     if v != before.get(k, 0)}
            phase.records.append({"op": index, "latency_s": elapsed,
                                  "counts": delta, "layout": digest})
        index += 1
    return phase
