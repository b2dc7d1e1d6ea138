"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

* ``BENCHMARK.json`` names exactly the metrics the runner prints;
* two traced runs of one seed give identical per-op work counts and
  layout hashes on every op both completed;
* outside a checkout of the program the runner fails without printing
  a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, PER_LAYER, ROOT  # noqa: E402

RUNNER = HERE / "run.py"
#: Per-op counts that must repeat exactly between two traced runs of
#: one seed (besides the recommended layout's hash).
DETERMINISTIC_COUNTS = (
    "sql.parse.calls", "optimizer.plan.calls", "workload.subplans",
    "greedy.iterations", "greedy.evaluations",
    "costmodel.kernel.calls", "costmodel.kernel_rows",
    "costmodel.pruned_rows", "costmodel.commit.calls",
    "layout.stripe_fractions.calls", "storage.steps",
    "storage.journal_bytes", "storage.journal_records",
    "server.cache_hit", "server.cache_miss",
)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUNNER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == ["tpch", "relayout", "service"]


def _traced(workload: str, path: Path) -> dict:
    done = _run("--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", "1", "--trace-out", str(path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", ["tpch", "relayout", "service"])
def test_traced_counts_repeat(workload, tmp_path):
    first = _traced(workload, tmp_path / "a.json")["ops"]
    second = _traced(workload, tmp_path / "b.json")["ops"]
    common = min(len(first), len(second))
    assert common >= 1
    for a, b in zip(first[:common], second[:common]):
        assert a["op"] == b["op"]
        assert a["layout"] and a["layout"] == b["layout"]
        for name in DETERMINISTIC_COUNTS:
            assert a["counts"].get(name, 0) == b["counts"].get(name, 0), \
                (a["op"], name)


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "tpch", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
