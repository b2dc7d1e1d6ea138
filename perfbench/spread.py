"""Summarize repeated runs: median and quartile spread per metric.

Usage: ``python3 perfbench/spread.py RESULTS.jsonl [...]`` where each
file holds one runner result line per run (the last stdout line of
``run.py``).  For every metric it prints the median and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(paths: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for path in paths:
        runs = [json.loads(line) for line in Path(path).read_text()
                .splitlines() if line.strip()]
        print(f"{path}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed ops, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = float("nan")
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread == spread:
                flag = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            print(f"  {name:24s} median {median:12.6g}  spread "
                  f"{spread:7.3f}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
