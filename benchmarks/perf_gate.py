"""Perf-regression gate: compare two benchmark payloads.

CI's ``perf-gate`` job runs :mod:`bench_search_speed` and
:mod:`bench_server` in ``ci`` mode and feeds each fresh payload
through this comparator against a stored baseline — the previous
successful run's artifact when one is cached, else the committed
``benchmarks/results/baseline.json`` /
``benchmarks/results/baseline_server.json``.

The payload kind is self-describing: ``bench_server`` payloads carry
``"bench": "server"`` and dispatch to :func:`compare_server`
(machine-independent: zero errors, request counts, cache-hit-ratio
floor; wall-clock: throughput floor and p95 latency ceiling);
everything else is a BENCH_search payload handled by
:func:`compare`.  Mixing kinds across ``--baseline``/``--candidate``
is itself a violation.

Two classes of check:

* **Machine-independent** (always on): the candidate's own invariants
  hold (pruning fired, zero drift); and — when the two payloads were
  produced by the same bench mode — the search is *deterministic
  enough* that evaluation counts match the baseline exactly and final
  costs match within epsilon.  A drifted count or cost means the
  search itself changed behaviour, which is a perf-gate failure no
  matter how fast the run was.
* **Wall-clock** (skippable with ``--skip-wall``): each configuration's
  wall time must be within ``--max-regression`` (default 25%) of the
  baseline, and the fused kernel's candidate-evaluation throughput
  must not fall below the baseline's by more than the same allowance.  Only meaningful when baseline and candidate ran on
  comparable hardware — CI skips it when falling back to the committed
  baseline, which was recorded on a different machine.  When both
  payloads carry the per-configuration ``spans`` map, a wall violation
  names the leaf span whose wall time grew the most (e.g.
  ``slowest-growing span: ts-greedy/step2 (+0.330s, ...)``), so the
  regression is attributed, not just detected.

Exit status 0 on pass, 1 on any violation (all violations are listed,
not just the first).

Run directly::

    PYTHONPATH=src python benchmarks/perf_gate.py \
        --baseline benchmarks/results/baseline.json \
        --candidate BENCH_search.json [--skip-wall]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for bench helpers
from bench_search_speed import check_invariants  # noqa: E402
from bench_server import (  # noqa: E402
    check_invariants as check_server_invariants,
)

#: Configurations whose wall/evaluations/cost are compared.
CONFIGS = ("greedy_noprune", "greedy_prune", "portfolio_serial",
           "portfolio_parallel")

#: Absolute tolerance for cost comparisons across runs.  The search is
#: seeded and deterministic; this only absorbs float-accumulation
#: differences across Python/numpy versions.
EPS_COST = 1e-6

#: Default allowed wall-clock regression (25%).
DEFAULT_MAX_REGRESSION = 0.25


def _attribute_span(base_cfg: dict, cand_cfg: dict) -> str:
    """Attribute a wall regression to the leaf span that grew the most.

    Both payloads must carry the configuration's ``spans`` map; returns
    the empty string when either lacks it (the wall violation still
    fires, it just goes unattributed) or when no span actually grew.
    A span missing from one side counts as zero seconds there.
    """
    base = base_cfg.get("spans") or {}
    cand = cand_cfg.get("spans") or {}
    if not base or not cand:
        return ""

    def wall(spans: dict, name: str) -> float:
        return float((spans.get(name) or {}).get("wall_s", 0.0))

    delta, name = max((wall(cand, name) - wall(base, name), name)
                      for name in sorted(set(base) | set(cand)))
    if delta <= 0.0:
        return ""
    return (f"; slowest-growing span: {name} (+{delta:.3f}s, "
            f"{wall(base, name):.3f}s -> {wall(cand, name):.3f}s)")


def compare(baseline: dict, candidate: dict,
            max_regression: float = DEFAULT_MAX_REGRESSION,
            skip_wall: bool = False) -> list[str]:
    """All gate violations of ``candidate`` against ``baseline``.

    Returns an empty list when the candidate passes.
    """
    violations: list[str] = []

    # The candidate must satisfy the bench's own invariants no matter
    # what the baseline says.
    try:
        check_invariants(candidate)
    except AssertionError as exc:
        violations.append(f"candidate invariants: {exc}")

    same_mode = baseline.get("mode") == candidate.get("mode")
    if not same_mode:
        violations.append(
            f"mode mismatch: baseline ran {baseline.get('mode')!r}, "
            f"candidate ran {candidate.get('mode')!r} — counts and "
            f"costs are not comparable")

    for name in CONFIGS:
        base, cand = baseline.get(name), candidate.get(name)
        if base is None or cand is None:
            violations.append(f"{name}: missing from "
                              f"{'baseline' if base is None else 'candidate'}")
            continue
        if same_mode:
            # Deterministic search: a changed evaluation count means a
            # changed search, not a slower one.
            if cand["evaluations"] != base["evaluations"]:
                violations.append(
                    f"{name}: evaluation count drifted "
                    f"{base['evaluations']} -> {cand['evaluations']}")
            if abs(cand["cost"] - base["cost"]) > EPS_COST:
                violations.append(
                    f"{name}: cost drifted {base['cost']:.6f} -> "
                    f"{cand['cost']:.6f}")
        if not skip_wall:
            limit = base["wall_s"] * (1.0 + max_regression)
            if cand["wall_s"] > limit:
                violations.append(
                    f"{name}: wall {cand['wall_s']:.3f}s exceeds "
                    f"{base['wall_s']:.3f}s + {max_regression:.0%} "
                    f"allowance ({limit:.3f}s)"
                    + _attribute_span(base, cand))

    if same_mode:
        # Pruning effectiveness must not erode (small slack for
        # count rounding).
        base_red = float(baseline.get("prune_eval_reduction", 0.0))
        cand_red = float(candidate.get("prune_eval_reduction", 0.0))
        if cand_red < base_red - 0.05:
            violations.append(
                f"prune_eval_reduction eroded "
                f"{base_red:.1%} -> {cand_red:.1%}")
    if not skip_wall:
        # Fused-kernel candidate throughput must not fall below the
        # baseline's by more than the wall allowance.  Only checked
        # when both payloads carry the field (added with the fused
        # kernel) — it is a machine-dependent rate, like wall time.
        base_tp = baseline.get("eval_throughput_candidates_per_s")
        cand_tp = candidate.get("eval_throughput_candidates_per_s")
        if base_tp is not None and cand_tp is not None:
            floor = float(base_tp) / (1.0 + max_regression)
            if float(cand_tp) < floor:
                violations.append(
                    f"eval throughput dropped {float(base_tp):,.0f} -> "
                    f"{float(cand_tp):,.0f} candidates/s (floor "
                    f"{floor:,.0f} at {max_regression:.0%} allowance)")
    return violations


#: Allowed erosion of the cache hit ratio relative to the baseline
#: (absolute).  The ratio is a property of the traffic shape, not the
#: machine, so the slack only absorbs in-flight races at ramp-up.
HIT_RATIO_SLACK = 0.05


def payload_kind(payload: dict) -> str:
    """``"server"`` for bench_server payloads, ``"search"`` otherwise."""
    return "server" if payload.get("bench") == "server" else "search"


def compare_server(baseline: dict, candidate: dict,
                   max_regression: float = DEFAULT_MAX_REGRESSION,
                   skip_wall: bool = False) -> list[str]:
    """All gate violations of a BENCH_server candidate.

    Machine-independent (always on): the candidate's own invariants
    (zero errors, completion, hit-ratio floor), mode and request-count
    agreement with the baseline, and no hit-ratio erosion beyond
    :data:`HIT_RATIO_SLACK`.  Wall-clock (skippable): sustained
    throughput must not fall below the baseline's by more than
    ``max_regression``, and p95 latency must not exceed it by more.
    """
    violations: list[str] = []
    try:
        check_server_invariants(candidate)
    except AssertionError as exc:
        violations.append(f"candidate invariants: {exc}")

    same_mode = baseline.get("mode") == candidate.get("mode")
    if not same_mode:
        violations.append(
            f"mode mismatch: baseline ran {baseline.get('mode')!r}, "
            f"candidate ran {candidate.get('mode')!r} — request "
            f"volumes are not comparable")
    if same_mode and candidate.get("requests") \
            != baseline.get("requests"):
        violations.append(
            f"request count drifted {baseline.get('requests')} -> "
            f"{candidate.get('requests')} — the bench itself changed")

    base_ratio = float(baseline.get("cache_hit_ratio", 0.0))
    cand_ratio = float(candidate.get("cache_hit_ratio", 0.0))
    if cand_ratio < base_ratio - HIT_RATIO_SLACK:
        violations.append(
            f"cache hit ratio eroded {base_ratio:.1%} -> "
            f"{cand_ratio:.1%} (slack {HIT_RATIO_SLACK:.0%})")

    if not skip_wall:
        base_tp = float(baseline.get("throughput_rps", 0.0))
        cand_tp = float(candidate.get("throughput_rps", 0.0))
        floor = base_tp / (1.0 + max_regression)
        if cand_tp < floor:
            violations.append(
                f"throughput dropped {base_tp:,.1f} -> "
                f"{cand_tp:,.1f} req/s (floor {floor:,.1f} at "
                f"{max_regression:.0%} allowance)")
        base_p95 = float(baseline.get("latency_s", {})
                         .get("p95", 0.0))
        cand_p95 = float(candidate.get("latency_s", {})
                         .get("p95", 0.0))
        limit = base_p95 * (1.0 + max_regression)
        if base_p95 > 0.0 and cand_p95 > limit:
            violations.append(
                f"p95 latency {cand_p95 * 1e3:.1f}ms exceeds "
                f"{base_p95 * 1e3:.1f}ms + {max_regression:.0%} "
                f"allowance ({limit * 1e3:.1f}ms)")
    return violations


def load_payload(path: Path, role: str) -> dict:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"perf-gate: {role} payload {path} not found")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"perf-gate: {role} payload {path} "
                         f"is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"perf-gate: {role} payload {path} "
                         f"must be a JSON object")
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="baseline BENCH_search payload")
    parser.add_argument("--candidate", type=Path, required=True,
                        help="candidate BENCH_search payload")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION,
                        help="allowed wall-clock regression fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--skip-wall", action="store_true",
                        help="skip wall-clock checks (baseline from a "
                             "different machine)")
    args = parser.parse_args(argv)
    baseline = load_payload(args.baseline, "baseline")
    candidate = load_payload(args.candidate, "candidate")
    kind = payload_kind(candidate)
    if payload_kind(baseline) != kind:
        print("perf-gate: FAIL (1 violation(s))")
        print(f"  - payload kind mismatch: baseline is "
              f"{payload_kind(baseline)!r}, candidate is {kind!r}")
        return 1
    comparator = compare_server if kind == "server" else compare
    violations = comparator(baseline, candidate,
                            max_regression=args.max_regression,
                            skip_wall=args.skip_wall)
    if violations:
        print(f"perf-gate: FAIL ({len(violations)} violation(s))")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    if kind == "server":
        checked = "errors+hit-ratio+invariants" if args.skip_wall \
            else "errors+hit-ratio+invariants+throughput+p95"
    else:
        checked = "counts+costs+invariants" \
            if args.skip_wall else "counts+costs+invariants+wall"
    print(f"perf-gate: PASS ({kind}: {checked}; baseline "
          f"{baseline.get('mode')} mode vs candidate "
          f"{candidate.get('mode')} mode)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
