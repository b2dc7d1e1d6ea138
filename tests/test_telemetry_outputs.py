"""End-to-end checks of what one telemetry handle writes from the CLI.

One pooled portfolio run on the TPC-H example with a 12-disk farm
(large enough that ``--jobs 2`` really uses the process pool) feeds
every exporter at once; the tests check that the exporters agree with
each other and with a Prometheus dump pinned before the telemetry
handle existed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from repro.catalog.io import save_farm
from repro.cli import main
from repro.core.tolerance import EPS_FRACTION
from repro.obs import read_events, validate_events
from repro.obs.export import parse_prometheus
from repro.obs.trace import spans_from_events
from repro.storage.disk import winbench_farm

_EXAMPLE = Path(__file__).parent.parent / "examples" / "tpch"
_FIXTURE = (Path(__file__).parent / "fixtures" / "prom"
            / "recommend_portfolio_tpch_12disks.prom")
_TRAJECTORIES = 4  # the default portfolio


def _recommend(disks: Path, jobs: int, out: Path, *extra: str) -> None:
    rc = main(["recommend", "--database", str(_EXAMPLE / "db.json"),
               "--disks", str(disks),
               "--workload", str(_EXAMPLE / "workload.sql"),
               "--method", "portfolio", "--jobs", str(jobs), *extra])
    assert rc == 0


@pytest.fixture(scope="module")
def disks12(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("farm") / "disks12.json"
    save_farm(winbench_farm(12), path)
    return path


@pytest.fixture(scope="module")
def pooled_run(tmp_path_factory, disks12) -> Path:
    """One ``--jobs 2`` run writing every telemetry output.

    Two usable cores are pinned, so the run takes the pool on any
    host.
    """
    out = tmp_path_factory.mktemp("pooled")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.parallel.portfolio.available_workers",
                      lambda: 2)
        _recommend(disks12, 2, out, "--prom", str(out / "metrics.prom"),
                   "--events", str(out / "events.jsonl"),
                   "--otlp", str(out / "otlp.json"))
    return out


def _is_integer(text: str) -> bool:
    return text.lstrip("-").isdigit()


class TestPrometheusDump:
    def test_pooled_dump_matches_the_pinned_fixture(self, pooled_run,
                                                    capsys):
        capsys.readouterr()
        expected = _FIXTURE.read_text().splitlines()
        actual = (pooled_run / "metrics.prom").read_text().splitlines()
        assert len(actual) == len(expected)
        for want, got in zip(expected, actual):
            if want.startswith("#"):
                assert got == want
                continue
            name, value = want.rsplit(" ", 1)
            got_name, got_value = got.rsplit(" ", 1)
            assert got_name == name
            if _is_integer(value):
                assert got_value == value, name
            else:
                assert math.isclose(float(got_value), float(value),
                                    rel_tol=EPS_FRACTION), name

    def test_serial_and_pooled_dumps_differ_only_in_workers(
            self, pooled_run, disks12, tmp_path, capsys):
        serial = tmp_path / "serial.prom"
        _recommend(disks12, 1, tmp_path, "--prom", str(serial))
        capsys.readouterr()
        one = parse_prometheus(serial.read_text())
        two = parse_prometheus((pooled_run / "metrics.prom").read_text())
        assert one.pop("repro_portfolio_workers") == [({}, 1.0)]
        assert two.pop("repro_portfolio_workers") == [({}, 2.0)]
        assert one == two
        # The serial portfolio hands the advisor's evaluator back to
        # the caller's telemetry, so the final score is counted.
        assert one["repro_costmodel_full_evaluations_total"] == [({}, 1.0)]


def _otlp_spans(run: Path) -> list[dict]:
    otlp = json.loads((run / "otlp.json").read_text())
    return otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _subtree_names(spans: list[dict], span_id: str):
    """Names of the OTLP spans below ``span_id``, in pre-order."""
    for span in spans:
        if span.get("parentSpanId") == span_id:
            yield span["name"]
            yield from _subtree_names(spans, span["spanId"])


class TestOneChannel:
    def test_events_trace_and_otlp_name_the_same_phases(self,
                                                        pooled_run):
        events = read_events(pooled_run / "events.jsonl")
        assert validate_events(events) == []
        phases = Counter(event["data"]["phase"] for event in events
                         if event["type"] == "phase-end")
        [root] = spans_from_events(events, "parent")
        traced = Counter(span.name for span in _walk(root))
        exported = Counter(span["name"]
                           for span in _otlp_spans(pooled_run))
        groups = Counter(f"portfolio/trajectory-{i}"
                         for i in range(_TRAJECTORIES))
        assert traced == exported
        assert traced == phases + groups

    def test_worker_spans_sit_under_their_trajectory(self, pooled_run):
        events = read_events(pooled_run / "events.jsonl")
        spans = _otlp_spans(pooled_run)
        [root] = [span for span in spans if "parentSpanId" not in span]
        [portfolio] = [span for span in spans
                       if span["name"] == "portfolio"
                       and span["parentSpanId"] == root["spanId"]]
        groups = [span for span in spans
                  if span.get("parentSpanId") == portfolio["spanId"]]
        assert [group["name"] for group in groups] == [
            f"portfolio/trajectory-{i}" for i in range(_TRAJECTORIES)]
        for index, group in enumerate(groups):
            worker_phases = Counter(
                event["data"]["phase"] for event in events
                if event["type"] == "phase-end"
                and event["source"] == f"trajectory-{index}")
            nested = Counter(_subtree_names(spans, group["spanId"]))
            assert nested == worker_phases


class TestEventFiles:
    def test_each_event_file_holds_one_run(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        for _ in range(2):
            rc = main(["recommend",
                       "--database", str(_EXAMPLE / "db.json"),
                       "--disks", str(_EXAMPLE / "disks.json"),
                       "--workload", str(_EXAMPLE / "workload.sql"),
                       "--events", str(events)])
            assert rc == 0
        capsys.readouterr()
        assert main(["inspect", str(events), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["types"]["run-start"] == 1
        assert len({event["run_id"]
                    for event in read_events(events)}) == 1
