"""Tests for the observability layer: the telemetry handle, spans as
events, metrics and the null handle."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_TELEMETRY,
    Span,
    Telemetry,
    read_events,
)
from repro.obs.trace import spans_from_events


class FakeClock:
    """A deterministic clock that advances only on demand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def _open_path(telemetry):
    """Names of the spans still open, outermost first."""
    path = []
    nodes = telemetry.roots
    while nodes and nodes[-1].end_s is None:
        path.append(nodes[-1].name)
        nodes = nodes[-1].children
    return path


class TestSpanNesting:
    def test_spans_nest_under_the_open_span(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("outer"):
            with telemetry.span("inner-a"):
                clock.advance(1.0)
            with telemetry.span("inner-b"):
                clock.advance(2.0)
        [root] = telemetry.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner-a", "inner-b"]
        assert root.children[0].children == []

    def test_sibling_roots_form_a_forest(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("first"):
            pass
        with telemetry.span("second"):
            pass
        assert [r.name for r in telemetry.roots] == ["first", "second"]

    def test_current_tracks_the_innermost_open_span(self, clock):
        # The stream read back mid-flight (a crashed run's prefix)
        # shows exactly the spans still open.
        telemetry = Telemetry(clock=clock)
        assert _open_path(telemetry) == []
        with telemetry.span("outer"):
            assert _open_path(telemetry) == ["outer"]
            with telemetry.span("inner"):
                assert _open_path(telemetry) == ["outer", "inner"]
            assert _open_path(telemetry) == ["outer"]
        assert _open_path(telemetry) == []

    def test_span_closes_even_when_the_body_raises(self, clock):
        telemetry = Telemetry(clock=clock)
        with pytest.raises(RuntimeError):
            with telemetry.span("doomed"):
                clock.advance(0.5)
                raise RuntimeError("boom")
        [root] = telemetry.roots
        assert root.duration_s == pytest.approx(0.5)
        assert _open_path(telemetry) == []
        assert telemetry.events[-1]["type"] == "phase-end"


class TestSpansAreEvents:
    def test_span_emits_a_phase_pair_with_attrs_on_the_end(self, clock):
        telemetry = Telemetry(clock=clock, cpu_clock=clock)
        with telemetry.span("ts-greedy", k=1) as span:
            clock.advance(2.0)
            span.set("iterations", 7)
        start, end = telemetry.events
        assert start["type"] == "phase-start"
        assert start["data"] == {"phase": "ts-greedy"}
        assert end["type"] == "phase-end"
        assert end["data"] == {"phase": "ts-greedy", "wall_s": 2.0,
                               "cpu_s": 2.0, "k": 1, "iterations": 7}

    def test_file_sink_gets_the_same_phase_events(self, clock,
                                                  tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(clock=clock, path=path) as telemetry:
            with telemetry.span("recommend", method="ts-greedy"):
                clock.advance(1.0)
        assert read_events(path) == telemetry.events

    def test_sink_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for _ in range(2):
            with Telemetry(path=path) as telemetry:
                telemetry.emit("note", message="one run")
        assert len(read_events(path)) == 1

    def test_foreign_spans_group_by_source_under_the_open_span(self):
        def worker(index):
            handle = Telemetry(source=f"trajectory-{index}")
            with handle.span("ts-greedy"):
                with handle.span("ts-greedy/step2"):
                    pass
            return handle.snapshot()

        parent = Telemetry()
        with parent.span("portfolio"):
            for index in range(2):
                parent.merge(worker(index))
        [root] = parent.roots
        assert [c.name for c in root.children] == [
            "portfolio/trajectory-0", "portfolio/trajectory-1"]
        group = root.children[1]
        [greedy] = group.children
        assert [c.name for c in greedy.children] == ["ts-greedy/step2"]
        assert group.start_s == greedy.start_s
        assert group.end_s == greedy.end_s

    def test_rebuild_reads_a_stream_without_its_handle(self, clock,
                                                       tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(clock=clock, path=path) as telemetry:
            with telemetry.span("open-at-crash"):
                with telemetry.span("done"):
                    clock.advance(1.0)
        events = read_events(path)[:-1]  # drop the outer phase-end
        [root] = spans_from_events(events, "parent")
        assert root.end_s is None
        assert root.children[0].duration_s == pytest.approx(1.0)

    def test_inc_is_the_registry_method_itself(self):
        telemetry = Telemetry()
        assert telemetry.inc.__self__ is telemetry.metrics
        assert telemetry.inc.__func__ is MetricsRegistry.inc


class TestSpanTiming:
    def test_durations_are_epoch_relative(self, clock):
        clock.now = 500.0  # arbitrary absolute origin
        telemetry = Telemetry(clock=clock)
        clock.advance(2.0)
        with telemetry.span("work"):
            clock.advance(3.0)
        [root] = telemetry.roots
        assert root.start_s == pytest.approx(2.0)
        assert root.duration_s == pytest.approx(3.0)

    def test_open_span_reports_zero_duration(self, clock):
        span = Span(name="open", start_s=1.0)
        assert span.duration_s == 0.0

    def test_child_time_is_contained_in_parent_time(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("parent"):
            clock.advance(1.0)
            with telemetry.span("child"):
                clock.advance(2.0)
            clock.advance(1.0)
        [parent] = telemetry.roots
        [child] = parent.children
        assert child.start_s >= parent.start_s
        assert child.duration_s <= parent.duration_s
        assert parent.duration_s == pytest.approx(4.0)


class TestSpanQueries:
    def test_find_is_preorder_within_a_tree(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("a"):
            with telemetry.span("b"):
                with telemetry.span("target"):
                    pass
        assert telemetry.find("target").name == "target"
        assert telemetry.find("missing") is None

    def test_find_prefers_the_most_recent_root(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("run") as first:
            first.set("generation", 1)
        with telemetry.span("run") as second:
            second.set("generation", 2)
        assert telemetry.find("run").attrs["generation"] == 2

    def test_leaves_yields_only_leaf_spans(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("root"):
            with telemetry.span("mid"):
                with telemetry.span("leaf-1"):
                    pass
            with telemetry.span("leaf-2"):
                pass
        [root] = telemetry.roots
        assert [s.name for s in root.leaves()] == ["leaf-1", "leaf-2"]


class TestTraceSerialization:
    def test_json_round_trip_preserves_the_tree(self, clock, tmp_path):
        # The event file is the serialization: the tree read back from
        # it equals the live one.
        path = tmp_path / "events.jsonl"
        with Telemetry(clock=clock, path=path) as telemetry:
            with telemetry.span("root", method="ts-greedy"):
                clock.advance(1.5)
                with telemetry.span("child"):
                    clock.advance(0.25)
        [root] = spans_from_events(read_events(path), "parent")
        assert root.name == "root"
        assert root.attrs == {"method": "ts-greedy"}
        assert root.duration_s == pytest.approx(1.75)
        [child] = root.children
        assert child.name == "child"
        assert child.duration_s == pytest.approx(0.25)
        assert root == telemetry.roots[0]

    def test_render_tree_shows_names_durations_and_attrs(self, clock):
        telemetry = Telemetry(clock=clock)
        with telemetry.span("root", k=1):
            clock.advance(2.0)
            with telemetry.span("half"):
                clock.advance(2.0)
        text = telemetry.render_tree()
        assert "root" in text and "half" in text
        assert "[k=1]" in text
        assert "50.0%" in text  # the child's share of the root


class TestCounters:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        metrics.inc("evals")
        metrics.inc("evals", 4)
        assert metrics.value("evals") == 5.0

    def test_gauge_is_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("nodes", 10)
        metrics.set_gauge("nodes", 3)
        assert metrics.value("nodes") == 3.0

    def test_unwritten_metric_reads_zero(self):
        assert MetricsRegistry().value("never") == 0.0

    def test_kind_clash_raises(self):
        metrics = MetricsRegistry()
        metrics.inc("thing")
        with pytest.raises(ValueError, match="another kind"):
            metrics.gauge("thing")


class TestHistograms:
    def test_summary_statistics(self):
        metrics = MetricsRegistry()
        for value in [1, 2, 3, 4, 100]:
            metrics.observe("dist", value)
        hist = metrics.histogram("dist")
        assert hist.count == 5
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.mean == pytest.approx(22.0)
        assert hist.percentile(50) == 3.0

    def test_sample_cap_keeps_aggregates_exact(self):
        hist = MetricsRegistry().histogram("capped")
        hist.max_samples = 4
        for value in range(10):
            hist.observe(value)
        assert len(hist.samples) == 4
        assert hist.count == 10
        assert hist.max == 9.0
        assert hist.mean == pytest.approx(4.5)

    def test_to_dict_is_json_serializable(self):
        metrics = MetricsRegistry()
        metrics.inc("c", 2)
        metrics.set_gauge("g", 7)
        metrics.observe("h", 1.5)
        data = json.loads(json.dumps(metrics.to_dict()))
        assert data["counters"]["c"] == 2.0
        assert data["gauges"]["g"] == 7.0
        assert data["histograms"]["h"]["count"] == 1

    def test_render_lists_every_instrument(self):
        metrics = MetricsRegistry()
        metrics.inc("alpha")
        metrics.observe("beta", 3)
        text = metrics.render()
        assert "=== metrics ===" in text
        assert "alpha" in text and "beta" in text


class TestNullObjects:
    def test_null_tracer_matches_the_tracer_api(self):
        with NULL_TELEMETRY.span("anything", attr=1) as span:
            span.set("key", "value")
        NULL_TELEMETRY.emit("note", message="dropped")
        assert NULL_TELEMETRY.events == []
        assert NULL_TELEMETRY.run_id == ""

    def test_null_tracer_hands_out_one_shared_context(self):
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")

    def test_null_metrics_matches_the_registry_api(self):
        NULL_TELEMETRY.inc("c")
        NULL_TELEMETRY.set_gauge("g", 5)
        NULL_TELEMETRY.observe("h", 5)
        assert NULL_TELEMETRY.value("c") == 0.0
        assert NULL_TELEMETRY.value("g") == 0.0

    def test_null_objects_swallow_exceptions_properly(self):
        # __exit__ must return falsy so exceptions still propagate.
        with pytest.raises(RuntimeError):
            with NULL_TELEMETRY.span("doomed"):
                raise RuntimeError("boom")


class TestTracerAttach:
    """Worker spans merged into a parent attach under its open span."""

    @staticmethod
    def _worker(index, **attrs):
        worker = Telemetry(source=f"trajectory-{index}")
        with worker.span("ts-greedy", **attrs):
            pass
        return worker.snapshot()

    def test_attach_as_root_when_nothing_open(self):
        parent = Telemetry()
        parent.merge(self._worker(0))
        assert [r.name for r in parent.roots] == ["ts-greedy"]

    def test_attach_nests_under_the_open_span(self):
        parent = Telemetry()
        with parent.span("portfolio"):
            parent.merge(self._worker(0))
        [root] = parent.roots
        [group] = root.children
        assert group.name == "portfolio/trajectory-0"
        assert parent.find("ts-greedy") == group.children[0]

    def test_attached_tree_survives_serialization(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(path=path) as parent:
            with parent.span("portfolio"):
                parent.merge(self._worker(1, label="anneal-104"))
        [root] = spans_from_events(read_events(path), "parent")
        found = root.find("portfolio/trajectory-1")
        assert found is not None
        assert found.children[0].attrs["label"] == "anneal-104"

    def test_null_tracer_attach_is_a_noop(self):
        NULL_TELEMETRY.merge(self._worker(0))
        assert NULL_TELEMETRY.events == []


class TestMetricsMerge:
    def test_counters_add_and_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 3)
        a.set_gauge("g", 1)
        b.inc("c", 4)
        b.set_gauge("g", 9)
        a.merge(b.to_dict())
        assert a.value("c") == 7.0
        assert a.value("g") == 9.0

    def test_histogram_aggregates_merge_exactly(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1, 2, 3):
            a.observe("h", v)
        for v in (10, 20):
            b.observe("h", v)
        a.merge(b.to_dict())
        hist = a.histogram("h")
        assert hist.count == 5
        assert hist.total == 36.0
        assert hist.min == 1.0
        assert hist.max == 20.0

    def test_merge_into_empty_registry(self):
        src = MetricsRegistry()
        src.inc("greedy.evaluations", 42)
        src.observe("candidates", 7)
        dst = MetricsRegistry().merge(src.to_dict())
        assert dst.value("greedy.evaluations") == 42.0
        assert dst.histogram("candidates").count == 1

    def test_merge_skips_empty_histograms(self):
        src = MetricsRegistry()
        src.histogram("empty")  # created, never observed
        dst = MetricsRegistry()
        dst.merge(src.to_dict())
        assert dst.histogram("empty").count == 0
        assert dst.histogram("empty").samples == []

    def test_merge_is_associative_over_snapshots(self):
        parts = []
        for base in (0, 10, 20):
            reg = MetricsRegistry()
            reg.inc("n", base + 1)
            parts.append(reg.to_dict())
        one_shot = MetricsRegistry()
        for part in parts:
            one_shot.merge(part)
        assert one_shot.value("n") == 33.0

    def test_null_metrics_merge_is_a_noop(self):
        src = Telemetry()
        src.inc("c", 5)
        NULL_TELEMETRY.merge(src.snapshot())
        assert NULL_TELEMETRY.value("c") == 0.0

    def test_telemetry_merge_folds_counters_and_events(self):
        worker = Telemetry(source="trajectory-0")
        worker.inc("greedy.evaluations", 3)
        worker.emit("note", message="from the worker")
        parent = Telemetry()
        parent.inc("greedy.evaluations", 4)
        parent.merge(worker.snapshot())
        assert parent.value("greedy.evaluations") == 7.0
        [event] = parent.events
        assert event["source"] == "trajectory-0"
        assert event["run_id"] == parent.run_id
