"""Span tracing, metrics registry, and exporter behavior."""

from __future__ import annotations

import json

import pytest

from repro.runtime.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    Telemetry,
    _NOOP_SPAN,
    metrics,
    span,
    telemetry,
    traced,
)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_noop_singleton_when_disabled(self):
        assert not telemetry().enabled
        first = span("a")
        second = span("b", attr=1)
        assert first is second is _NOOP_SPAN
        with first:
            pass
        assert first.duration_s == 0.0
        assert telemetry().finished_spans() == []

    def test_records_duration_and_attributes(self):
        tel = Telemetry()
        tel.enable()
        with tel.span("work", facets=7) as sp:
            sp.set(visible=3)
        finished = tel.finished_spans()
        assert len(finished) == 1
        assert finished[0].name == "work"
        assert finished[0].attributes == {"facets": 7, "visible": 3}
        assert finished[0].duration_s > 0.0

    def test_nesting_tracks_depth_and_parent(self):
        tel = Telemetry()
        tel.enable()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        inner, outer = tel.finished_spans()
        assert inner.name == "inner"
        assert inner.depth == 1
        assert inner.parent_name == "outer"
        assert outer.depth == 0
        assert outer.parent_name == ""

    def test_exception_sets_error_attribute_and_unwinds(self):
        tel = Telemetry()
        tel.enable()
        with pytest.raises(ValueError):
            with tel.span("outer"):
                with tel.span("inner"):
                    raise ValueError("boom")
        inner, outer = tel.finished_spans()
        assert inner.attributes["error"] == "ValueError"
        assert outer.attributes["error"] == "ValueError"
        # Stack fully unwound: a new span starts at depth 0 again.
        with tel.span("next") as sp:
            assert sp.depth == 0

    def test_exception_skipping_inner_exit_still_unwinds(self):
        tel = Telemetry()
        tel.enable()
        outer = tel.span("outer")
        with pytest.raises(RuntimeError), outer:
            # Simulate a leaked inner span whose __exit__ never runs.
            tel.span("leaked").__enter__()
            raise RuntimeError
        with tel.span("after") as sp:
            assert sp.depth == 0
            assert sp.parent_name == ""

    def test_forced_span_measures_while_disabled(self):
        tel = Telemetry()
        timer = tel.span("wall", force=True)
        with timer:
            pass
        assert timer.duration_s > 0.0
        # ... but is not collected into the trace buffer.
        assert tel.finished_spans() == []

    def test_traced_decorator(self):
        tel = telemetry()
        tel.enable()

        @traced("fn.work", kind="test")
        def work(x):
            return x + 1

        assert work(1) == 2
        (sp,) = tel.finished_spans()
        assert sp.name == "fn.work"
        assert sp.attributes == {"kind": "test"}

    def test_aggregate_orders_by_total(self):
        tel = Telemetry()
        tel.enable()
        for _ in range(3):
            with tel.span("fast"):
                pass
        with tel.span("slow"):
            sum(range(50_000))
        table = tel.aggregate()
        assert set(table) == {"fast", "slow"}
        assert table["fast"]["count"] == 3
        assert table["fast"]["min_s"] <= table["fast"]["mean_s"] <= table["fast"]["max_s"]
        totals = [entry["total_s"] for entry in table.values()]
        assert totals == sorted(totals, reverse=True)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_schema(self, tmp_path):
        tel = Telemetry()
        tel.enable()
        with tel.span("outer", label="x"):
            with tel.span("inner"):
                pass
        path = tel.export_chrome_trace(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        assert events[0]["ts"] == 0.0  # relative to first span start
        assert events[0]["args"] == {"label": "x"}
        # Nested span is contained within its parent.
        outer, inner = events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_empty_trace_is_valid_json(self, tmp_path):
        tel = Telemetry()
        path = tel.export_chrome_trace(tmp_path / "trace.json")
        assert json.loads(path.read_text()) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("rate").set(3.5)
        snap = registry.snapshot()
        assert snap["hits"] == {"type": "counter", "value": 3}
        assert snap["rate"] == {"type": "gauge", "value": 3.5}

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_bucket_edges(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 5.0))
        # Exactly on a bound counts in that bucket (le semantics)...
        hist.observe(1.0)
        hist.observe(2.0)
        # ... just above it spills into the next one ...
        hist.observe(1.0000001)
        # ... and values beyond the last bound land in the overflow bucket.
        hist.observe(100.0)
        buckets = hist.snapshot()["buckets"]
        assert buckets["1.0"] == 1
        assert buckets["2.0"] == 2
        assert buckets["5.0"] == 0
        assert buckets["inf"] == 1
        assert hist.count == 4
        assert hist.mean == pytest.approx((1.0 + 2.0 + 1.0000001 + 100.0) / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_export_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("cache.hit").inc(4)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        path = registry.export_jsonl(tmp_path / "metrics.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["name"] for entry in lines] == ["cache.hit", "lat"]
        assert lines[0]["value"] == 4
        assert lines[1]["type"] == "histogram"
        assert lines[1]["buckets"]["0.1"] == 1

    def test_reset_clears_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}


# ----------------------------------------------------------------------
# Pipeline integration: instrumented hot paths emit spans + metrics
# ----------------------------------------------------------------------
class TestPipelineIntegration:
    def test_simulator_emits_spans_and_metrics(self, micro_generator):
        tel = telemetry()
        tel.enable()
        meshes = micro_generator.sample_meshes("push", 1.0, 0.0)
        micro_generator.simulator.simulate_sequence(meshes[:2])
        names = {sp.name for sp in tel.finished_spans()}
        assert {
            "simulate.sequence",
            "simulate.sequence_geometry",
            "simulate.sequence_synthesis",
        } <= names
        snap = metrics().snapshot()
        assert snap["simulator.facets_processed"]["value"] > 0
        assert snap["simulator.chirps_synthesized"]["value"] > 0

    def test_reference_simulator_emits_per_frame_spans(self, micro_generator):
        tel = telemetry()
        tel.enable()
        meshes = micro_generator.sample_meshes("push", 1.0, 0.0)
        micro_generator.simulator.simulate_sequence_reference(meshes[:2])
        names = {sp.name for sp in tel.finished_spans()}
        assert {"simulate.sequence", "simulate.frame_cube", "simulate.facet_set"} <= names

    def test_cache_counts_hits_and_misses(self, micro_generator, tmp_path):
        from repro.datasets.cache import cached_dataset

        params = {"k": 1}

        def build():
            return micro_generator.generate_dataset(samples_per_class=1)

        cached_dataset(params, build, cache_dir=tmp_path)
        cached_dataset(params, build, cache_dir=tmp_path)
        snap = metrics().snapshot()
        assert snap["cache.miss"]["value"] == 1
        assert snap["cache.hit"]["value"] == 1
