"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- percentiles ----------------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert stats.percentile([float(i) for i in range(199)], 95.0) is None
    values = [float(i) for i in range(200)]
    # Nearest rank 190 leaves exactly ten samples (190..199) beyond it.
    assert stats.percentile(values, 95.0) == 189.0


def test_median_is_reported_from_twenty_samples():
    assert stats.percentile([1.0] * 19, 50.0) is None
    assert stats.percentile([float(i) for i in range(20)], 50.0) == 9.0


def test_tail_falls_back_to_the_maximum_when_unsupported():
    assert stats.tail([3.0], 95.0) == ("max", 3.0)
    assert stats.tail([3.0, 5.0], None) == ("max", 5.0)
    assert stats.tail([float(i) for i in range(150)], 95.0) == ("max", 149.0)
    assert stats.tail([float(i) for i in range(400)], 95.0) == ("p95", 379.0)
    # datagen's 120 samples leave twelve beyond p90, 99 would leave nine.
    assert stats.tail([float(i) for i in range(120)], 90.0) == ("p90", 107.0)
    assert stats.tail([float(i) for i in range(99)], 90.0) == ("max", 98.0)


def test_median_even_and_odd():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# -- self time ------------------------------------------------------------
def _spans(*rows):
    """rows: (name, start, end, parent) with times in seconds."""
    return [
        [name, int(start * 1e9), int(end * 1e9), parent, None, 0]
        for name, start, end, parent in rows
    ]


def test_self_time_subtracts_nested_children():
    spans = _spans(
        ("fit", 0, 10, -1),
        ("conv", 1, 3, 0),
        ("backward", 4, 9, 0),
        ("conv_bwd", 5, 7, 2),
        ("conv_bwd", 7, 8, 2),
    )
    times = tracing.self_times(spans)
    assert times["fit"] == pytest.approx(10 - 2 - 5)
    assert times["conv"] == pytest.approx(2)
    assert times["backward"] == pytest.approx(5 - 3)
    assert times["conv_bwd"] == pytest.approx(3)
    assert sum(times.values()) == pytest.approx(10)


def test_overlapping_children_are_covered_once():
    spans = _spans(("request", 0, 10, -1), ("a", 1, 6, 0), ("b", 4, 8, 0))
    assert tracing.self_times(spans)["request"] == pytest.approx(10 - 7)


def test_unattributed_is_the_wall_no_root_covers():
    spans = _spans(("x", 1, 3, -1), ("y", 2, 5, -1), ("z", 2, 3, 0))
    assert tracing.unattributed_s(spans, 0, int(10e9)) == pytest.approx(6)


def test_inclusive_time_counts_nested_same_name_once():
    spans = _spans(("infer", 0, 4, -1), ("infer", 1, 2, 0), ("infer", 6, 7, -1))
    assert tracing.inclusive_times(spans, "infer") == pytest.approx(5)


def test_wrapper_records_parent_and_operation():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    tracer.op_id = "cell-1"
    outer()
    (outer_span, inner_span) = sorted(tracer.spans, key=lambda s: s[tracing.START])
    assert outer_span[tracing.PARENT] == -1
    assert inner_span[tracing.PARENT] == tracer.spans.index(outer_span)
    assert inner_span[tracing.OP] == "cell-1"
    trace = tracing.chrome_trace(tracer.spans, {})
    assert {event["name"] for event in trace["traceEvents"]} == {"inner", "outer"}


def test_wrapper_cost_is_a_small_positive_time():
    assert 0.0 <= tracing.wrapper_cost_ns(calls=2000, repeats=3) < 1e6


# -- BENCHMARK.json -------------------------------------------------------
def _benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_the_catalog_wires_every_workload_and_layer_of_the_file():
    benchmark = _benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(catalog.WORKLOADS)
    assert [m["name"] for m in benchmark["per_layer"]] == list(catalog.MOVES)


def test_every_cross_reference_names_a_metric_and_workload():
    benchmark = _benchmark()
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    for layer, moves in catalog.MOVES.items():
        for metric, workload in moves:
            assert metric in end_to_end, (layer, metric)
            assert workload in workloads, (layer, workload)


def test_names_are_unique_and_setup_has_the_largest_bound():
    benchmark = _benchmark()
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for name, bound in bounds.items():
        assert name == "setup_s" or bound < bounds["setup_s"]
