"""Tests for plain-text report formatting."""

import numpy as np

from repro.eval import (
    AblationResult,
    CleanPrototypeResult,
    DefenseResult,
    FrameImportanceExperimentResult,
    RobustnessResult,
    StealthResult,
    SweepResult,
    ThroughputResult,
    format_ablation,
    format_confusion_matrix,
    format_defense,
    format_full_sweep,
    format_histogram,
    format_robustness,
    format_stealth,
    format_sweep,
    format_throughput,
)
from repro.models import AttackMetrics
from repro.defense import DetectionReport


def test_format_confusion_matrix():
    result = CleanPrototypeResult(
        accuracy=0.99, confusion=np.eye(6, dtype=int) * 10, history_epochs=5
    )
    text = format_confusion_matrix(result)
    assert "99.00%" in text
    assert "Push" in text


def make_sweep():
    metrics = [AttackMetrics(0.5, 0.6, 0.9), AttackMetrics(0.8, 0.9, 0.88)]
    return SweepResult("injection_rate", (0.2, 0.4), {"push->pull": metrics})


def test_format_sweep_contains_values():
    text = format_sweep(make_sweep(), "asr")
    assert "push->pull" in text
    assert "50.00%" in text and "80.00%" in text


def test_sweep_series_accessor():
    sweep = make_sweep()
    assert sweep.series("push->pull", "asr") == [0.5, 0.8]
    assert sweep.series("push->pull", "cdr") == [0.9, 0.88]


def test_format_full_sweep_has_three_sections():
    text = format_full_sweep(make_sweep())
    assert "ASR" in text and "UASR" in text and "CDR" in text


def test_format_histogram():
    result = FrameImportanceExperimentResult(
        histogram=np.array([0, 3, 1]), mean_importance=np.zeros(3), num_samples=4
    )
    text = format_histogram(result)
    assert "frame  1:   3" in text
    assert text.count("#") >= 3


def test_format_stealth():
    result = StealthResult(
        deviation={"l2": 1.5, "max_abs": 0.3, "relative_l2": 0.12},
    )
    text = format_stealth(result)
    assert "0.3000" in text and "12.00%" in text


def test_format_robustness_marks_zero_shot():
    result = RobustnessResult(
        parameter_name="angle_deg",
        parameter_values=(0.0, 10.0),
        seen_mask=(True, False),
        asr=[1.0, 0.9],
        uasr=[1.0, 0.95],
    )
    text = format_robustness(result)
    assert "*" in text
    assert "100.00%" in text


def test_format_ablation_is_markdown_table():
    result = AblationResult(rows=[("With Optimal Frames and Positions", 0.84)])
    text = format_ablation(result)
    assert text.startswith("| Experiment |")
    assert "84%" in text


def test_format_throughput():
    result = ThroughputResult(
        seconds_per_pair_activity=0.01,
        seconds_per_activity=0.16,
        num_virtual_antennas=16,
        num_frames=32,
    )
    text = format_throughput(result)
    assert "16 virtual antennas" in text
    assert "0.87" in text  # paper reference point


def test_format_defense():
    result = DefenseResult(
        detector=DetectionReport(0.9, 0.8, 0.05, 0.93),
        asr_without_defense=0.8,
        asr_with_augmentation=0.2,
        cdr_with_augmentation=0.85,
    )
    text = format_defense(result)
    assert "80.0%" in text and "20.0%" in text
