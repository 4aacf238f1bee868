"""Golden pins of :func:`cell_payload`, one per experiment result type.

Each expected string is the JSON that the per-type mapping produced for
the same fixed-value result before it became one generic mapping over
the result's fields, copied in as a literal.  Journal entries, campaign
records and run records all store this payload, so a change here moves
every stored number's bytes.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.campaigns import cell_payload
from repro.defense.detector import DetectionReport
from repro.eval.experiments import (
    WALL_CLOCK,
    AblationResult,
    CleanPrototypeResult,
    DefenseResult,
    FrameImportanceExperimentResult,
    RobustnessResult,
    SpectralDefenseResult,
    StealthResult,
    SweepResult,
    ThroughputResult,
)
from repro.models.metrics import AttackMetrics

GOLDEN = [
    (
        ThroughputResult(
            seconds_per_pair_activity=0.015625, seconds_per_activity=1.25,
            num_virtual_antennas=80, num_frames=16,
        ),
        '{"metrics": {"num_virtual_antennas": 80, "num_frames": 16}, '
        '"measured": {"seconds_per_pair_activity": 0.015625, '
        '"seconds_per_activity": 1.25}}',
    ),
    (
        CleanPrototypeResult(
            accuracy=np.float64(0.8333333333333334),
            confusion=np.array([[2, 1], [0, 3]], dtype=np.int64),
            history_epochs=24,
        ),
        '{"metrics": {"accuracy": 0.8333333333333334, '
        '"confusion": [[2, 1], [0, 3]], "history_epochs": 24}, '
        '"measured": {}}',
    ),
    (
        FrameImportanceExperimentResult(
            histogram=np.array([0, 3, 1], dtype=np.int64),
            mean_importance=np.array([0.125, 0.5, 0.1], dtype=np.float32),
            num_samples=4,
        ),
        '{"metrics": {"histogram": [0, 3, 1], '
        '"mean_importance": [0.125, 0.5, 0.10000000149011612], '
        '"num_samples": 4}, "measured": {}}',
    ),
    (
        StealthResult(deviation={
            "max_abs": np.float32(0.25), "l2": np.float64(1.5),
            "relative_l2": 0.0625,
        }),
        '{"metrics": {"deviation": {"max_abs": 0.25, "l2": 1.5, '
        '"relative_l2": 0.0625}}, "measured": {}}',
    ),
    (
        SweepResult(
            "injection_rate", (0.1, np.float64(0.4)),
            {"push->pull": [
                AttackMetrics(0.25, np.float64(0.5), 0.75),
                AttackMetrics(0.5, 0.625, 0.7142857142857143),
            ]},
        ),
        '{"metrics": {"parameter_name": "injection_rate", '
        '"parameter_values": [0.1, 0.4], "curves": {"push->pull": '
        '[{"asr": 0.25, "uasr": 0.5, "cdr": 0.75}, '
        '{"asr": 0.5, "uasr": 0.625, "cdr": 0.7142857142857143}]}}, '
        '"measured": {}}',
    ),
    (
        RobustnessResult(
            "angle_deg", (-30.0, 0.0, 45.0), (True, True, False),
            [0.5, np.float64(0.25), 0.0], [0.75, 0.5, np.float64(1 / 3)],
        ),
        '{"metrics": {"parameter_name": "angle_deg", '
        '"parameter_values": [-30.0, 0.0, 45.0], '
        '"seen_mask": [true, true, false], "asr": [0.5, 0.25, 0.0], '
        '"uasr": [0.75, 0.5, 0.3333333333333333]}, "measured": {}}',
    ),
    (
        AblationResult(rows=[
            ("With Optimal Frames and Positions", np.float64(0.5833333333333334)),
            ("Without Optimal Frames", 0.25),
        ]),
        '{"metrics": {"rows": [["With Optimal Frames and Positions", '
        '0.5833333333333334], ["Without Optimal Frames", 0.25]]}, '
        '"measured": {}}',
    ),
    (
        DefenseResult(
            detector=DetectionReport(
                np.float64(0.9), 0.8, 0.05, np.float64(0.9375)
            ),
            asr_without_defense=np.float64(0.4166666666666667),
            asr_with_augmentation=0.08333333333333333,
            cdr_with_augmentation=np.float64(0.7857142857142857),
        ),
        '{"metrics": {"detector": {"accuracy": 0.9, '
        '"true_positive_rate": 0.8, "false_positive_rate": 0.05, '
        '"auc": 0.9375}, "asr_without_defense": 0.4166666666666667, '
        '"asr_with_augmentation": 0.08333333333333333, '
        '"cdr_with_augmentation": 0.7857142857142857}, "measured": {}}',
    ),
    (
        SpectralDefenseResult(
            poison_recall=np.float64(0.75), removed_fraction=0.2,
            asr_before=0.5, asr_after=np.float64(0.16666666666666666),
            cdr_after=0.8095238095238095,
        ),
        '{"metrics": {"poison_recall": 0.75, "removed_fraction": 0.2, '
        '"asr_before": 0.5, "asr_after": 0.16666666666666666, '
        '"cdr_after": 0.8095238095238095}, "measured": {}}',
    ),
]


@pytest.mark.parametrize(
    ("result", "expected"), GOLDEN,
    ids=[type(result).__name__ for result, _ in GOLDEN],
)
def test_payload_bytes_are_pinned(result, expected):
    assert json.dumps(cell_payload(result)) == expected


def test_a_new_result_field_needs_no_mapping_edit():
    """Any result dataclass maps field by field: nested dataclasses,
    arrays and tuples included, and a WALL_CLOCK field goes under
    ``measured``."""

    @dataclass
    class NewResult:
        curve: AttackMetrics
        frames: "tuple[int, ...]"
        weights: np.ndarray
        seconds: float = field(metadata=WALL_CLOCK)

    payload = cell_payload(NewResult(
        AttackMetrics(0.5, 0.75, 1.0), (3, 1), np.array([0.5, 0.25]), 2.5
    ))
    assert payload == {
        "metrics": {
            "curve": {"asr": 0.5, "uasr": 0.75, "cdr": 1.0},
            "frames": [3, 1],
            "weights": [0.5, 0.25],
        },
        "measured": {"seconds": 2.5},
    }
    # The result class itself is not a result.
    with pytest.raises(TypeError):
        cell_payload(NewResult)
