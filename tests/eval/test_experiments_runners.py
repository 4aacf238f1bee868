"""Micro-scale tests for the remaining experiment runners.

These exercise the robustness, ablation, frame-sweep and defense runners
end to end at the micro preset — each involves real (tiny) trainings, so
they are the slowest tests in the suite, but they are the only coverage of
the figure-14/15/Table-I/Section-VII code paths.
"""

import pytest

from repro.datasets import SIMILAR_SCENARIOS
from repro.eval import FAST, ExperimentContext
from repro.eval.experiments import (
    ABLATION_CONFIGURATIONS,
    run_ablation,
    run_angle_robustness,
    run_defenses,
    run_distance_robustness,
    run_frame_importance,
    run_poisoned_frames_sweep,
    run_spectral_defense,
)

from ..conftest import make_micro_generation_config

MICRO_PRESET = FAST.scaled(
    generation=make_micro_generation_config(),
    num_frames=8,
    samples_per_class=4,
    attacker_samples_per_class=4,
    epochs=2,
    patience=2,
    repetitions=1,
    num_attack_samples=4,
    shap_samples=24,
    num_shap_executions=1,
    injection_rates=(0.5,),
    poisoned_frame_counts=(2, 4),
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache-runners"))
    return ExperimentContext(MICRO_PRESET, seed=1)


def test_run_poisoned_frames_sweep(ctx):
    sweep = run_poisoned_frames_sweep(
        ctx, (SIMILAR_SCENARIOS[0],), frame_counts=(2, 4)
    )
    assert sweep.parameter_values == (2.0, 4.0)
    metrics = sweep.curves["push->pull"]
    assert len(metrics) == 2
    for m in metrics:
        assert 0.0 <= m.asr <= 1.0


def test_run_angle_robustness(ctx):
    result = run_angle_robustness(ctx, samples_per_position=2)
    assert len(result.asr) == 7
    assert len(result.seen_mask) == 7
    # Seen angles per the paper protocol: -30, 0, 30.
    assert sum(result.seen_mask) == 3
    assert all(0.0 <= a <= 1.0 for a in result.asr)
    assert all(u >= a - 1e-9 for u, a in zip(result.uasr, result.asr))


def test_run_distance_robustness(ctx):
    result = run_distance_robustness(ctx, samples_per_position=2)
    assert len(result.asr) == 7
    assert sum(result.seen_mask) == 4  # 0.8, 1.2, 1.6, 2.0


def test_run_ablation_rows(ctx):
    result = run_ablation(ctx)
    labels = [label for label, _ in result.rows]
    assert labels == [label for label, *_ in ABLATION_CONFIGURATIONS]
    assert all(0.0 <= asr <= 1.0 for _, asr in result.rows)


def test_run_defenses(ctx):
    result = run_defenses(ctx)
    assert 0.0 <= result.detector.auc <= 1.0
    assert 0.0 <= result.asr_with_augmentation <= 1.0
    assert 0.0 <= result.cdr_with_augmentation <= 1.0


def test_run_frame_importance_histogram_sums(ctx):
    result = run_frame_importance(ctx, samples_per_activity=1)
    assert result.histogram.sum() == result.num_samples
    assert result.mean_importance.shape == (MICRO_PRESET.num_frames,)


def test_run_spectral_defense(ctx):
    result = run_spectral_defense(ctx, injection_rate=0.5, num_poisoned_frames=2)
    assert 0.0 <= result.poison_recall <= 1.0
    # Micro classes are below min_class_size, so removal may be zero —
    # the defense must never remove more than it scored.
    assert 0.0 <= result.removed_fraction < 1.0
    assert 0.0 <= result.asr_after <= 1.0
    assert 0.0 <= result.cdr_after <= 1.0


def test_run_trigger_size_sweeps(ctx):
    from repro.eval.experiments import (
        run_trigger_size_frames_sweep,
        run_trigger_size_injection_sweep,
    )

    injection = run_trigger_size_injection_sweep(ctx)
    assert set(injection.curves) == {"2x2", "4x4"}
    assert injection.parameter_values == MICRO_PRESET.injection_rates
    frames = run_trigger_size_frames_sweep(ctx)
    assert set(frames.curves) == {"2x2", "4x4"}
    for curve in frames.curves.values():
        assert len(curve) == len(MICRO_PRESET.poisoned_frame_counts)
