"""Tests for the design-choice ablations."""

import numpy as np
import pytest

from repro.datasets import SampleGenerator
from repro.eval import ablations
from repro.eval.ablations import (
    ablate_clutter_removal,
    ablate_shap_estimators,
    ablate_specular_gain,
    ablate_sway_amplitude,
    format_clutter_ablation,
    format_shap_ablation,
    format_specular_ablation,
    format_sway_ablation,
)
from repro.geometry import HumanModel

from ..conftest import make_micro_generation_config


def test_clutter_removal_ablation(micro_generator):
    result = ablate_clutter_removal(micro_generator, tolerance_bins=3)
    scores = dict(result.rows)
    assert set(scores) == {"background+median", "background", "mti", "none"}
    # The shipped default must track the hand at least as well as raw maps.
    assert scores["background+median"] >= scores["none"]
    assert all(0.0 <= s <= 1.0 for s in scores.values())
    text = format_clutter_ablation(result)
    assert "best:" in text


def test_clutter_truth_is_the_simulated_hand(micro_generation_config, monkeypatch):
    """The tracking truth is the hand sphere of the execution simulated."""
    generator = SampleGenerator(micro_generation_config, seed=0)
    scenes, simulated, truths = [], [], []
    sample_scene = generator.sample_scene
    simulate = generator.simulator.simulate_sequence
    hand_range_bins = ablations._hand_range_bins
    monkeypatch.setattr(
        generator, "sample_scene", lambda *a, **k: scenes.append(a) or sample_scene(*a, **k)
    )
    monkeypatch.setattr(
        generator.simulator, "simulate_sequence",
        lambda meshes, **k: simulated.append(meshes) or simulate(meshes, **k),
    )
    monkeypatch.setattr(
        ablations, "_hand_range_bins",
        lambda *a: truths.append(hand_range_bins(*a)) or truths[-1],
    )
    ablate_clutter_removal(generator, activity="push", distance_m=1.0)
    assert len(scenes) == len(simulated) == len(truths) == 1
    chirp = micro_generation_config.radar.chirp
    start = micro_generation_config.heatmap.range_bin_start
    hand = HumanModel().hand_vertices
    expected = [
        chirp.range_bin_for(float(np.linalg.norm(mesh.vertices[hand], axis=1).min())) - start
        for mesh in simulated[0]
    ]
    assert truths[0].tolist() == expected


def test_sway_ablation_monotone_onset():
    config = make_micro_generation_config()
    result = ablate_sway_amplitude(config, amplitudes_m=(0.0, 0.004), seed=0)
    # Zero micro-motion -> (almost) nothing survives clutter removal;
    # millimeter motion -> strong residual.  This is the effect that makes
    # body-worn triggers visible at all.
    assert result.residual_energy[1] > 2.0 * max(result.residual_energy[0], 1e-9)
    assert "mm" in format_sway_ablation(result)


def test_specular_gain_ablation_monotone(micro_generator):
    result = ablate_specular_gain(micro_generator, gains=(1.0, 15.0))
    assert result.relative_l2[1] > result.relative_l2[0]
    assert "gain" in format_specular_ablation(result)


def test_shap_estimator_ablation(trained_micro_model, micro_dataset):
    features = trained_micro_model.frame_features(micro_dataset.x[:1])[0]
    result = ablate_shap_estimators(
        trained_micro_model, features, budgets=(32, 128), class_index=0
    )
    assert len(result.agreement) == 2
    # Agreement improves (or stays high) with budget.
    assert result.agreement[1] >= result.agreement[0] - 0.2
    assert all(t > 0 for t in result.kernel_seconds)
    assert "corr" in format_shap_ablation(result)
