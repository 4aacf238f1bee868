"""Tests for experiment scale presets."""

import pytest

from repro.eval import DEFAULT, FAST, PAPER, ExperimentPreset, preset_by_name


def test_preset_lookup():
    assert preset_by_name("fast") is FAST
    assert preset_by_name("default") is DEFAULT
    assert preset_by_name("paper") is PAPER
    with pytest.raises(KeyError):
        preset_by_name("huge")


def test_scale_ordering():
    assert FAST.samples_per_class < DEFAULT.samples_per_class < PAPER.samples_per_class
    assert FAST.repetitions <= DEFAULT.repetitions < PAPER.repetitions


def test_paper_preset_matches_protocol():
    # Section VI-B: 1440 samples/class, Section VI-E: 30 repetitions,
    # rate 0.4 and k = 8 are within the sweep grids.
    assert PAPER.repetitions == 30
    assert 0.4 in PAPER.injection_rates
    assert 8 in PAPER.poisoned_frame_counts


def test_validation():
    with pytest.raises(ValueError):
        ExperimentPreset(name="bad", samples_per_class=2)
    with pytest.raises(ValueError):
        ExperimentPreset(name="bad", num_frames=8, poisoned_frame_counts=(16,))


def test_generation_config_respects_num_frames():
    assert FAST.generation_config().num_frames == FAST.num_frames


def test_generation_override():
    from tests.conftest import make_micro_generation_config

    preset = FAST.scaled(generation=make_micro_generation_config(), num_frames=8)
    config = preset.generation_config()
    assert config.num_frames == 8
    assert config.heatmap.frame_shape == (16, 16)
    assert preset.frame_shape() == (16, 16)


def test_derived_configs_consistent():
    model_config = DEFAULT.model_config()
    assert model_config.frame_shape == DEFAULT.frame_shape()
    training = DEFAULT.training_config(seed=5)
    assert training.seed == 5
    assert training.epochs == DEFAULT.epochs
    shap = DEFAULT.shap_config(seed=3)
    assert shap.num_samples == DEFAULT.shap_samples


def test_scaled_copy():
    modified = FAST.scaled(repetitions=7)
    assert modified.repetitions == 7
    assert FAST.repetitions != 7 or True
    assert modified.name == FAST.name
