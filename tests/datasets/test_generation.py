"""Tests for simulator-driven sample/dataset generation."""

import numpy as np
import pytest

from repro.datasets import GenerationConfig, SampleGenerator
from repro.geometry import planar_patch

from ..conftest import make_micro_generation_config


def test_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(num_frames=1)
    with pytest.raises(ValueError):
        GenerationConfig(distances_m=())


def test_two_frame_dataset_generates():
    """The smallest valid ``num_frames`` runs end to end."""
    dataset = SampleGenerator(GenerationConfig(num_frames=2), seed=0).generate_dataset(
        samples_per_class=1
    )
    assert dataset.x.shape == (6, 2, 32, 32)


def test_sample_shape(micro_generator, micro_generation_config):
    heatmaps = micro_generator.generate_sample("push", 1.0, 0.0)
    config = micro_generation_config
    assert heatmaps.shape == (config.num_frames, *config.heatmap.frame_shape)
    assert heatmaps.max() == pytest.approx(1.0)
    assert heatmaps.min() >= 0.0


def test_sample_meshes_share_topology(micro_generator):
    meshes = micro_generator.sample_meshes("pull", 1.0, 0.0)
    assert len({mesh.num_faces for mesh in meshes}) == 1


def test_attachment_rides_with_body(micro_generator):
    patch = planar_patch(0.05, 0.05).translated([0.0, -0.12, 0.1])
    with_trigger = micro_generator.sample_meshes(
        "push", 1.0, 0.0, attachment_mesh=patch
    )
    without = micro_generator.sample_meshes("push", 1.0, 0.0)
    assert with_trigger[0].num_faces == without[0].num_faces + patch.num_faces


def test_sway_makes_transforms_differ():
    generator = SampleGenerator(make_micro_generation_config(), seed=5)
    transforms = generator._frame_transforms(1.0, 0.0)
    translations = np.stack([t.translation for t in transforms])
    assert np.ptp(translations[:, 1]) > 0.001  # breathing along depth


def test_paired_sample_differs_only_by_trigger(micro_generator):
    patch = planar_patch(0.08, 0.08, reflectivity=5.0).translated([0.0, -0.13, 0.1])
    clean, triggered = micro_generator.generate_paired_sample(
        "push", 1.0, 0.0, patch
    )
    assert clean.shape == triggered.shape
    assert not np.allclose(clean, triggered)


def test_dataset_generation_counts(micro_generation_config):
    generator = SampleGenerator(micro_generation_config, seed=3)
    dataset = generator.generate_dataset(samples_per_class=2)
    assert len(dataset) == 12
    counts = np.bincount(dataset.y, minlength=6)
    assert (counts == 2).all()


def test_dataset_meta_positions_from_grid(micro_generation_config):
    generator = SampleGenerator(micro_generation_config, seed=3)
    dataset = generator.generate_dataset(samples_per_class=2)
    for meta in dataset.meta:
        assert meta.distance_m in micro_generation_config.distances_m
        assert meta.angle_deg in micro_generation_config.angles_deg
        assert not meta.has_trigger


def test_dataset_generation_validation(micro_generator):
    with pytest.raises(ValueError):
        micro_generator.generate_dataset(samples_per_class=0)


def test_generation_is_seed_reproducible(micro_generation_config):
    a = SampleGenerator(micro_generation_config, seed=9).generate_sample(
        "push", 1.0, 0.0
    )
    b = SampleGenerator(micro_generation_config, seed=9).generate_sample(
        "push", 1.0, 0.0
    )
    assert np.allclose(a, b)


def test_different_activities_produce_different_heatmaps(micro_generator):
    push = micro_generator.generate_sample("push", 1.0, 0.0)
    swipe = micro_generator.generate_sample("left_swipe", 1.0, 0.0)
    assert np.abs(push - swipe).mean() > 0.01


def test_environment_changes_with_seed():
    config = make_micro_generation_config(environment_objects=2)
    gen_a = SampleGenerator(config, seed=1, environment_seed=10)
    gen_b = SampleGenerator(config, seed=1, environment_seed=20)
    assert gen_a._environment_facets[0].num_facets > 0
    a = gen_a._environment_facets[0].delays.sum()
    b = gen_b._environment_facets[0].delays.sum()
    assert a != b


def test_return_cubes_shape(micro_generator, micro_generation_config):
    cubes = micro_generator.generate_sample("push", 1.0, 0.0, return_cubes=True)
    radar = micro_generation_config.radar
    assert cubes.shape == (micro_generation_config.num_frames, *radar.cube_shape)
    assert np.iscomplexobj(cubes)


def test_generation_config_rejects_bad_numeric_fields():
    import dataclasses

    import pytest

    from repro.datasets import GenerationConfig

    bad = [
        {"snr_db": float("nan")},
        {"environment_objects": -1},
        {"participants": ()},
        {"participants": (1.0, -0.5)},
        {"participants": (0.0,)},
        {"sway_amplitude_m": -0.001},
        {"breathing_amplitude_m": -0.001},
        {"sway_frequency_hz": -0.1},
        {"breathing_frequency_hz": -0.1},
        {"distances_m": (1.0, -0.5)},
    ]
    for overrides in bad:
        with pytest.raises(ValueError):
            GenerationConfig(**overrides)
    # zero amplitudes stay legal: the sway ablation sweeps down to 0.0
    config = dataclasses.replace(
        GenerationConfig(), sway_amplitude_m=0.0, breathing_amplitude_m=0.0
    )
    assert config.sway_amplitude_m == 0.0
