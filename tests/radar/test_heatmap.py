"""Tests for the RDI/DRAI heatmap pipelines."""

import numpy as np
import pytest

from repro.geometry import planar_patch
from repro.radar import (
    AntennaArray,
    ChirpConfig,
    FmcwRadarSimulator,
    HeatmapConfig,
    RadarConfig,
    drai_sequence,
    heatmap_deviation,
    rdi_sequence,
)


@pytest.fixture(scope="module")
def sim() -> FmcwRadarSimulator:
    return FmcwRadarSimulator(
        RadarConfig(
            chirp=ChirpConfig(num_adc_samples=64, num_chirps=8),
            antennas=AntennaArray(num_tx=2, num_rx=4),
        )
    )


@pytest.fixture(scope="module")
def config() -> HeatmapConfig:
    return HeatmapConfig(range_bin_start=16, range_bin_stop=32, num_angle_bins=16)


def _moving_target_cubes(sim, n_frames=6, step=0.03):
    cubes = []
    for t in range(n_frames):
        mesh = planar_patch(0.05, 0.05).translated([0.0, 1.0 + step * t, 0.0])
        cubes.append(sim.frame_cube(mesh))
    return np.stack(cubes)


def test_config_validation():
    with pytest.raises(ValueError):
        HeatmapConfig(range_bin_start=10, range_bin_stop=10)
    with pytest.raises(ValueError):
        HeatmapConfig(num_angle_bins=1)
    with pytest.raises(ValueError):
        HeatmapConfig(clutter_removal="fancy")


def test_frame_shape_property(config):
    assert config.frame_shape == (16, 16)
    assert config.num_range_bins == 16


def test_range_axis(config):
    chirp = ChirpConfig()
    axis = config.range_axis_m(chirp)
    assert axis.shape == (16,)
    assert axis[0] == pytest.approx(16 * chirp.range_resolution_m)


def test_drai_sequence_shape_and_range(sim, config):
    cubes = _moving_target_cubes(sim)
    heatmaps = drai_sequence(cubes, config)
    assert heatmaps.shape == (6, 16, 16)
    assert heatmaps.max() == pytest.approx(1.0)
    assert heatmaps.min() >= 0.0


def test_drai_tracks_moving_target(sim, config):
    # Keep the receding target inside the 16-bin range crop.
    cubes = _moving_target_cubes(sim, n_frames=8, step=0.02)
    heatmaps = drai_sequence(cubes, config)
    range_peaks = [int(frame.sum(axis=1).argmax()) for frame in heatmaps]
    # The target recedes: peak range bin increases across the sequence.
    assert range_peaks[-1] > range_peaks[0]


def test_background_subtraction_removes_static_target(sim, config):
    static = planar_patch(0.2, 0.2).translated([0.3, 1.1, 0.0])
    static_cube = sim.frame_cube(static)
    cubes = _moving_target_cubes(sim) + static_cube[None]
    heatmaps = drai_sequence(cubes, config)
    no_static = drai_sequence(_moving_target_cubes(sim), config)
    # The static plate's cell stays quiet: heatmaps with and without it
    # are nearly identical after background subtraction + median.
    assert np.abs(heatmaps - no_static).max() < 0.25


def test_clutter_removal_none_keeps_static_target(sim):
    config = HeatmapConfig(
        range_bin_start=16, range_bin_stop=32, num_angle_bins=16,
        clutter_removal="none", dynamic_median=False,
    )
    static = planar_patch(0.2, 0.2).translated([0.0, 1.1, 0.0])
    cubes = np.stack([sim.frame_cube(static)] * 4)
    heatmaps = drai_sequence(cubes, config)
    assert heatmaps.max() == pytest.approx(1.0)
    peak_bin = int(heatmaps[0].sum(axis=1).argmax())
    assert peak_bin == ChirpConfig().range_bin_for(1.1) - config.range_bin_start


def test_normalize_false_returns_linear(sim, config):
    from dataclasses import replace

    raw_config = replace(config, normalize=False)
    cubes = _moving_target_cubes(sim)
    heatmaps = drai_sequence(cubes, raw_config)
    assert heatmaps.max() > 10.0  # unnormalized linear magnitudes


def test_rdi_sequence_shape(sim, config):
    cubes = _moving_target_cubes(sim)
    rdi = rdi_sequence(cubes, config)
    assert rdi.shape == (6, 16, 8)  # (frames, range bins, chirps)
    assert rdi.max() == pytest.approx(1.0)


def test_heatmap_deviation_metrics():
    clean = np.zeros((2, 4, 4))
    poisoned = clean.copy()
    poisoned[0, 1, 1] = 0.5
    dev = heatmap_deviation(clean, poisoned)
    assert dev["max_abs"] == pytest.approx(0.5)
    assert dev["l2"] == pytest.approx(0.5)
    assert dev["relative_l2"] == 0.0  # clean norm is zero


def test_heatmap_deviation_shape_mismatch():
    with pytest.raises(ValueError):
        heatmap_deviation(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))


def test_angle_axis_flip_puts_positive_x_on_right(sim, config):
    left = planar_patch(0.05, 0.05).translated([-0.4, 1.0, 0.0])
    right = planar_patch(0.05, 0.05).translated([0.4, 1.0, 0.0])
    config_raw = HeatmapConfig(
        range_bin_start=16, range_bin_stop=32, num_angle_bins=16,
        clutter_removal="none", dynamic_median=False,
    )
    def angle_peak(mesh):
        heatmap = drai_sequence(np.stack([sim.frame_cube(mesh)]), config_raw)[0]
        return int(heatmap.sum(axis=0).argmax())

    assert angle_peak(right) > angle_peak(left)
