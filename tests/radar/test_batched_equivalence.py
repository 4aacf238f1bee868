"""Equivalence pins: the batched fast paths vs the per-frame references.

The batched sequence simulator and the batched heatmap chain are allowed
to differ from the per-frame reference only by single-precision rounding.
These tests pin that contract with tight tolerances and explicit output
dtype assertions, so a future "optimization" that changes the science
fails here rather than silently shifting every generated dataset.
"""

import numpy as np
import pytest

from repro.geometry.human import HumanModel, TrajectoryStyle, hand_trajectory
from repro.geometry.primitives import uv_sphere
from repro.radar.heatmap import (
    HeatmapConfig,
    drai_sequence,
    drai_sequence_reference,
    rdi_sequence,
)
from repro.radar.processing import (
    angle_fft,
    angle_fft_sequence,
    doppler_fft_sequence,
    range_fft,
    range_fft_sequence,
)
from repro.radar.simulator import FmcwRadarSimulator

from .oracles import doppler_fft, rdi_sequence_reference


@pytest.fixture(scope="module")
def pose_meshes():
    model = HumanModel()
    trajectory = hand_trajectory("push", 8, TrajectoryStyle())
    meshes = model.pose_sequence(trajectory)
    return [mesh.translated(np.array([0.0, 1.2, 0.0])) for mesh in meshes]


@pytest.fixture(scope="module")
def simulator():
    return FmcwRadarSimulator()


def _relative_error(fast, reference):
    scale = np.abs(reference).max()
    assert scale > 0.0
    return np.abs(fast.astype(np.complex128) - reference.astype(np.complex128)).max() / scale


class TestSequenceSimulator:
    def test_batched_matches_reference_tightly(self, simulator, pose_meshes):
        reference = simulator.simulate_sequence_reference(pose_meshes)
        batched = simulator.simulate_sequence(pose_meshes)
        assert batched.dtype == np.complex64
        assert reference.dtype == np.complex64
        assert batched.shape == reference.shape
        assert _relative_error(batched, reference) < 5e-6

    def test_static_sequences_match(self, simulator, pose_meshes):
        reference = simulator.simulate_sequence_reference(
            pose_meshes, estimate_velocities=False
        )
        batched = simulator.simulate_sequence(
            pose_meshes, estimate_velocities=False
        )
        assert batched.dtype == np.complex64
        assert _relative_error(batched, reference) < 5e-6

    def test_extra_facets_match(self, simulator, pose_meshes):
        clutter = uv_sphere(0.3, reflectivity=0.4).translated(
            np.array([1.0, 2.0, 0.0])
        )
        extras = [simulator.facet_set(clutter)]
        reference = simulator.simulate_sequence_reference(
            pose_meshes, extra_facets=extras
        )
        batched = simulator.simulate_sequence(pose_meshes, extra_facets=extras)
        assert _relative_error(batched, reference) < 5e-6

    def test_mixed_topology_falls_back_to_reference_exactly(self, simulator):
        # Different face counts per frame: the batched precondition fails,
        # so simulate_sequence must run the per-frame path bit-identically.
        offset = np.array([0.0, 1.5, 0.0])
        meshes = [
            uv_sphere(0.3, segments=8).translated(offset),
            uv_sphere(0.3, segments=10).translated(offset),
        ]
        reference = simulator.simulate_sequence_reference(
            meshes, estimate_velocities=False
        )
        fallback = simulator.simulate_sequence(meshes, estimate_velocities=False)
        assert np.array_equal(fallback, reference)

    def test_velocities_change_the_result(self, simulator, pose_meshes):
        moving = simulator.simulate_sequence(pose_meshes)
        static = simulator.simulate_sequence(
            pose_meshes, estimate_velocities=False
        )
        assert not np.allclose(moving, static)


class TestSequenceKernels:
    @pytest.fixture(scope="class")
    def cubes(self, simulator, pose_meshes):
        return simulator.simulate_sequence(pose_meshes)

    def test_range_fft_sequence(self, cubes):
        batched = range_fft_sequence(cubes)
        reference = np.stack([range_fft(cube) for cube in cubes])
        assert batched.dtype == np.complex64
        assert _relative_error(batched, reference) < 1e-5

    def test_doppler_fft_sequence(self, cubes):
        profiles = range_fft_sequence(cubes)
        batched = doppler_fft_sequence(profiles)
        reference = np.stack([doppler_fft(profile) for profile in profiles])
        assert batched.dtype == np.complex64
        assert _relative_error(batched, reference) < 1e-5

    def test_angle_fft_sequence(self, cubes):
        profiles = range_fft_sequence(cubes)
        batched = angle_fft_sequence(profiles, 32)
        reference = np.stack([angle_fft(profile, 32) for profile in profiles])
        assert batched.dtype == np.complex64
        assert _relative_error(batched, reference) < 1e-5

    def test_angle_fft_sequence_rejects_too_few_bins(self, cubes):
        profiles = range_fft_sequence(cubes)
        with pytest.raises(ValueError):
            angle_fft_sequence(profiles, profiles.shape[-1] - 1)

    def test_sequence_tensor_shape_is_validated(self, cubes):
        with pytest.raises(ValueError):
            range_fft_sequence(cubes[0])


class TestHeatmapChain:
    @pytest.fixture(scope="class")
    def cubes(self, simulator, pose_meshes):
        return simulator.simulate_sequence(pose_meshes)

    @pytest.mark.parametrize("clutter", ["background", "mti", "none"])
    def test_drai_matches_reference(self, cubes, clutter):
        config = HeatmapConfig(clutter_removal=clutter)
        batched = drai_sequence(cubes, config)
        reference = drai_sequence_reference(cubes, config)
        assert batched.dtype == np.float32
        assert reference.dtype == np.float64
        assert batched.shape == reference.shape
        # Normalized heatmaps live in [0, 1]; absolute tolerance is the
        # natural metric.
        assert np.abs(batched - reference).max() < 2e-4

    def test_rdi_matches_reference(self, cubes):
        batched = rdi_sequence(cubes)
        reference = rdi_sequence_reference(cubes)
        assert batched.dtype == np.float32
        assert batched.shape == reference.shape
        assert np.abs(batched - reference).max() < 2e-4

    def test_unnormalized_drai_matches_reference(self, cubes):
        config = HeatmapConfig(normalize=False)
        batched = drai_sequence(cubes, config)
        reference = drai_sequence_reference(cubes, config)
        assert batched.dtype == np.float32
        assert np.isfinite(batched).all()
        assert (batched >= 0.0).all()
        assert _relative_error(batched, reference) < 1e-5
