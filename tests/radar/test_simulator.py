"""Tests for the Eq. 3 IF-signal simulator.

The key physics checks: a point-like target lands in the predicted
Range-FFT bin, amplitudes follow the 1/(d_T d_R) law, angles map to the
correct Angle-FFT bins, and the fast separable path agrees with the exact
per-chirp reference on moving scenes.
"""

import numpy as np
import pytest

from repro.geometry import planar_patch, uv_sphere
from repro.radar import (
    AntennaArray,
    ChirpConfig,
    FacetSet,
    FmcwRadarSimulator,
    RadarConfig,
    angle_fft,
    range_fft,
)

from .oracles import frame_cube_exact


@pytest.fixture(scope="module")
def simulator() -> FmcwRadarSimulator:
    config = RadarConfig(
        chirp=ChirpConfig(num_adc_samples=64, num_chirps=8),
        antennas=AntennaArray(num_tx=2, num_rx=4),
    )
    return FmcwRadarSimulator(config)


def _target_at(distance: float, x: float = 0.0, size: float = 0.05):
    return planar_patch(size, size).translated([x, distance, 0.0])


def test_cube_shape(simulator):
    cube = simulator.frame_cube(_target_at(1.0))
    assert cube.shape == simulator.config.cube_shape
    assert cube.dtype == np.complex64


def test_point_target_range_bin(simulator):
    chirp = simulator.config.chirp
    for distance in (0.6, 1.2, 1.8):
        cube = simulator.frame_cube(_target_at(distance))
        profile = np.abs(range_fft(cube)).sum(axis=(1, 2))
        peak = int(profile.argmax())
        assert peak == pytest.approx(chirp.range_bin_for(distance), abs=1)


def test_amplitude_follows_inverse_square_law(simulator):
    near = simulator.frame_cube(_target_at(0.8))
    far = simulator.frame_cube(_target_at(1.6))
    ratio = np.abs(near).max() / np.abs(far).max()
    # Two-way 1/(d_T * d_R): doubling range quarters the amplitude.
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_larger_facets_reflect_more(simulator):
    small = simulator.frame_cube(_target_at(1.0, size=0.05))
    large = simulator.frame_cube(_target_at(1.0, size=0.10))
    assert np.abs(large).max() > 2.0 * np.abs(small).max()


def test_reflectivity_scales_signal(simulator):
    dim = _target_at(1.0).with_reflectivity(0.2)
    bright = _target_at(1.0).with_reflectivity(0.8)
    ratio = np.abs(simulator.frame_cube(bright)).max() / np.abs(
        simulator.frame_cube(dim)
    ).max()
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_angle_bin_tracks_azimuth(simulator):
    def peak_angle_bin(x):
        cube = simulator.frame_cube(_target_at(1.2, x=x))
        profile = range_fft(cube)
        spectrum = np.abs(angle_fft(profile, 32)).sum(axis=(0, 1))
        return int(spectrum.argmax())

    center = peak_angle_bin(0.0)
    left = peak_angle_bin(-0.5)
    right = peak_angle_bin(0.5)
    assert left != right
    assert min(left, right) < center < max(left, right)


def test_backside_target_invisible(simulator):
    # The patch faces -y; flip it away from the radar and nothing returns.
    from repro.geometry import RigidTransform

    patch = planar_patch(0.05, 0.05)
    flipped = patch.transformed(
        RigidTransform(rotation=np.diag([1.0, -1.0, -1.0]))
    ).translated([0.0, 1.0, 0.0])
    cube = simulator.frame_cube(flipped)
    assert np.abs(cube).max() == pytest.approx(0.0)


def test_empty_scene_returns_zeros(simulator):
    from repro.geometry import TriangleMesh

    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    cube = simulator.frame_cube(empty)
    assert np.abs(cube).max() == 0.0


def test_facet_set_shapes(simulator):
    facets = simulator.facet_set(_target_at(1.0))
    k = simulator.config.antennas.num_virtual
    assert facets.amplitudes.shape == (facets.num_facets, k)
    assert facets.delays.shape == (facets.num_facets, k)
    assert (facets.delay_rates == 0.0).all()


def test_empty_facet_set():
    empty = FacetSet.empty(8)
    assert empty.num_facets == 0


def test_doppler_phase_from_velocity(simulator):
    mesh = _target_at(1.0)
    velocity = np.tile([0.0, -1.0, 0.0], (mesh.num_faces, 1))  # toward radar
    facets = simulator.facet_set(mesh, velocities=velocity)
    # Approaching target shortens the round trip: negative delay rate.
    assert (facets.delay_rates < 0.0).all()
    cube_static = simulator.frame_cube(mesh)
    cube_moving = simulator.frame_cube(mesh, velocities=velocity)
    # Chirp-to-chirp phase rotates for the mover, not for the static target.
    static_phase = np.angle(cube_static[0, :, 0])
    moving_phase = np.angle(cube_moving[0, :, 0])
    assert np.allclose(np.diff(static_phase), 0.0, atol=1e-4)
    assert not np.allclose(np.diff(moving_phase), 0.0, atol=1e-3)


def test_exact_matches_separable_static(simulator):
    mesh = uv_sphere(0.1, rings=4, segments=6).translated([0.2, 1.1, 0.0])
    fast = simulator.frame_cube(mesh)
    exact = frame_cube_exact(simulator, mesh)
    error = np.abs(fast - exact).max() / np.abs(exact).max()
    # The separable path evaluates the beat term at the channel-averaged
    # delay; per-channel beat offsets over the ~1.5 cm array span cost a
    # few percent worst-case amplitude (far below a range bin).
    assert error < 0.10


def test_exact_matches_separable_moving(simulator):
    mesh = uv_sphere(0.1, rings=4, segments=6).translated([0.0, 1.0, 0.0])
    velocities = np.tile([0.0, -0.5, 0.0], (mesh.num_faces, 1))
    fast = simulator.frame_cube(mesh, velocities=velocities)
    exact = frame_cube_exact(simulator, mesh, velocities=velocities)
    error = np.abs(fast - exact).max() / np.abs(exact).max()
    # Adds intra-frame range drift (< 1/30 bin at 0.5 m/s) on top of the
    # per-channel beat-delay approximation checked above.
    assert error < 0.15


def test_sequence_velocities_require_constant_topology(simulator):
    a = uv_sphere(0.1, rings=4, segments=6).translated([0.0, 1.0, 0.0])
    b = uv_sphere(0.1, rings=5, segments=6).translated([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        simulator.sequence_velocities([a, b])


def test_simulate_sequence_shape(simulator):
    meshes = [
        uv_sphere(0.1, rings=4, segments=6).translated([0.0, 1.0 + 0.01 * t, 0.0])
        for t in range(5)
    ]
    cubes = simulator.simulate_sequence(meshes)
    assert cubes.shape == (5, *simulator.config.cube_shape)


def test_simulate_sequence_with_static_extras(simulator):
    meshes = [uv_sphere(0.1, rings=4, segments=6).translated([0.0, 1.0, 0.0])] * 3
    clutter = simulator.facet_set(_target_at(2.0))
    with_extras = simulator.simulate_sequence(meshes, extra_facets=[clutter])
    without = simulator.simulate_sequence(meshes)
    assert np.abs(with_extras - without).max() > 0.0


def test_empty_sequence_rejected(simulator):
    with pytest.raises(ValueError):
        simulator.simulate_sequence([])


# ----------------------------------------------------------------------
# Adaptive chunk facet budget
# ----------------------------------------------------------------------

def test_facet_budget_scales_with_cores(monkeypatch):
    from repro.radar import simulator as sim

    monkeypatch.delenv("REPRO_FACET_BUDGET", raising=False)
    monkeypatch.setattr(sim, "blas_threads", lambda: 2)
    assert sim.chunk_facet_budget() == sim._BASE_FACET_BUDGET * 2
    # Without BLAS thread control the usable cores stand in.
    monkeypatch.setattr(sim, "blas_threads", lambda: None)
    monkeypatch.setattr(sim, "usable_cores", lambda: 1)
    assert sim.chunk_facet_budget() == sim._BASE_FACET_BUDGET
    monkeypatch.setattr(sim, "usable_cores", lambda: 3)
    assert sim.chunk_facet_budget() == sim._BASE_FACET_BUDGET * 3


def test_facet_budget_clamped_to_bounds(monkeypatch):
    from repro.radar import simulator as sim

    monkeypatch.delenv("REPRO_FACET_BUDGET", raising=False)
    monkeypatch.setattr(sim, "blas_threads", lambda: 1024)
    assert sim.chunk_facet_budget() == sim._MAX_FACET_BUDGET


def test_facet_budget_env_override_and_clamp(monkeypatch):
    from repro.radar import simulator as sim

    monkeypatch.setenv("REPRO_FACET_BUDGET", "8192")
    assert sim.chunk_facet_budget() == 8192
    monkeypatch.setenv("REPRO_FACET_BUDGET", "1")
    assert sim.chunk_facet_budget() == sim._MIN_FACET_BUDGET
    monkeypatch.setenv("REPRO_FACET_BUDGET", str(10 ** 9))
    assert sim.chunk_facet_budget() == sim._MAX_FACET_BUDGET


def test_facet_budget_ignores_malformed_override(monkeypatch):
    from repro.radar import simulator as sim

    monkeypatch.setenv("REPRO_FACET_BUDGET", "not-a-number")
    monkeypatch.setattr(sim, "blas_threads", lambda: 1)
    assert sim.chunk_facet_budget() == sim._BASE_FACET_BUDGET


def test_facet_budget_does_not_change_simulation(simulator, monkeypatch):
    """The budget is a pure chunking knob: output bytes are invariant."""
    meshes = [
        uv_sphere(0.1, rings=4, segments=6).translated([0.0, 1.0 + 0.01 * t, 0.0])
        for t in range(3)
    ]
    monkeypatch.setenv("REPRO_FACET_BUDGET", "4096")
    small_chunks = simulator.simulate_sequence(meshes)
    monkeypatch.setenv("REPRO_FACET_BUDGET", "262144")
    large_chunks = simulator.simulate_sequence(meshes)
    assert small_chunks.tobytes() == large_chunks.tobytes()
