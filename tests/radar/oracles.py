"""Reference formulations of the radar chain's fast paths, for tests only.

* :func:`frame_cube_exact` is the exact Eq. 3 synthesis that
  ``FmcwRadarSimulator`` shipped as a method: every chirp re-evaluates
  every facet-channel delay.  It bounds the error of the separable
  synthesis.
* :func:`add_thermal_noise_reference` draws each frame's noise inside a
  frame loop, the per-frame twin of the batched ``add_thermal_noise``.
* :func:`unit_phasor_reference` reduces carrier phases with
  ``np.remainder``, as the simulator's ``_unit_phasor`` did before it
  switched to ``x - floor(x)``.
* :func:`rdi_sequence_reference` is the per-frame float64 RDI chain
  (:func:`rdi_frame`, :func:`doppler_fft`) the batched ``rdi_sequence``
  and ``doppler_fft_sequence`` are pinned to.

They keep the arithmetic ``repro.radar`` shipped, so the equivalence
tests can pin the fast paths to them; nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import TriangleMesh, visibility_geometry
from repro.radar import SPEED_OF_LIGHT, FmcwRadarSimulator, HeatmapConfig
from repro.radar.heatmap import DEFAULT_HEATMAP_CONFIG, _finalize
from repro.radar.noise import complex_awgn, noise_sigma
from repro.radar.processing import hann_window, range_fft


def frame_cube_exact(
    simulator: FmcwRadarSimulator,
    mesh: TriangleMesh,
    velocities: np.ndarray | None = None,
) -> np.ndarray:
    """IF cube with per-chirp facet positions and per-channel delays.

    This is the reference implementation of Eq. 3: every chirp
    re-evaluates every facet-channel delay after advancing facets along
    their velocity vectors.  Used in tests to bound the error of the
    separable path.
    """
    config = simulator.config
    chirp = config.chirp
    if not mesh.num_faces:
        return np.zeros(config.cube_shape, dtype=np.complex64)
    mask, cos, centroids = visibility_geometry(
        mesh, simulator._radar_position, use_occlusion=config.use_occlusion
    )
    if not mask.any():
        return np.zeros(config.cube_shape, dtype=np.complex64)

    centroids = centroids[mask]
    areas = mesh.face_areas()[mask]
    reflectivity = mesh.reflectivity[mask]
    gains = np.clip(cos[mask], 0.0, None)
    vel = (
        np.zeros_like(centroids)
        if velocities is None
        else np.asarray(velocities, dtype=float)[mask]
    )

    f0 = chirp.start_frequency_hz
    gamma = chirp.slope_hz_per_s
    omega = 2.0 * math.pi * f0
    tx, rx = simulator._tx, simulator._rx
    fast_time = simulator._fast_time
    cube = np.zeros(config.cube_shape, dtype=np.complex128)
    for m in range(chirp.num_chirps):
        positions = centroids + vel * simulator._slow_time[m]
        d_tx = np.linalg.norm(positions[:, None, :] - tx[None, :, :], axis=2)
        d_rx = np.linalg.norm(positions[:, None, :] - rx[None, :, :], axis=2)
        d_sum = (d_tx[:, :, None] + d_rx[:, None, :]).reshape(len(positions), -1)
        d_prod = (d_tx[:, :, None] * d_rx[:, None, :]).reshape(len(positions), -1)
        tau = d_sum / SPEED_OF_LIGHT  # (F, K)
        amp = (
            config.amplitude_scale
            * omega
            * (gains * reflectivity * areas)[:, None]
            / ((4.0 * math.pi) ** 2 * d_prod)
        )
        phase = np.exp(
            -2j
            * math.pi
            * (gamma * tau[:, None, :] * fast_time[None, :, None] + f0 * tau[:, None, :])
        )  # (F, N_s, K)
        cube[:, m, :] = (amp[:, None, :] * phase).sum(axis=0)
    return cube.astype(np.complex64)


def add_thermal_noise_reference(
    cube: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-frame twin of ``add_thermal_noise`` for a ``(T, ...)`` cube.

    Draws each frame's noise separately inside the frame loop; pinned
    bit-identical to the batched path under a fixed seed, which is what
    licenses the batched draw as a pure refactor.
    """
    cube = np.asarray(cube)
    if cube.ndim != 4:
        raise ValueError(f"expected a (T, N_s, N_c, K) sequence, got {cube.shape}")
    sigma = noise_sigma(cube, snr_db)
    if sigma == 0.0:
        return cube.copy()
    return np.stack(
        [frame + complex_awgn(frame.shape, sigma, rng) for frame in cube]
    )


def unit_phasor_reference(arg_cycles: np.ndarray) -> np.ndarray:
    """``exp(-2j pi arg)`` as complex64, the phase reduced by ``np.remainder``."""
    phi = np.remainder(arg_cycles, 1.0).astype(np.float32)
    phi *= np.float32(-2.0 * np.pi)
    out = np.empty(phi.shape, dtype=np.complex64)
    view = out.view(np.float32).reshape(phi.shape + (2,))
    np.cos(phi, out=view[..., 0])
    np.sin(phi, out=view[..., 1])
    return out


def doppler_fft(range_profile: np.ndarray) -> np.ndarray:
    """Doppler-FFT over slow time (axis 1), fftshifted to center zero Doppler."""
    data = np.asarray(range_profile)
    w = hann_window(data.shape[1])
    data = data * w.reshape((1, -1) + (1,) * (data.ndim - 2))
    spectrum = np.fft.fft(data, axis=1)
    return np.fft.fftshift(spectrum, axes=1)


def rdi_frame(cube: np.ndarray, config: HeatmapConfig | None = None) -> np.ndarray:
    """Range-Doppler image for one IF cube, summed over antennas.

    Returns ``(num_range_bins, num_chirps)`` *linear* magnitudes; sequence
    functions handle normalization and compression.
    """
    config = config or DEFAULT_HEATMAP_CONFIG
    profile = range_fft(cube)
    spectrum = doppler_fft(profile)
    magnitude = np.abs(spectrum).sum(axis=-1)
    return magnitude[config.range_bin_start : config.range_bin_stop]


def rdi_sequence_reference(
    cubes: np.ndarray, config: HeatmapConfig | None = None
) -> np.ndarray:
    """Per-frame RDI reference the batched path is equivalence-tested against."""
    config = config or DEFAULT_HEATMAP_CONFIG
    frames = np.stack([rdi_frame(cube, config) for cube in cubes])
    return _finalize(frames, config)
