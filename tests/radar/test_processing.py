"""Tests for the FFT/MTI signal-processing chain."""

import numpy as np
import pytest

from repro.radar import (
    angle_axis_degrees,
    angle_fft,
    doppler_fft_sequence,
    hann_window,
    integrate_chirps,
    log_compress,
    mti_filter,
    range_fft,
)


def test_hann_window_properties():
    window = hann_window(64)
    assert window.shape == (64,)
    assert window[0] == pytest.approx(0.0)
    assert window.max() <= 1.0
    assert hann_window(1).tolist() == [1.0]
    with pytest.raises(ValueError):
        hann_window(0)


def test_hann_window_is_cached_per_length_and_dtype():
    assert hann_window(64) is hann_window(64)
    assert hann_window(64, np.float32) is hann_window(64, np.float32)
    assert hann_window(64) is not hann_window(64, np.float32)
    assert hann_window(64).dtype == np.float64
    assert hann_window(64, np.float32).dtype == np.float32


def test_hann_window_is_read_only():
    window = hann_window(32)
    with pytest.raises(ValueError):
        window[0] = 1.0
    # float32 cache entries match the float64 window to rounding.
    np.testing.assert_allclose(
        hann_window(32, np.float32), hann_window(32), atol=1e-7
    )


def _synthetic_cube(beat_bin: int, n_s=64, n_c=8, k=4) -> np.ndarray:
    """IF cube with a single beat tone at a known bin (matching the
    simulator's exp(-j...) convention)."""
    t = np.arange(n_s)
    tone = np.exp(-2j * np.pi * beat_bin * t / n_s)
    return np.tile(tone[:, None, None], (1, n_c, k)).astype(np.complex64)


def test_range_fft_peak_at_expected_bin():
    cube = _synthetic_cube(beat_bin=9)
    profile = np.abs(range_fft(cube)).sum(axis=(1, 2))
    assert int(profile.argmax()) == 9


def test_range_fft_window_reduces_leakage():
    # An off-grid tone leaks less energy into far bins with the window.
    t = np.arange(64)
    tone = np.exp(-2j * np.pi * 9.5 * t / 64)
    cube = np.tile(tone[:, None, None], (1, 4, 2)).astype(np.complex64)
    windowed = np.abs(range_fft(cube)).sum(axis=(1, 2))
    raw = np.abs(np.fft.fft(np.conj(cube), axis=0)).sum(axis=(1, 2))
    far_bins = list(range(20, 50))
    assert windowed[far_bins].sum() < raw[far_bins].sum()


def test_mti_removes_constant_chirps():
    cube = _synthetic_cube(beat_bin=5)
    profile = range_fft(cube)
    filtered = mti_filter(profile)
    assert np.abs(filtered).max() == pytest.approx(0.0, abs=1e-4)


def test_mti_keeps_doppler_modulated_target():
    cube = _synthetic_cube(beat_bin=5)
    # Impose chirp-to-chirp phase rotation (a moving target).
    rotation = np.exp(1j * np.linspace(0, 2.5, cube.shape[1]))
    cube = cube * rotation[None, :, None]
    filtered = mti_filter(range_fft(cube))
    assert np.abs(filtered).max() > 0.1


def test_doppler_fft_centers_zero_velocity():
    cube = _synthetic_cube(beat_bin=5, n_c=8)
    spectrum = np.abs(doppler_fft_sequence(range_fft(cube)[None]))[0]
    doppler_profile = spectrum.sum(axis=(0, 2))
    assert int(doppler_profile.argmax()) == 4  # fftshifted center


def test_angle_fft_zero_padding_and_validation():
    data = np.ones((4, 2, 8), dtype=np.complex64)
    spectrum = angle_fft(data, 32)
    assert spectrum.shape == (4, 2, 32)
    with pytest.raises(ValueError):
        angle_fft(data, 4)


def test_angle_fft_uniform_phase_peaks_at_center():
    data = np.ones((1, 1, 8), dtype=np.complex64)
    spectrum = np.abs(angle_fft(data, 32))[0, 0]
    assert int(spectrum.argmax()) == 16


def test_angle_axis_degrees_monotone_and_bounded():
    axis = angle_axis_degrees(32)
    assert axis.shape == (32,)
    assert (np.diff(axis) >= 0.0).all()
    assert axis.min() >= -90.0 and axis.max() <= 90.0
    assert axis[16] == pytest.approx(0.0)


def test_integrate_chirps_reduces_axis():
    data = np.ones((4, 8, 2), dtype=np.complex64)
    assert integrate_chirps(data).shape == (4, 2)


def test_log_compress_monotone():
    values = np.array([0.0, 1.0, 10.0])
    compressed = log_compress(values, scale=5.0)
    assert compressed[0] == 0.0
    assert (np.diff(compressed) > 0.0).all()
