"""Radar signal-processing chain: Range-FFT, Doppler-FFT, Angle-FFT, MTI.

Implements the prototype's pipeline (paper Section II-A): IF cubes are
turned into Range-Doppler Images (RDI) via Range- and Doppler-FFTs, and into
Dynamic Range-Angle Images (DRAI) via Range-FFT, clutter removal and a
zero-padded Angle-FFT over the virtual array.

Two call shapes are provided.  The per-frame functions (:func:`range_fft`,
:func:`angle_fft`) operate on one ``(N_s, N_c, K)`` cube and keep NumPy's
default float64 arithmetic — they are the pinned reference.  The
``*_sequence`` kernels operate on a whole
``(T, N_s, N_c, K)`` IF tensor with a single FFT call per axis and a
consistent complex64/float32 dtype policy, eliminating per-frame Python
dispatch and float64 upcasts on the dataset-generation hot path.
"""

from __future__ import annotations

import functools

import numpy as np

try:  # scipy is a declared dependency, but the kernels degrade gracefully.
    from scipy import fft as _scipy_fft
except ImportError:  # pragma: no cover
    _scipy_fft = None

from ..runtime.telemetry import span


def _fft_complex64(data: np.ndarray, n: "int | None" = None, axis: int = -1) -> np.ndarray:
    """Single-precision FFT for the sequence kernels.

    scipy's pocketfft is used when available: it is several times faster
    than ``np.fft`` on the strided middle-axis and zero-padded transforms
    these kernels issue, and it preserves complex64 natively.  The numpy
    fallback computes in double and casts back.
    """
    if _scipy_fft is not None:
        return _scipy_fft.fft(data, n=n, axis=axis)
    return np.fft.fft(data, n=n, axis=axis).astype(np.complex64, copy=False)


@functools.lru_cache(maxsize=None)
def _hann_window_cached(length: int, dtype_str: str) -> np.ndarray:
    if length < 1:
        raise ValueError("window length must be >= 1")
    if length == 1:
        window = np.ones(1)
    else:
        n = np.arange(length)
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    window = window.astype(np.dtype(dtype_str))
    # The cache hands the same array to every FFT call of every frame; a
    # caller mutating it would silently corrupt all later windows.
    window.flags.writeable = False
    return window


def hann_window(length: int, dtype=np.float64) -> np.ndarray:
    """Periodic Hann window (matches ``scipy.signal.windows.hann(sym=False)``).

    Windows are memoized per ``(length, dtype)`` — rebuilding the array on
    every FFT call of every frame measurably showed up in profiles — and
    returned read-only.  The sequence kernels request float32 so windowing
    never upcasts complex64 data.
    """
    return _hann_window_cached(int(length), np.dtype(dtype).str)


def range_fft(cube: np.ndarray) -> np.ndarray:
    """Range-FFT over fast time (axis 0 of an ``(N_s, N_c, K)`` cube).

    Returns a same-shaped complex array whose axis 0 is now range bins.
    The IF phase convention (``exp(-j 2 pi f_b t)``) puts positive beat
    frequencies in the *upper* FFT bins, so we conjugate first to keep the
    natural "bin index = range" layout.
    """
    with span("process.range_fft"):
        cube = np.asarray(cube)
        w = hann_window(cube.shape[0])
        cube = cube * w.reshape((-1,) + (1,) * (cube.ndim - 1))
        return np.fft.fft(np.conj(cube), axis=0)


def mti_filter(range_profile: np.ndarray) -> np.ndarray:
    """Moving-target indication: remove the per-(range, channel) DC over chirps.

    Static clutter produces an identical return on every chirp of a frame;
    subtracting the slow-time mean suppresses it while moving scatterers
    (whose chirp-to-chirp carrier phase advances) survive.  This is the
    "remove clutters" step that makes DRAI sequences *dynamic*.  Chirps are
    axis -2 of both a frame ``(N_s, N_c, K)`` and a sequence
    ``(T, N_s, N_c, K)``, so one call serves either.
    """
    data = np.asarray(range_profile)
    return data - data.mean(axis=-2, keepdims=True)


def angle_fft(data: np.ndarray, num_bins: int) -> np.ndarray:
    """Angle-FFT over the virtual-antenna axis (last axis), zero padded.

    Returns an fftshifted spectrum so bin ``num_bins // 2`` is boresight
    and lower bins are negative azimuth (radar's left).
    """
    data = np.asarray(data)
    num_channels = data.shape[-1]
    if num_bins < num_channels:
        raise ValueError("num_bins must be >= number of virtual channels")
    with span("process.angle_fft"):
        spectrum = np.fft.fft(data, n=num_bins, axis=-1)
        return np.fft.fftshift(spectrum, axes=-1)


# ----------------------------------------------------------------------
# Batched sequence kernels (complex64 end-to-end)
# ----------------------------------------------------------------------
def _as_sequence_tensor(cubes: np.ndarray) -> np.ndarray:
    """Validate and cast an IF sequence to the complex64 working dtype."""
    cubes = np.asarray(cubes)
    if cubes.ndim != 4:
        raise ValueError(f"expected a (T, N_s, N_c, K) sequence, got {cubes.shape}")
    return cubes.astype(np.complex64, copy=False)


def range_fft_sequence(cubes: np.ndarray) -> np.ndarray:
    """Range-FFT over fast time (axis 1) of a ``(T, N_s, N_c, K)`` tensor.

    One FFT call for the whole sequence; output is complex64 regardless of
    the NumPy version (NumPy >= 2 computes natively in single precision,
    older versions are cast back after the transform).
    """
    cubes = _as_sequence_tensor(cubes)
    with span("process.range_fft", frames=cubes.shape[0]):
        data = np.conj(cubes)
        data *= hann_window(cubes.shape[1], np.float32).reshape(1, -1, 1, 1)
        return _fft_complex64(data, axis=1)


def doppler_fft_sequence(profiles: np.ndarray) -> np.ndarray:
    """Doppler-FFT over slow time (axis 2) of a ``(T, N_s, N_c, K)`` tensor."""
    profiles = _as_sequence_tensor(profiles)
    with span("process.doppler_fft", frames=profiles.shape[0]):
        data = profiles * hann_window(profiles.shape[2], np.float32).reshape(1, 1, -1, 1)
        spectrum = _fft_complex64(data, axis=2)
        return np.fft.fftshift(spectrum, axes=2)


def angle_fft_sequence(profiles: np.ndarray, num_bins: int) -> np.ndarray:
    """Zero-padded Angle-FFT over the channel axis (last) of a sequence."""
    profiles = _as_sequence_tensor(profiles)
    if num_bins < profiles.shape[-1]:
        raise ValueError("num_bins must be >= number of virtual channels")
    with span("process.angle_fft", frames=profiles.shape[0]):
        spectrum = _fft_complex64(profiles, n=num_bins, axis=-1)
        return np.fft.fftshift(spectrum, axes=-1)


def angle_axis_degrees(num_bins: int) -> np.ndarray:
    """Azimuth (degrees) of each fftshifted angle bin for a lambda/2 array.

    Bin spatial frequency ``u`` in [-1, 1) maps to ``asin(u)``; the sign
    convention matches the scene frame where +x (positive u) is the
    radar's right... measured as a *negative* arrival phase gradient, so
    positive bins correspond to targets at positive x.
    """
    u = np.fft.fftshift(np.fft.fftfreq(num_bins)) * 2.0
    return np.degrees(np.arcsin(np.clip(u, -1.0, 1.0)))


def integrate_chirps(data: np.ndarray) -> np.ndarray:
    """Non-coherent integration: mean magnitude over the chirp axis (1)."""
    return np.abs(np.asarray(data)).mean(axis=1)


def log_compress(magnitude: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``log1p`` dynamic-range compression used before normalization."""
    return np.log1p(scale * np.asarray(magnitude))
