"""RDI and DRAI heatmap pipelines.

These functions convert raw IF cubes into the two heatmap modalities the
prototype uses (paper Section II-A):

* **RDI** (Range-Doppler Image): Range-FFT then Doppler-FFT — the range /
  speed view.
* **DRAI** (Dynamic Range-Angle Image): Range-FFT, MTI clutter removal,
  Angle-FFT, non-coherent chirp integration — the range / angle view the
  CNN-LSTM classifier consumes, 32 frames per activity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.telemetry import span
from .chirp import ChirpConfig
from .processing import (
    angle_fft,
    angle_fft_sequence,
    doppler_fft_sequence,
    integrate_chirps,
    log_compress,
    mti_filter,
    range_fft,
    range_fft_sequence,
)


@dataclass(frozen=True)
class HeatmapConfig:
    """Output geometry and normalization of the heatmap pipelines.

    Attributes
    ----------
    range_bin_start, range_bin_stop:
        Crop of the Range-FFT bins kept in heatmaps.  With the default
        chirp (bin size ~3.9 cm) bins 8..40 span roughly 0.31 - 1.56 m...
        the defaults below are tuned so the subject grid (0.8 - 2 m) stays
        inside the crop.
    num_angle_bins:
        Zero-padded Angle-FFT size (heatmap width).
    log_scale:
        Contrast of the dynamic-range compression: heatmaps are peak
        normalized to [0, 1] and mapped through
        ``log1p(log_scale * x) / log1p(log_scale)``.  Larger values lift
        weak returns; ~30 keeps the noise floor visibly below targets.
    normalize:
        Apply the peak normalization + compression; when False the raw
        linear magnitudes are returned.
    """

    range_bin_start: int = 16
    range_bin_stop: int = 48
    num_angle_bins: int = 32
    log_scale: float = 30.0
    normalize: bool = True
    #: Clutter removal strategy for DRAI sequences: "background" subtracts
    #: the per-pixel time-averaged complex range profile over the whole
    #: sequence (a clutter map — preserves targets moving in *any*
    #: direction across frames); "mti" subtracts the within-frame slow-time
    #: mean (kills tangential movers); "none" disables removal.
    clutter_removal: str = "background"
    #: Subtract the per-pixel temporal median of the *magnitude* frames
    #: before normalization.  Complex background subtraction cannot cancel
    #: a breathing torso (millimeter motion is many carrier wavelengths of
    #: phase), but its residual stays pinned to the same range-angle cells
    #: all sequence long — the temporal median removes that pedestal while
    #: the gesturing hand, which visits different cells per frame,
    #: survives.  This is the "Dynamic" in Dynamic Range-Angle Images.
    dynamic_median: bool = True

    def __post_init__(self) -> None:
        if self.range_bin_stop <= self.range_bin_start:
            raise ValueError("empty range crop")
        if self.num_angle_bins < 2:
            raise ValueError("need at least 2 angle bins")
        if self.clutter_removal not in ("background", "mti", "none"):
            raise ValueError("clutter_removal must be background/mti/none")

    @property
    def num_range_bins(self) -> int:
        return self.range_bin_stop - self.range_bin_start

    @property
    def frame_shape(self) -> "tuple[int, int]":
        return (self.num_range_bins, self.num_angle_bins)

    def range_axis_m(self, chirp: ChirpConfig) -> np.ndarray:
        """Range (meters) of each kept bin."""
        bins = np.arange(self.range_bin_start, self.range_bin_stop)
        return bins * chirp.range_resolution_m


DEFAULT_HEATMAP_CONFIG = HeatmapConfig()


def _finalize(frames: np.ndarray, config: HeatmapConfig) -> np.ndarray:
    """Peak normalize linear magnitudes then apply contrast compression.

    Normalization is per *sequence*, so relative amplitude differences
    between frames survive — this is what lets a reflector trigger change
    frame features without being re-scaled away.
    """
    if not config.normalize:
        return frames
    peak = float(frames.max())
    if peak <= 0.0:
        return frames
    scaled = frames / peak
    if config.log_scale > 0.0:
        # float(...) keeps the divisor a weak scalar so float32 sequences
        # from the batched kernels are not silently promoted to float64.
        return log_compress(scaled, config.log_scale) / float(np.log1p(config.log_scale))
    return scaled


def _angle_magnitude(profile: np.ndarray, config: HeatmapConfig) -> np.ndarray:
    """Angle-FFT + chirp integration + axis fixes for one range profile.

    The IF phase convention ``exp(-j 2 pi f0 tau)`` makes targets at +x
    land in negative spatial-frequency bins, so the angle axis is flipped
    to make heatmap columns increase with azimuth toward the radar's
    right (+x), matching the scene frame.
    """
    spectrum = angle_fft(profile, config.num_angle_bins)
    magnitude = integrate_chirps(spectrum)
    return magnitude[:, ::-1]


def _remove_clutter_sequence(profiles: np.ndarray, config: HeatmapConfig) -> np.ndarray:
    """Sequence-level clutter removal on ``(T, N_s, N_c, K)`` range profiles."""
    if config.clutter_removal == "background":
        background = profiles.mean(axis=(0, 2), keepdims=True)
        return profiles - background
    if config.clutter_removal == "mti":
        return mti_filter(profiles)
    return profiles


def rdi_sequence(cubes: np.ndarray, config: HeatmapConfig | None = None) -> np.ndarray:
    """RDI heatmaps ``(T, num_range_bins, num_chirps)`` for an IF sequence.

    Batched: one Range-FFT and one Doppler-FFT over the whole
    ``(T, N_s, N_c, K)`` tensor in complex64, yielding float32 heatmaps.
    ``tests/radar/oracles.py`` keeps the per-frame float64 path it is
    pinned to.
    """
    config = config or DEFAULT_HEATMAP_CONFIG
    with span("process.rdi_sequence", frames=len(cubes)):
        profiles = range_fft_sequence(np.asarray(cubes))
        # The Doppler-FFT acts per range row, so cropping first is exact
        # and halves the transform work.
        profiles = profiles[:, config.range_bin_start : config.range_bin_stop]
        spectra = doppler_fft_sequence(profiles)
        frames = np.abs(spectra).sum(axis=-1)  # (T, crop, N_c) float32
        return _finalize(frames, config)


def drai_sequence(
    cubes: np.ndarray,
    config: HeatmapConfig | None = None,
) -> np.ndarray:
    """DRAI heatmaps ``(T, num_range_bins, num_angle_bins)``.

    This is the tensor the CNN-LSTM classifier consumes.  With the default
    ``clutter_removal="background"``, the complex range profiles are
    first cleaned by subtracting the sequence-long per-pixel average (the
    clutter map): static scene returns vanish while the gesturing hand —
    which occupies different cells in different frames — survives
    regardless of its motion direction.

    The whole chain is batched: one FFT call per axis over the
    ``(T, N_s, N_c, K)`` tensor, complex64 spectra, float32 heatmaps.
    :func:`drai_sequence_reference` keeps the per-frame float64 chain as
    the pinned numerical oracle.
    """
    config = config or DEFAULT_HEATMAP_CONFIG
    with span("process.drai_sequence", frames=len(cubes)):
        profiles = range_fft_sequence(np.asarray(cubes))  # (T, N_s, N_c, K)
        # Clutter removal and the Angle-FFT act per range row, so cropping
        # first is exact and halves the work of both stages.
        profiles = profiles[:, config.range_bin_start : config.range_bin_stop]
        profiles = _remove_clutter_sequence(profiles, config)
        spectra = angle_fft_sequence(profiles, config.num_angle_bins)
        # Non-coherent integration over chirps (axis 2), then the same
        # angle-axis flip as _angle_magnitude.
        frames = np.abs(spectra).mean(axis=2)[:, :, ::-1]
        if config.dynamic_median:
            frames = np.clip(
                frames - np.median(frames, axis=0, keepdims=True), 0.0, None
            )
        return _finalize(frames, config)


def drai_sequence_reference(
    cubes: np.ndarray,
    config: HeatmapConfig | None = None,
) -> np.ndarray:
    """Per-frame DRAI reference (float64) mirroring the batched pipeline."""
    config = config or DEFAULT_HEATMAP_CONFIG
    with span("process.drai_sequence", frames=len(cubes)):
        profiles = np.stack([range_fft(cube) for cube in cubes])  # (T, N_s, N_c, K)
        profiles = _remove_clutter_sequence(profiles, config)
        frames = np.stack(
            [
                _angle_magnitude(profile, config)[
                    config.range_bin_start : config.range_bin_stop
                ]
                for profile in profiles
            ]
        )
        if config.dynamic_median:
            frames = np.clip(
                frames - np.median(frames, axis=0, keepdims=True), 0.0, None
            )
        return _finalize(frames, config)


def heatmap_deviation(clean: np.ndarray, poisoned: np.ndarray) -> "dict[str, float]":
    """Stealth metrics between clean and trigger-bearing heatmaps (Fig. 5).

    Returns the L2 norm, max absolute pixel deviation, and relative L2
    (deviation over clean norm) — the quantities the Eq. 2 objective's
    ``beta`` term controls.
    """
    clean = np.asarray(clean, dtype=float)
    poisoned = np.asarray(poisoned, dtype=float)
    if clean.shape != poisoned.shape:
        raise ValueError("heatmap shapes differ")
    diff = poisoned - clean
    l2 = float(np.linalg.norm(diff))
    clean_norm = float(np.linalg.norm(clean))
    return {
        "l2": l2,
        "max_abs": float(np.abs(diff).max()) if diff.size else 0.0,
        "relative_l2": l2 / clean_norm if clean_norm > 0.0 else 0.0,
    }
