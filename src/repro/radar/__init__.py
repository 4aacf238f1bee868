"""Radar substrate: FMCW waveforms, the Eq. 3 IF simulator, and heatmaps.

This package replaces the paper's physical TI MMWCAS-RF-EVM testbed with
the RF simulator the paper itself uses inside its attack loop (Section V-B,
VI-D), plus the prototype's signal-processing chain (Section II-A).
"""

from .antenna import AntennaArray
from .chirp import SPEED_OF_LIGHT, ChirpConfig
from .heatmap import (
    DEFAULT_HEATMAP_CONFIG,
    HeatmapConfig,
    drai_sequence,
    drai_sequence_reference,
    heatmap_deviation,
    rdi_sequence,
)
from .noise import (
    add_thermal_noise,
    complex_awgn,
    noise_sigma,
    random_environment,
)
from .processing import (
    angle_axis_degrees,
    angle_fft,
    angle_fft_sequence,
    doppler_fft_sequence,
    hann_window,
    integrate_chirps,
    log_compress,
    mti_filter,
    range_fft,
    range_fft_sequence,
)
from .simulator import FacetSet, FmcwRadarSimulator, RadarConfig

__all__ = [
    "AntennaArray",
    "ChirpConfig",
    "DEFAULT_HEATMAP_CONFIG",
    "FacetSet",
    "FmcwRadarSimulator",
    "HeatmapConfig",
    "RadarConfig",
    "SPEED_OF_LIGHT",
    "add_thermal_noise",
    "complex_awgn",
    "noise_sigma",
    "angle_axis_degrees",
    "angle_fft",
    "angle_fft_sequence",
    "doppler_fft_sequence",
    "drai_sequence",
    "drai_sequence_reference",
    "hann_window",
    "heatmap_deviation",
    "integrate_chirps",
    "log_compress",
    "mti_filter",
    "random_environment",
    "range_fft",
    "range_fft_sequence",
    "rdi_sequence",
]
