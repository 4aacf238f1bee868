"""Tests for thermal noise injection and environment clutter."""

import numpy as np
import pytest

from repro.radar import add_thermal_noise, random_environment


def test_noise_power_matches_snr(rng):
    signal = np.full((8, 16, 4), 1.0 + 0.0j, dtype=np.complex64)
    noisy = add_thermal_noise(signal, snr_db=10.0, rng=rng)
    noise = noisy - signal
    measured_snr = 10.0 * np.log10(
        np.mean(np.abs(signal) ** 2) / np.mean(np.abs(noise) ** 2)
    )
    assert measured_snr == pytest.approx(10.0, abs=1.0)


def test_noise_scales_with_snr(rng):
    signal = np.full((8, 16, 4), 1.0 + 0.0j, dtype=np.complex64)
    low = add_thermal_noise(signal, snr_db=0.0, rng=np.random.default_rng(0)) - signal
    high = add_thermal_noise(signal, snr_db=20.0, rng=np.random.default_rng(0)) - signal
    assert np.abs(low).mean() > 5.0 * np.abs(high).mean()


def test_zero_signal_stays_zero(rng):
    signal = np.zeros((4, 4, 2), dtype=np.complex64)
    noisy = add_thermal_noise(signal, snr_db=10.0, rng=rng)
    assert np.abs(noisy).max() == 0.0


def test_random_environment_structure(rng):
    env = random_environment(rng, num_objects=3)
    assert env.num_faces == 3 * 12  # three boxes
    # All clutter sits in front of the radar (positive y) and inside the span.
    centroids = env.face_centroids()
    assert centroids[:, 1].min() > 0.5


def test_random_environment_validation(rng):
    with pytest.raises(ValueError):
        random_environment(rng, num_objects=0)


def test_environments_differ_by_seed():
    env_a = random_environment(np.random.default_rng(1))
    env_b = random_environment(np.random.default_rng(2))
    assert not np.allclose(env_a.vertices, env_b.vertices)


# ----------------------------------------------------------------------
# Batched synthesis: one whole-sequence draw vs the per-frame reference
# ----------------------------------------------------------------------

def test_batched_noise_bit_identical_to_per_frame_reference():
    """The batched draw is a pure refactor: same seed, same bytes.

    ``complex_awgn`` interleaves re/im per element, so a per-frame loop
    consumes the generator stream in exactly the order one whole-sequence
    draw does; nothing about the noise changes except the call count.
    """
    from .oracles import add_thermal_noise_reference

    rng = np.random.default_rng(7)
    sequence = (
        rng.standard_normal((5, 8, 16, 4)) + 1j * rng.standard_normal((5, 8, 16, 4))
    ).astype(np.complex64)
    batched = add_thermal_noise(sequence, 15.0, np.random.default_rng(123))
    reference = add_thermal_noise_reference(
        sequence, 15.0, np.random.default_rng(123)
    )
    assert batched.dtype == reference.dtype
    assert batched.tobytes() == reference.tobytes()


def test_reference_requires_sequence_shape(rng):
    from .oracles import add_thermal_noise_reference

    with pytest.raises(ValueError, match="sequence"):
        add_thermal_noise_reference(
            np.zeros((8, 16, 4), dtype=np.complex64), 10.0, rng
        )


def test_complex_awgn_stream_equivalence(rng):
    """Drawing (T, ...) at once == drawing each frame in a loop."""
    from repro.radar import complex_awgn

    whole = complex_awgn((3, 4, 2), 0.5, np.random.default_rng(9))
    # One generator instance threads through the loop.
    gen = np.random.default_rng(9)
    looped = np.stack([complex_awgn((4, 2), 0.5, gen) for _ in range(3)])
    assert whole.dtype == np.complex64
    assert whole.tobytes() == looped.tobytes()


def test_noise_sigma_zero_for_silent_cube():
    from repro.radar import noise_sigma

    assert noise_sigma(np.zeros((4, 4, 2), dtype=np.complex64), 10.0) == 0.0
    assert noise_sigma(np.ones((4, 4, 2), dtype=np.complex64), 10.0) > 0.0
