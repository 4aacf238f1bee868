"""Cross-cutting edge cases not covered by the per-module suites."""

import numpy as np

from repro.datasets import HeatmapDataset, SampleGenerator
from repro.geometry import TriangleMesh, planar_patch
from repro.models import CNNLSTMClassifier, ModelConfig
from repro.nn import Tensor, conv2d, max_pool2d
from repro.radar import (
    AntennaArray,
    ChirpConfig,
    FmcwRadarSimulator,
    RadarConfig,
)

from .conftest import make_micro_generation_config
from .radar.oracles import frame_cube_exact


# ----------------------------------------------------------------------
# nn
# ----------------------------------------------------------------------
def test_conv2d_stride_gradient(rng):
    from .nn.test_tensor import numerical_gradient

    x = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.3, requires_grad=True)
    target = rng.normal(size=(1, 2, 3, 3))

    def loss_value():
        out = conv2d(Tensor(x.data), Tensor(w.data), stride=2, padding=1)
        return float(((out.data - target) ** 2).sum())

    out = conv2d(x, w, stride=2, padding=1)
    ((out - Tensor(target)) ** 2.0).sum().backward()
    for leaf in (x, w):
        numeric = numerical_gradient(loss_value, leaf.data)
        assert np.abs(numeric - leaf.grad).max() < 1e-5


def test_max_pool_larger_window():
    x = Tensor(np.arange(64, dtype=float).reshape(1, 1, 8, 8))
    out = max_pool2d(x, 4)
    assert out.shape == (1, 1, 2, 2)
    assert out.data[0, 0, 1, 1] == 63.0


def test_tensor_len_and_iteration_shapes():
    x = Tensor(np.zeros((5, 3)))
    assert len(x) == 5
    assert x.size == 15
    assert x.ndim == 2


# ----------------------------------------------------------------------
# radar
# ----------------------------------------------------------------------
def test_exact_simulator_empty_scene():
    sim = FmcwRadarSimulator(
        RadarConfig(chirp=ChirpConfig(num_adc_samples=16, num_chirps=2),
                    antennas=AntennaArray(num_tx=1, num_rx=2))
    )
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    cube = frame_cube_exact(sim, empty)
    assert cube.shape == sim.config.cube_shape
    assert np.abs(cube).max() == 0.0


def test_simulator_single_chirp_configuration():
    sim = FmcwRadarSimulator(
        RadarConfig(chirp=ChirpConfig(num_adc_samples=32, num_chirps=1),
                    antennas=AntennaArray(num_tx=1, num_rx=2))
    )
    mesh = planar_patch(0.05, 0.05).translated([0.0, 1.0, 0.0])
    cube = sim.frame_cube(mesh)
    assert cube.shape == (32, 1, 2)
    assert np.abs(cube).max() > 0.0


def test_two_targets_two_range_peaks():
    sim = FmcwRadarSimulator(
        RadarConfig(chirp=ChirpConfig(num_adc_samples=64, num_chirps=2),
                    antennas=AntennaArray(num_tx=1, num_rx=2))
    )
    from repro.geometry import merge_meshes
    from repro.radar import range_fft

    near = planar_patch(0.05, 0.05).translated([0.0, 0.7, 0.0])
    # Offset laterally so the near patch does not occlude the far one.
    far = planar_patch(0.05, 0.05).translated([0.6, 1.9, 0.0])
    cube = sim.frame_cube(merge_meshes([near, far]))
    profile = np.abs(range_fft(cube)).sum(axis=(1, 2))
    chirp = sim.config.chirp
    near_bin, far_bin = chirp.range_bin_for(0.7), chirp.range_bin_for(1.9)
    floor = np.median(profile)
    assert profile[near_bin] > 3 * floor
    assert profile[far_bin] > 3 * floor


# ----------------------------------------------------------------------
# datasets / generation
# ----------------------------------------------------------------------
def test_generation_with_environment_objects():
    config = make_micro_generation_config(environment_objects=2)
    generator = SampleGenerator(config, seed=0)
    sample = generator.generate_sample("push", 1.0, 0.0)
    assert np.isfinite(sample).all()


def test_generation_zero_snr_is_noise_dominated():
    quiet = SampleGenerator(make_micro_generation_config(snr_db=60), seed=1)
    noisy = SampleGenerator(make_micro_generation_config(snr_db=-10), seed=1)
    a = quiet.generate_sample("push", 1.0, 0.0)
    b = noisy.generate_sample("push", 1.0, 0.0)
    # At -10 dB SNR the heatmap floor rises far above the clean floor.
    assert np.median(b) > np.median(a)


def test_dataset_single_class_subset_roundtrip(micro_dataset):
    push_only = micro_dataset.filter(lambda meta, label: label == 0)
    assert len(push_only) == 3
    assert (push_only.y == 0).all()


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
def test_model_with_custom_class_count(rng):
    config = ModelConfig(frame_shape=(16, 16), num_classes=3,
                         conv_channels=(4, 8), feature_dim=8, lstm_hidden=8)
    model = CNNLSTMClassifier(config, np.random.default_rng(0))
    logits = model.predict_logits(rng.random((2, 4, 16, 16)))
    assert logits.shape == (2, 3)


def test_model_handles_non_square_frames(rng):
    config = ModelConfig(frame_shape=(16, 8), conv_channels=(4, 8),
                         feature_dim=8, lstm_hidden=8)
    model = CNNLSTMClassifier(config, np.random.default_rng(0))
    logits = model.predict_logits(rng.random((2, 4, 16, 8)))
    assert logits.shape == (2, 6)


def test_heatmap_dataset_float64_input_coerced():
    ds = HeatmapDataset(np.zeros((2, 4, 8, 8), dtype=np.float64), np.zeros(2))
    assert ds.x.dtype == np.float32
    assert ds.y.dtype == np.int64
