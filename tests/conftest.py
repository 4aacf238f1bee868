"""Shared fixtures: micro-scale radar/dataset/model configurations.

Tests run against deliberately tiny configurations (8 frames, 16x16
heatmaps, a single position) so the whole suite stays fast while still
exercising the real simulation -> heatmap -> model -> attack pipeline.
Session-scoped fixtures share the expensive artifacts (datasets, a trained
micro model) across test modules.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import GenerationConfig, SampleGenerator
from repro.models import CNNLSTMClassifier, ModelConfig, Trainer, TrainingConfig
from repro.radar import AntennaArray, ChirpConfig, HeatmapConfig, RadarConfig
from repro.runtime.telemetry import metrics, telemetry


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the dataset cache and run-record dir at per-test temp dirs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Disabled tracing and empty metrics for every test."""
    telemetry().disable()
    telemetry().reset()
    metrics().reset()
    yield
    telemetry().disable()
    telemetry().reset()
    metrics().reset()


def make_micro_generation_config(
    num_frames: int = 8,
    environment_objects: int = 0,
    snr_db: float = 30.0,
) -> GenerationConfig:
    """A minimal generation pipeline: 16x16 heatmaps, one position."""
    return GenerationConfig(
        num_frames=num_frames,
        radar=RadarConfig(
            chirp=ChirpConfig(num_adc_samples=64, num_chirps=8),
            antennas=AntennaArray(num_tx=2, num_rx=4),
        ),
        heatmap=HeatmapConfig(
            range_bin_start=16, range_bin_stop=32, num_angle_bins=16
        ),
        distances_m=(1.0,),
        angles_deg=(0.0,),
        snr_db=snr_db,
        environment_objects=environment_objects,
        participants=(1.0,),
    )


MICRO_MODEL_CONFIG = ModelConfig(
    frame_shape=(16, 16),
    conv_channels=(4, 8),
    feature_dim=12,
    lstm_hidden=16,
    dropout=0.0,
)


@pytest.fixture(scope="session")
def micro_generation_config() -> GenerationConfig:
    return make_micro_generation_config()


@pytest.fixture(scope="session")
def micro_generator(micro_generation_config) -> SampleGenerator:
    return SampleGenerator(micro_generation_config, seed=0)


@pytest.fixture(scope="session")
def micro_dataset(micro_generation_config):
    """18 samples (3 per class) through the real simulator."""
    generator = SampleGenerator(micro_generation_config, seed=11)
    return generator.generate_dataset(samples_per_class=3)


@pytest.fixture(scope="session")
def micro_model_config() -> ModelConfig:
    return MICRO_MODEL_CONFIG


@pytest.fixture(scope="session")
def trained_micro_model(micro_dataset, micro_model_config) -> CNNLSTMClassifier:
    """A briefly-trained CNN-LSTM shared by XAI/attack tests."""
    model = CNNLSTMClassifier(micro_model_config, np.random.default_rng(3))
    trainer = Trainer(
        TrainingConfig(epochs=4, batch_size=9, learning_rate=3e-3,
                       validation_fraction=0.0, seed=0)
    )
    trainer.fit(model, micro_dataset.x, micro_dataset.y)
    return model


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture()
def new_file_mode() -> int:
    """The mode ``open()`` gives a new file under this process's umask."""
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask
