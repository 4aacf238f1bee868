"""Serving-stack fixtures: a published micro registry + live server.

The registry is session-scoped (publishing trains nothing — it reuses
the shared ``trained_micro_model`` — but the bundled trigger detector
does a short fit, worth amortizing).  Engines and servers are
function-scoped so every test starts with a cold model cache and empty
queue.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets.activities import ACTIVITY_NAMES
from repro.datasets.dataset import HeatmapDataset
from repro.defense.detector import DetectorConfig, TriggerDetector
from repro.models import CNNLSTMClassifier
from repro.models.trainer import TrainingConfig
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    ServerConfig,
    build_server,
)

NUM_FRAMES = 8


def add_blob(x: np.ndarray) -> np.ndarray:
    """A bright, persistent square return at fixed range/angle cells —
    the tests' stand-in for a strapped-on reflector trigger."""
    out = np.array(x, copy=True, dtype=np.float32)
    out[..., 3:6, 3:6] += 0.8
    return out


@pytest.fixture(scope="session")
def micro_detector(micro_dataset) -> TriggerDetector:
    """A briefly-trained detector that separates blob-triggered samples."""
    detector = TriggerDetector(
        (16, 16),
        NUM_FRAMES,
        DetectorConfig(
            conv_channels=(4, 8),
            feature_dim=12,
            lstm_hidden=16,
            dropout=0.0,
            training=TrainingConfig(
                epochs=6, batch_size=12, learning_rate=3e-3,
                validation_fraction=0.0, seed=0,
            ),
        ),
        np.random.default_rng(5),
    )
    triggered = HeatmapDataset(
        add_blob(micro_dataset.x), micro_dataset.y, micro_dataset.meta
    )
    detector.fit(micro_dataset, triggered)
    return detector


@pytest.fixture(scope="session")
def published_registry(
    tmp_path_factory, trained_micro_model, micro_detector
) -> "tuple[ModelRegistry, str]":
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    model_id = registry.publish(
        trained_micro_model,
        ACTIVITY_NAMES,
        NUM_FRAMES,
        detector=micro_detector,
    )
    return registry, model_id


def hold_first_forward(monkeypatch, release) -> threading.Event:
    """Hold the first model forward pass until ``release()`` returns.

    Later forwards run unheld.  The returned event is set once the first
    forward has started, so a test can queue requests behind it, or let
    a deadline pass, without relying on timing.
    """
    started = threading.Event()
    predict_logits = CNNLSTMClassifier.predict_logits

    def held(self, *args, **kwargs):
        if not started.is_set():
            started.set()
            release()
        return predict_logits(self, *args, **kwargs)

    monkeypatch.setattr(CNNLSTMClassifier, "predict_logits", held)
    return started


def wait_for_queued(engine: InferenceEngine, count: int) -> None:
    """Block until ``count`` requests sit in the engine's queue."""
    with engine._wakeup:
        assert engine._wakeup.wait_for(
            lambda: len(engine._queue) >= count, timeout=30.0
        )


@pytest.fixture()
def engine(published_registry) -> InferenceEngine:
    registry, _ = published_registry
    with InferenceEngine(registry, EngineConfig(max_batch=4)) as running:
        yield running


@pytest.fixture()
def live_server(published_registry):
    """A real ThreadingHTTPServer on an ephemeral port, torn down after."""
    registry, _ = published_registry
    server = build_server(
        registry.root,
        EngineConfig(max_batch=4),
        ServerConfig(port=0),
    )
    with server:
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        yield server
        server.shutdown()
        thread.join()
