"""Tests for the CNN-LSTM HAR classifier."""

import numpy as np
import pytest

from repro.models import CNNLSTMClassifier, ModelConfig
from repro.nn import Tensor


@pytest.fixture(scope="module")
def model(micro_model_config):
    return CNNLSTMClassifier(micro_model_config, np.random.default_rng(0))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(frame_shape=(30, 32))
    with pytest.raises(ValueError):
        ModelConfig(num_classes=1)


def test_forward_logits_shape(model):
    x = Tensor(np.zeros((3, 8, 16, 16), dtype=np.float32))
    assert model(x).shape == (3, 6)


def test_forward_validates_rank(model):
    with pytest.raises(ValueError):
        model(Tensor(np.zeros((3, 16, 16))))


def test_frame_features_shape(model):
    features = model.frame_features(np.zeros((2, 8, 16, 16)))
    assert features.shape == (2, 8, model.config.feature_dim)


def test_frame_features_accepts_single_sample(model):
    features = model.frame_features(np.zeros((8, 16, 16)))
    assert features.shape == (1, 8, model.config.feature_dim)


def test_classify_feature_series_matches_forward(model, rng):
    """Staged CNN->LSTM path equals the fused forward pass (eval mode)."""
    x = rng.random((2, 8, 16, 16)).astype(np.float32)
    model.eval()
    fused = model.predict_logits(x)
    features = model.frame_features(x)
    staged = model.classify_feature_series(features)
    assert np.allclose(fused, staged, atol=1e-5)


def test_predict_returns_labels(model, rng):
    labels = model.predict(rng.random((4, 8, 16, 16)))
    assert labels.shape == (4,)
    assert set(labels) <= set(range(6))


def test_predict_proba_normalized(model, rng):
    probs = model.predict_proba(rng.random((3, 8, 16, 16)))
    assert probs.shape == (3, 6)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_predict_restores_training_mode(model, rng):
    model.train()
    model.predict(rng.random((1, 8, 16, 16)))
    assert model.training
    model.eval()


def test_batching_consistency(model, rng):
    x = rng.random((5, 8, 16, 16)).astype(np.float32)
    all_at_once = model.predict_logits(x, batch_size=5)
    chunked = model.predict_logits(x, batch_size=2)
    assert np.allclose(all_at_once, chunked, atol=1e-5)


def test_default_dtype_is_float32(model):
    assert model.dtype == np.float32


def test_trigger_visible_in_features(model, rng):
    """Frame features respond to localized heatmap perturbations."""
    clean = rng.random((1, 8, 16, 16)).astype(np.float32)
    poisoned = clean.copy()
    poisoned[0, 3, 5:8, 5:8] += 0.5
    f_clean = model.frame_features(clean)[0]
    f_poisoned = model.frame_features(poisoned)[0]
    deltas = np.linalg.norm(f_poisoned - f_clean, axis=1)
    assert deltas[3] > 0.0
    unchanged = np.delete(np.arange(8), 3)
    assert np.allclose(deltas[unchanged], 0.0, atol=1e-6)
