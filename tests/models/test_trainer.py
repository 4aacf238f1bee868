"""Tests for the training loop: learning, early stopping, reproducibility."""

import numpy as np
import pytest

from repro.models import CNNLSTMClassifier, ModelConfig, Trainer, TrainingConfig


def _separable_data(n_per_class=8, num_classes=3, rng=None):
    """Trivially separable sequences: class c lights up range band c."""
    rng = rng or np.random.default_rng(0)
    xs, ys = [], []
    for c in range(num_classes):
        for _ in range(n_per_class):
            x = rng.random((8, 16, 16)).astype(np.float32) * 0.1
            x[:, c * 4 : c * 4 + 4, :] += 0.8
            xs.append(x)
            ys.append(c)
    return np.stack(xs), np.array(ys)


@pytest.fixture(scope="module")
def trained():
    x, y = _separable_data()
    config = ModelConfig(
        frame_shape=(16, 16), num_classes=3, conv_channels=(4, 8),
        feature_dim=12, lstm_hidden=16, dropout=0.0,
    )
    model = CNNLSTMClassifier(config, np.random.default_rng(1))
    trainer = Trainer(
        TrainingConfig(epochs=15, batch_size=8, learning_rate=3e-3,
                       validation_fraction=0.2, seed=0)
    )
    history = trainer.fit(model, x, y)
    return model, trainer, history, (x, y)


def test_learns_separable_data(trained):
    model, trainer, history, (x, y) = trained
    _, acc = trainer.evaluate(model, x, y)
    assert acc > 0.9


def test_history_is_populated(trained):
    _, _, history, _ = trained
    assert history.num_epochs >= 1
    assert len(history.val_loss) == history.num_epochs
    assert history.best_epoch >= 0
    assert history.wall_time_s > 0.0


def test_loss_decreases(trained):
    _, _, history, _ = trained
    assert history.train_loss[-1] < history.train_loss[0]


def test_training_is_deterministic():
    x, y = _separable_data(n_per_class=4)
    config = ModelConfig(
        frame_shape=(16, 16), num_classes=3, conv_channels=(4, 8),
        feature_dim=12, lstm_hidden=16, dropout=0.0,
    )

    def run():
        model = CNNLSTMClassifier(config, np.random.default_rng(5))
        Trainer(TrainingConfig(epochs=2, seed=7, validation_fraction=0.0)).fit(
            model, x, y
        )
        return model.predict_logits(x[:4])

    assert np.allclose(run(), run())


def test_early_stopping_respects_patience():
    x, y = _separable_data(n_per_class=4)
    config = ModelConfig(
        frame_shape=(16, 16), num_classes=3, conv_channels=(4, 8),
        feature_dim=12, lstm_hidden=16, dropout=0.0,
    )
    model = CNNLSTMClassifier(config, np.random.default_rng(2))
    # learning_rate=0 means no improvement: stops after patience+1 epochs.
    trainer = Trainer(
        TrainingConfig(epochs=30, patience=2, learning_rate=1e-12,
                       validation_fraction=0.2, seed=0)
    )
    history = trainer.fit(model, x, y)
    assert history.num_epochs <= 5


def test_explicit_validation_split():
    x, y = _separable_data(n_per_class=4)
    config = ModelConfig(
        frame_shape=(16, 16), num_classes=3, conv_channels=(4, 8),
        feature_dim=12, lstm_hidden=16, dropout=0.0,
    )
    model = CNNLSTMClassifier(config, np.random.default_rng(2))
    history = Trainer(TrainingConfig(epochs=2)).fit(
        model, x[:-6], y[:-6], validation=(x[-6:], y[-6:])
    )
    assert len(history.val_accuracy) == history.num_epochs


def test_fit_validates_inputs():
    model = CNNLSTMClassifier(
        ModelConfig(frame_shape=(16, 16), conv_channels=(4, 8),
                    feature_dim=12, lstm_hidden=16),
        np.random.default_rng(0),
    )
    trainer = Trainer(TrainingConfig(epochs=1))
    with pytest.raises(ValueError):
        trainer.fit(model, np.zeros((2, 8, 16, 16)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        trainer.fit(model, np.zeros((0, 8, 16, 16)), np.zeros(0, dtype=int))


def test_best_weights_restored(trained):
    """After fit, the model scores at least as well as the last epoch."""
    model, trainer, history, (x, y) = trained
    val_loss, _ = trainer.evaluate(model, x, y)
    assert np.isfinite(val_loss)
    assert history.best_epoch <= history.num_epochs - 1


def _fit_state_bytes(config, x, y) -> "dict[str, bytes]":
    model = CNNLSTMClassifier(config, np.random.default_rng(5))
    Trainer(TrainingConfig(epochs=2, batch_size=8, seed=3)).fit(model, x, y)
    return {name: value.tobytes() for name, value in model.state_dict().items()}


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(
            frame_shape=(16, 16), num_classes=3, conv_channels=(4, 8),
            feature_dim=12, lstm_hidden=16, dropout=0.0,
        ),
        # The attack cell's model, whose GEMMs are large enough to thread.
        ModelConfig(frame_shape=(32, 32)),
    ],
    ids=["micro", "fast"],
)
def test_a_fit_is_the_same_at_any_blas_thread_count(config):
    """Fits leave the process that would run them on two BLAS threads for
    pool workers that run one, so the bytes must not depend on the count."""
    from repro.runtime.threads import blas_threads, set_blas_threads

    before = blas_threads()
    if before is None:
        pytest.skip("NumPy's BLAS thread count cannot be set")
    rng = np.random.default_rng(0)
    x = rng.random((24, 8, *config.frame_shape)).astype(np.float32)
    y = rng.integers(0, config.num_classes, 24)
    try:
        fits = []
        for count in (1, 2):
            set_blas_threads(count)
            fits.append(_fit_state_bytes(config, x, y))
    finally:
        set_blas_threads(before)
    assert fits[0] == fits[1]
