"""Trainer fault tolerance: config validation, NaN-loss policies, and
checkpoint/resume across injected mid-epoch crashes."""

import numpy as np
import pytest

from repro.models import CNNLSTMClassifier, Trainer, TrainingConfig
from repro.runtime.errors import SimulationError, TrainingDivergenceError

from ..conftest import MICRO_MODEL_CONFIG
from ..faults import diverging_loss, failing_trainer


def micro_trainer(**overrides) -> Trainer:
    defaults = dict(
        epochs=3, batch_size=9, learning_rate=3e-3,
        validation_fraction=0.0, seed=0,
    )
    defaults.update(overrides)
    return Trainer(TrainingConfig(**defaults))


def fresh_model(seed: int = 3) -> CNNLSTMClassifier:
    return CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# TrainingConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("learning_rate", float("nan")),
        ("weight_decay", -1e-5),
        ("clip_norm", 0.0),
        ("validation_fraction", -0.1),
        ("validation_fraction", 1.0),
        ("patience", -1),
        ("checkpoint_every", 0),
        ("nan_policy", "explode"),
        ("max_divergence_restores", -1),
    ],
)
def test_training_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


def test_training_config_defaults_are_valid():
    config = TrainingConfig()
    assert config.nan_policy == "raise"
    assert config.checkpoint_dir is None


# ----------------------------------------------------------------------
# Input guard (heatmap -> model boundary)
# ----------------------------------------------------------------------
def test_fit_rejects_nan_training_inputs(micro_dataset):
    x = micro_dataset.x.copy()
    x[0, 0, 0, 0] = np.nan
    with pytest.raises(SimulationError, match="training heatmaps"):
        micro_trainer(epochs=1).fit(fresh_model(), x, micro_dataset.y)


# ----------------------------------------------------------------------
# NaN-loss policies
# ----------------------------------------------------------------------
def test_nan_policy_raise_throws_divergence_error(micro_dataset):
    with diverging_loss(after_batches=1):
        with pytest.raises(TrainingDivergenceError) as excinfo:
            micro_trainer(nan_policy="raise").fit(
                fresh_model(), micro_dataset.x, micro_dataset.y
            )
    assert excinfo.value.epoch == 0
    assert not np.isfinite(excinfo.value.loss)


def test_nan_policy_restore_recovers_best_weights(micro_dataset):
    model = fresh_model()
    before = {k: v.copy() for k, v in model.state_dict().items()}
    with diverging_loss(after_batches=0):
        history = micro_trainer(
            nan_policy="restore", max_divergence_restores=2, epochs=5
        ).fit(model, micro_dataset.x, micro_dataset.y)
    # every epoch diverged immediately: no weight ever updated, the restore
    # budget (2) was exhausted after 3 diverged epochs, best weights kept.
    assert history.diverged_epochs == [0, 1, 2]
    assert history.num_epochs == 0
    after = model.state_dict()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])


def test_nan_policy_restore_continues_after_transient_divergence(
    micro_dataset, monkeypatch
):
    # 2 batches/epoch (18 samples, batch 9): epoch 0 trains clean, epoch 1
    # diverges on its first batch, epochs 2+ train clean again.
    from repro.models import trainer as trainer_module

    real = trainer_module.cross_entropy
    calls = {"n": 0}

    def transiently_unstable(logits, labels):
        loss = real(logits, labels)
        calls["n"] += 1
        if calls["n"] == 3:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    monkeypatch.setattr(trainer_module, "cross_entropy", transiently_unstable)
    history = micro_trainer(nan_policy="restore", epochs=4).fit(
        fresh_model(), micro_dataset.x, micro_dataset.y
    )
    assert history.diverged_epochs == [1]
    assert history.num_epochs == 3  # epochs 0, 2, 3 recorded stats


def test_nan_policy_abort_stops_on_best_weights(micro_dataset):
    model = fresh_model()
    before = {k: v.copy() for k, v in model.state_dict().items()}
    with diverging_loss(after_batches=0):
        history = micro_trainer(nan_policy="abort", epochs=5).fit(
            model, micro_dataset.x, micro_dataset.y
        )
    assert history.diverged_epochs == [0]
    assert history.num_epochs == 0
    after = model.state_dict()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_checkpoints_written_every_epoch(micro_dataset, tmp_path):
    ckpt = tmp_path / "run"
    trainer = micro_trainer(checkpoint_dir=ckpt, epochs=2)
    trainer.fit(fresh_model(), micro_dataset.x, micro_dataset.y)
    assert (ckpt / "last.npz").exists()
    assert (ckpt / "best.npz").exists()
    assert (ckpt / "optimizer.npz").exists()
    state = Trainer._load_state_file(ckpt)
    assert state["epoch"] == 1
    assert len(state["train_loss"]) == 2


def test_resume_continues_from_last_epoch(micro_dataset, tmp_path):
    ckpt = tmp_path / "run"
    model = fresh_model()
    first = micro_trainer(checkpoint_dir=ckpt, epochs=2).fit(
        model, micro_dataset.x, micro_dataset.y
    )
    assert first.num_epochs == 2
    resumed = micro_trainer(checkpoint_dir=ckpt, epochs=4, resume=True).fit(
        model, micro_dataset.x, micro_dataset.y
    )
    assert resumed.resumed_from_epoch == 2
    assert resumed.num_epochs == 4  # 2 restored + 2 new
    assert resumed.train_loss[:2] == first.train_loss
    state = Trainer._load_state_file(ckpt)
    assert state["epoch"] == 3
    # With the Adam moments checkpointed (and no dropout/augmentation RNG
    # in the micro config), interruption must not change the trajectory:
    # the resumed history equals an uninterrupted 4-epoch run's exactly.
    uninterrupted = micro_trainer(epochs=4).fit(
        fresh_model(), micro_dataset.x, micro_dataset.y
    )
    assert resumed.train_loss == uninterrupted.train_loss
    assert resumed.train_accuracy == uninterrupted.train_accuracy


def test_resume_without_checkpoint_starts_fresh(micro_dataset, tmp_path):
    history = micro_trainer(
        checkpoint_dir=tmp_path / "none-yet", resume=True, epochs=1
    ).fit(fresh_model(), micro_dataset.x, micro_dataset.y)
    assert history.resumed_from_epoch == 0
    assert history.num_epochs == 1


def test_mid_epoch_crash_then_resume_completes(micro_dataset, tmp_path):
    ckpt = tmp_path / "run"
    model = fresh_model()
    # 2 batches/epoch: allow epoch 0's two batches, crash in epoch 1.
    with failing_trainer(after_batches=2):
        with pytest.raises(RuntimeError, match="injected mid-epoch"):
            micro_trainer(checkpoint_dir=ckpt, epochs=3).fit(
                model, micro_dataset.x, micro_dataset.y
            )
    state = Trainer._load_state_file(ckpt)
    assert state["epoch"] == 0  # epoch 0 was checkpointed before the crash

    resumed = micro_trainer(checkpoint_dir=ckpt, epochs=3, resume=True).fit(
        fresh_model(seed=99), micro_dataset.x, micro_dataset.y
    )
    assert resumed.resumed_from_epoch == 1
    assert resumed.num_epochs == 3
    assert Trainer._load_state_file(ckpt)["epoch"] == 2


def test_happy_path_history_unchanged_without_checkpointing(micro_dataset):
    """The fault-tolerance layer must not perturb default training."""
    h1 = micro_trainer().fit(fresh_model(), micro_dataset.x, micro_dataset.y)
    h2 = micro_trainer().fit(fresh_model(), micro_dataset.x, micro_dataset.y)
    assert h1.train_loss == h2.train_loss
    assert h1.diverged_epochs == []
    assert h1.resumed_from_epoch == 0
