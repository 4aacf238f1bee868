"""Training loop for the CNN-LSTM prototype.

Mirrors the paper's training protocol at reduced scale: Adam, gradient
clipping, a held-out validation set to pick the best epoch (the paper
"include[s] a validation set" to damp training fluctuation), and seeded
shuffling for reproducible repetitions.

Long campaigns additionally get fault tolerance:

* **Checkpoint/resume** — with ``checkpoint_dir`` set, the trainer writes
  ``last.npz``/``best.npz`` weight snapshots, the Adam moments
  (``optimizer.npz``), and a ``trainer-state.json`` epoch counter every
  ``checkpoint_every`` epochs; ``resume=True`` picks the run back up from
  the last completed epoch after a crash.  With ``dropout == 0`` the
  resumed run is bit-identical to an uninterrupted one (shuffles are
  replayed, weights and moments restored); dropout draws from an RNG
  stream that is not checkpointed, so those runs resume correctly but on
  a different random trajectory.
* **Divergence policy** — a NaN/Inf training loss is detected *before* the
  weights are poisoned and handled per ``nan_policy``: ``"raise"`` throws
  :class:`~repro.runtime.errors.TrainingDivergenceError`, ``"restore"``
  warns, reloads the best snapshot with a fresh optimizer, and keeps
  going (bounded by ``max_divergence_restores``), ``"abort"`` stops early
  on the best snapshot.

With the defaults (no checkpoint dir, finite losses) the loop is
bit-identical to the pre-fault-tolerance trainer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn import Adam, Tensor, clip_grad_norm, cross_entropy
from ..nn.serialization import (
    load_arrays,
    load_checkpoint,
    save_arrays,
    save_checkpoint,
)
from ..runtime.errors import SimulationError, TrainingDivergenceError
from ..runtime.guards import ensure_finite
from ..runtime.logging import get_logger
from ..runtime.telemetry import metrics, telemetry, write_text_atomic
from .cnn_lstm import CNNLSTMClassifier
from .metrics import accuracy

_log = get_logger("models.trainer")

NAN_POLICIES = ("raise", "restore", "abort")

_LAST_CHECKPOINT = "last.npz"
_BEST_CHECKPOINT = "best.npz"
_OPTIMIZER_CHECKPOINT = "optimizer.npz"
_STATE_FILE = "trainer-state.json"


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 12
    batch_size: int = 32
    learning_rate: float = 2e-3
    weight_decay: float = 1e-5
    clip_norm: float = 5.0
    validation_fraction: float = 0.15
    patience: int = 6
    seed: int = 0
    verbose: bool = False
    #: Directory for ``last``/``best`` snapshots + the resume state file;
    #: None disables checkpointing entirely.
    checkpoint_dir: "str | os.PathLike | None" = None
    #: Snapshot cadence in epochs (only with ``checkpoint_dir``).
    checkpoint_every: int = 1
    #: Continue a previous run from ``checkpoint_dir`` when its state
    #: file exists; silently starts fresh otherwise.
    resume: bool = False
    #: What to do when the training loss goes NaN/Inf: ``"raise"``,
    #: ``"restore"`` (warn + reload best weights and keep training), or
    #: ``"abort"`` (stop early on the best weights).
    nan_policy: str = "raise"
    #: With ``nan_policy="restore"``: give up (abort-style) after this
    #: many restores, so a persistently unstable run cannot loop forever.
    max_divergence_restores: int = 3

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.clip_norm <= 0.0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(
                "validation_fraction must be in [0, 1), "
                f"got {self.validation_fraction}"
            )
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.nan_policy not in NAN_POLICIES:
            raise ValueError(
                f"nan_policy must be one of {NAN_POLICIES}, got {self.nan_policy!r}"
            )
        if self.max_divergence_restores < 0:
            raise ValueError(
                "max_divergence_restores must be >= 0, "
                f"got {self.max_divergence_restores}"
            )


@dataclass
class TrainingHistory:
    """Per-epoch curves plus the restored-best summary."""

    train_loss: "list[float]" = field(default_factory=list)
    train_accuracy: "list[float]" = field(default_factory=list)
    val_loss: "list[float]" = field(default_factory=list)
    val_accuracy: "list[float]" = field(default_factory=list)
    best_epoch: int = -1
    wall_time_s: float = 0.0
    #: Epoch indices where the loss went NaN/Inf (empty on healthy runs).
    diverged_epochs: "list[int]" = field(default_factory=list)
    #: First epoch executed by this ``fit`` call (> 0 after a resume).
    resumed_from_epoch: int = 0

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Fits a :class:`CNNLSTMClassifier` on heatmap sequences."""

    def __init__(self, config: TrainingConfig | None = None):
        self.config = config or TrainingConfig()

    def _split_validation(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        fraction = self.config.validation_fraction
        if fraction <= 0.0 or len(x) < 8:
            return x, y, x[:0], y[:0]
        order = rng.permutation(len(x))
        num_val = max(1, int(round(len(x) * fraction)))
        val_idx, train_idx = order[:num_val], order[num_val:]
        return x[train_idx], y[train_idx], x[val_idx], y[val_idx]

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_dir(self) -> "Path | None":
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir)

    def _save_checkpoint(
        self,
        directory: Path,
        model: CNNLSTMClassifier,
        optimizer: Adam,
        epoch: int,
        best_val: float,
        stale_epochs: int,
        history: TrainingHistory,
    ) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, directory / _LAST_CHECKPOINT)
        save_arrays(optimizer.state_dict(), directory / _OPTIMIZER_CHECKPOINT)
        write_text_atomic(
            directory / _STATE_FILE,
            json.dumps({
                "epoch": epoch,
                "best_val": best_val if math.isfinite(best_val) else None,
                "stale_epochs": stale_epochs,
                "best_epoch": history.best_epoch,
                "train_loss": history.train_loss,
                "train_accuracy": history.train_accuracy,
                "val_loss": history.val_loss,
                "val_accuracy": history.val_accuracy,
                "diverged_epochs": history.diverged_epochs,
            }),
        )

    def _try_resume(
        self, directory: "Path | None", model: CNNLSTMClassifier, history: TrainingHistory
    ) -> "tuple[int, float, int]":
        """(start_epoch, best_val, stale_epochs), restoring state on resume."""
        if directory is None or not self.config.resume:
            return 0, np.inf, 0
        state_path = directory / _STATE_FILE
        last_path = directory / _LAST_CHECKPOINT
        if not state_path.exists() or not last_path.exists():
            _log.info("no checkpoint to resume in %s; starting fresh", directory)
            return 0, np.inf, 0
        with open(state_path) as handle:
            state = json.load(handle)
        load_checkpoint(model, last_path)
        history.train_loss = list(state["train_loss"])
        history.train_accuracy = list(state["train_accuracy"])
        history.val_loss = list(state["val_loss"])
        history.val_accuracy = list(state["val_accuracy"])
        history.best_epoch = state["best_epoch"]
        history.diverged_epochs = list(state.get("diverged_epochs", []))
        start_epoch = int(state["epoch"]) + 1
        history.resumed_from_epoch = start_epoch
        best_val = state["best_val"]
        best_val = np.inf if best_val is None else float(best_val)
        _log.info(
            "resuming training from epoch %d (best_val=%s)", start_epoch, best_val
        )
        return start_epoch, best_val, int(state["stale_epochs"])

    # ------------------------------------------------------------------
    # Fit
    # ------------------------------------------------------------------
    def fit(
        self,
        model: CNNLSTMClassifier,
        x: np.ndarray,
        y: np.ndarray,
        validation: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> TrainingHistory:
        """Train in place; restores the best-validation-loss weights.

        Parameters
        ----------
        x, y:
            ``(N, T, H, W)`` heatmap sequences and ``(N,)`` integer labels.
        validation:
            Optional explicit validation split; otherwise
            ``validation_fraction`` of the training data is held out.
        """
        x = np.asarray(x, dtype=model.dtype)
        y = np.asarray(y, dtype=int)
        if len(x) != len(y):
            raise ValueError("x and y lengths differ")
        if len(x) == 0:
            raise ValueError("empty training set")
        # Heatmap -> model boundary guard: a NaN-poisoned dataset would
        # otherwise train to NaN weights without ever crashing.
        ensure_finite(x, "training heatmaps", SimulationError)
        config = self.config
        rng = np.random.default_rng(config.seed)
        if validation is None:
            train_x, train_y, val_x, val_y = self._split_validation(x, y, rng)
        else:
            train_x, train_y = x, y
            val_x, val_y = np.asarray(validation[0], dtype=model.dtype), np.asarray(
                validation[1], dtype=int
            )
            ensure_finite(val_x, "validation heatmaps", SimulationError)

        optimizer = Adam(
            model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
        )
        history = TrainingHistory()
        checkpoint_dir = self._checkpoint_dir()
        start_epoch, best_val, stale_epochs = self._try_resume(
            checkpoint_dir, model, history
        )
        if start_epoch > 0 and (checkpoint_dir / _OPTIMIZER_CHECKPOINT).exists():
            # Without the Adam moments the resumed trajectory silently
            # drifts from an uninterrupted run's; restore them alongside
            # the weights.  Older checkpoints without the file resume cold.
            optimizer.load_state_dict(load_arrays(checkpoint_dir / _OPTIMIZER_CHECKPOINT))
        best_state = model.state_dict()
        if checkpoint_dir is not None and (checkpoint_dir / _BEST_CHECKPOINT).exists() \
                and start_epoch > 0:
            with np.load(checkpoint_dir / _BEST_CHECKPOINT) as archive:
                best_state = {key: archive[key] for key in archive.files}
        restores_used = 0
        # The fit span is the single wall-clock source for the run; forced
        # so ``history.wall_time_s`` works with tracing disabled too.
        fit_span = telemetry().span(
            "train.fit", force=True, samples=len(train_x), epochs=config.epochs
        )
        with fit_span:
            # Replay the shuffles of completed epochs so a resumed run sees
            # the same batch order it would have without the interruption.
            for _ in range(start_epoch):
                rng.permutation(len(train_x))

            for epoch in range(start_epoch, config.epochs):
                model.train()
                order = rng.permutation(len(train_x))
                epoch_loss = 0.0
                epoch_correct = 0
                diverged = False
                epoch_span = telemetry().span("train.epoch", force=True, epoch=epoch)
                with epoch_span:
                    for begin in range(0, len(order), config.batch_size):
                        batch_idx = order[begin : begin + config.batch_size]
                        batch_x = Tensor(train_x[batch_idx])
                        batch_y = train_y[batch_idx]
                        logits = model(batch_x)
                        loss = cross_entropy(logits, batch_y)
                        loss_value = loss.item()
                        if not math.isfinite(loss_value):
                            diverged = True
                            history.diverged_epochs.append(epoch)
                            if config.nan_policy == "raise":
                                raise TrainingDivergenceError(epoch, loss_value)
                            break
                        optimizer.zero_grad()
                        loss.backward()
                        grad_norm = clip_grad_norm(
                            model.parameters(), config.clip_norm
                        )
                        metrics().histogram("trainer.grad_norm").observe(grad_norm)
                        optimizer.step()
                        epoch_loss += loss_value * len(batch_idx)
                        epoch_correct += int(
                            (logits.data.argmax(axis=1) == batch_y).sum()
                        )
                if not diverged:
                    metrics().counter("trainer.samples_processed").inc(len(order))
                    if epoch_span.duration_s > 0.0:
                        metrics().gauge("trainer.samples_per_s").set(
                            len(order) / epoch_span.duration_s
                        )

                if diverged:
                    model.load_state_dict(best_state)
                    if config.nan_policy == "abort":
                        _log.warning(
                            "loss diverged at epoch %d; aborting on best weights",
                            epoch,
                        )
                        break
                    restores_used += 1
                    _log.warning(
                        "loss diverged at epoch %d; restored best checkpoint "
                        "(restore %d/%d)",
                        epoch,
                        restores_used,
                        config.max_divergence_restores,
                    )
                    if restores_used > config.max_divergence_restores:
                        _log.warning("divergence restore budget exhausted; stopping")
                        break
                    # Divergence usually means the Adam moments are poisoned
                    # too; restart the optimizer alongside the weights.
                    optimizer = Adam(
                        model.parameters(),
                        lr=config.learning_rate,
                        weight_decay=config.weight_decay,
                    )
                    continue

                history.train_loss.append(epoch_loss / len(train_x))
                history.train_accuracy.append(epoch_correct / len(train_x))
                metrics().gauge("trainer.epoch_loss").set(history.train_loss[-1])

                if len(val_x):
                    val_loss, val_acc = self.evaluate(model, val_x, val_y)
                    history.val_loss.append(val_loss)
                    history.val_accuracy.append(val_acc)
                    monitored = val_loss
                else:
                    monitored = history.train_loss[-1]

                if monitored < best_val - 1e-6:
                    best_val = monitored
                    best_state = model.state_dict()
                    history.best_epoch = epoch
                    stale_epochs = 0
                    if checkpoint_dir is not None:
                        checkpoint_dir.mkdir(parents=True, exist_ok=True)
                        save_checkpoint(model, checkpoint_dir / _BEST_CHECKPOINT)
                else:
                    stale_epochs += 1
                if checkpoint_dir is not None and (
                    (epoch + 1) % config.checkpoint_every == 0
                    or epoch == config.epochs - 1
                ):
                    self._save_checkpoint(
                        checkpoint_dir, model, optimizer, epoch, best_val,
                        stale_epochs, history,
                    )
                if config.verbose:  # pragma: no cover - console output
                    val_msg = (
                        f" val_loss={history.val_loss[-1]:.4f}"
                        f" val_acc={history.val_accuracy[-1]:.3f}"
                        if len(val_x)
                        else ""
                    )
                    print(
                        f"epoch {epoch + 1}/{config.epochs}"
                        f" loss={history.train_loss[-1]:.4f}"
                        f" acc={history.train_accuracy[-1]:.3f}{val_msg}"
                    )
                if stale_epochs > config.patience:
                    break

            model.load_state_dict(best_state)
        history.wall_time_s = fit_span.duration_s
        return history

    def evaluate(
        self, model: CNNLSTMClassifier, x: np.ndarray, y: np.ndarray
    ) -> "tuple[float, float]":
        """(mean loss, accuracy) on a labeled set, eval mode."""
        x = np.asarray(x, dtype=model.dtype)
        y = np.asarray(y, dtype=int)
        model.eval()
        total_loss = 0.0
        predictions = []
        for begin in range(0, len(x), self.config.batch_size):
            batch_x = Tensor(x[begin : begin + self.config.batch_size])
            batch_y = y[begin : begin + self.config.batch_size]
            logits = model(batch_x)
            total_loss += cross_entropy(logits, batch_y).item() * len(batch_y)
            predictions.append(logits.data.argmax(axis=1))
        predictions_arr = np.concatenate(predictions)
        return total_loss / len(x), accuracy(predictions_arr, y)
