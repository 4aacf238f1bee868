"""The prototype's hybrid CNN-LSTM activity classifier (paper Section II-A).

A small CNN encodes each DRAI heatmap frame into a feature vector; an LSTM
consumes the 32-frame feature series; a fully connected head classifies the
final hidden state into the six hand activities.  The frame-feature /
temporal-head split is load-bearing for the attack: SHAP frame importance
(Eq. 1) and the Eq. 2 feature-distance objective both operate on the CNN
features under the LSTM, so the model exposes
:meth:`CNNLSTMClassifier.frame_features` and
:meth:`CNNLSTMClassifier.classify_feature_series` as separate stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import (
    LSTM,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Tensor,
    softmax,
)


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the CNN-LSTM prototype."""

    frame_shape: "tuple[int, int]" = (32, 32)
    num_classes: int = 6
    conv_channels: "tuple[int, int]" = (8, 16)
    feature_dim: int = 32
    lstm_hidden: int = 48
    dropout: float = 0.2

    def __post_init__(self) -> None:
        h, w = self.frame_shape
        if h % 4 or w % 4:
            raise ValueError("frame dims must be divisible by 4 (two 2x2 pools)")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")


class FrameEncoder(Module):
    """CNN mapping one heatmap frame ``(N, H, W)`` to a feature vector."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        c1, c2 = config.conv_channels
        h, w = config.frame_shape
        # Pool before ReLU: max commutes with ReLU, so the ReLU runs on a
        # quarter of the values with equal outputs.  The convs stay at
        # indices 0 and 3, where state-dict keys expect them.
        self.body = Sequential(
            Conv2d(1, c1, 3, rng, padding=1),
            MaxPool2d(2),
            ReLU(),
            Conv2d(c1, c2, 3, rng, padding=1),
            MaxPool2d(2),
            ReLU(),
            Flatten(),
        )
        self.projection = Linear(c2 * (h // 4) * (w // 4), config.feature_dim, rng)

    def forward(self, frames: Tensor) -> Tensor:
        """``(N, H, W)`` frames -> ``(N, feature_dim)`` features."""
        if frames.ndim != 3:
            raise ValueError(f"expected (N, H, W) frames, got {frames.shape}")
        x = frames.reshape(frames.shape[0], 1, *frames.shape[1:])
        return self.projection(self.body(x)).relu()


class CNNLSTMClassifier(Module):
    """Frame CNN + LSTM + FC head over ``(N, T, H, W)`` heatmap sequences."""

    def __init__(
        self,
        config: ModelConfig | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        self.config = config or ModelConfig()
        rng = rng or np.random.default_rng(0)
        self.encoder = FrameEncoder(self.config, rng)
        self.lstm = LSTM(self.config.feature_dim, self.config.lstm_hidden, rng)
        self.dropout = Dropout(self.config.dropout, rng)
        self.head = Linear(self.config.lstm_hidden, self.config.num_classes, rng)
        # float32 roughly halves NumPy training time at no accuracy cost.
        self.astype(dtype)

    # ------------------------------------------------------------------
    # Full forward pass
    # ------------------------------------------------------------------
    def forward(self, sequences: Tensor) -> Tensor:
        """``(N, T, H, W)`` heatmaps -> ``(N, num_classes)`` logits."""
        if sequences.ndim != 4:
            raise ValueError(f"expected (N, T, H, W), got {sequences.shape}")
        n, t = sequences.shape[:2]
        flat = sequences.reshape(n * t, *sequences.shape[2:])
        features = self.encoder(flat).reshape(n, t, self.config.feature_dim)
        hidden = self.lstm(self.dropout(features))
        return self.head(self.dropout(hidden))

    # ------------------------------------------------------------------
    # Staged access used by the attack pipeline
    # ------------------------------------------------------------------
    def frame_features(self, sequences: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Per-frame CNN features ``(N, T, feature_dim)`` (inference only)."""
        sequences = np.asarray(sequences, dtype=self.dtype)
        if sequences.ndim == 3:  # single sample
            sequences = sequences[None]
        n, t = sequences.shape[:2]
        flat = sequences.reshape(n * t, *sequences.shape[2:])
        chunks = []
        was_training = self.training
        self.eval()
        try:
            for start in range(0, len(flat), batch_size):
                chunk = Tensor(flat[start : start + batch_size])
                chunks.append(self.encoder(chunk).data)
        finally:
            if was_training:
                self.train()
        return np.concatenate(chunks).reshape(n, t, self.config.feature_dim)

    def classify_feature_series(self, features: np.ndarray) -> np.ndarray:
        """Logits ``(N, num_classes)`` from a feature series ``(N, T, D)``.

        This is the ``f`` of Eq. 1: the LSTM + head applied to (possibly
        masked) frame-feature series, bypassing the CNN.
        """
        features = np.asarray(features, dtype=self.dtype)
        if features.ndim == 2:
            features = features[None]
        was_training = self.training
        self.eval()
        try:
            hidden = self.lstm(Tensor(features))
            return self.head(hidden).data
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    # Inference conveniences
    # ------------------------------------------------------------------
    def predict_logits(self, sequences: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Logits for a batch of heatmap sequences, eval mode, batched."""
        sequences = np.asarray(sequences, dtype=self.dtype)
        if sequences.ndim == 3:
            sequences = sequences[None]
        was_training = self.training
        self.eval()
        outputs = []
        try:
            for start in range(0, len(sequences), batch_size):
                batch = Tensor(sequences[start : start + batch_size])
                outputs.append(self.forward(batch).data)
        finally:
            if was_training:
                self.train()
        return np.concatenate(outputs)

    def predict(self, sequences: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Predicted class labels ``(N,)``."""
        return self.predict_logits(sequences, batch_size).argmax(axis=1)

    def predict_proba(self, sequences: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Class probabilities ``(N, num_classes)``."""
        return softmax(self.predict_logits(sequences, batch_size), axis=1)
