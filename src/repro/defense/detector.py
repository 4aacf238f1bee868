"""Trigger-detection defense (paper Section VII).

The defender trains a binary classifier that flags heatmap sequences
containing a metal-reflector return.  The paper notes the core difficulty:
attackers at different positions/orientations produce different reflection
patterns.  Following its suggestion to "combine the orientation and
relative position of the attacker with the original heatmap", the detector
canonicalizes each sequence — rolling the range/angle axes so the subject's
energy centroid is centered — before classification, making the decision
position-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.dataset import HeatmapDataset
from ..models.cnn_lstm import CNNLSTMClassifier, ModelConfig
from ..models.trainer import Trainer, TrainingConfig


def estimate_subject_cell(sequence: np.ndarray) -> "tuple[int, int]":
    """(range bin, angle bin) of the subject's energy centroid.

    Averaged over frames; this is the "relative position" signal the
    defense conditions on (range centroid tracks distance, angle centroid
    tracks azimuth).
    """
    sequence = np.asarray(sequence, dtype=float)
    if sequence.ndim != 3:
        raise ValueError("sequence must be (T, H, W)")
    energy = sequence.sum(axis=0)
    total = energy.sum()
    if total <= 0.0:
        return sequence.shape[1] // 2, sequence.shape[2] // 2
    range_axis = np.arange(sequence.shape[1])
    angle_axis = np.arange(sequence.shape[2])
    range_centroid = float((energy.sum(axis=1) * range_axis).sum() / total)
    angle_centroid = float((energy.sum(axis=0) * angle_axis).sum() / total)
    return int(round(range_centroid)), int(round(angle_centroid))


def canonicalize_sequence(sequence: np.ndarray) -> np.ndarray:
    """Roll the sequence so the subject centroid sits at the frame center."""
    sequence = np.asarray(sequence, dtype=float)
    range_bin, angle_bin = estimate_subject_cell(sequence)
    center_r = sequence.shape[1] // 2
    center_a = sequence.shape[2] // 2
    return np.roll(
        np.roll(sequence, center_r - range_bin, axis=1), center_a - angle_bin, axis=2
    )


def canonicalize_dataset(x: np.ndarray) -> np.ndarray:
    """Canonicalize every sequence in an ``(N, T, H, W)`` array."""
    return np.stack([canonicalize_sequence(sample) for sample in np.asarray(x)])


@dataclass(frozen=True)
class DetectorConfig:
    """Detector hyper-parameters (a small CNN-LSTM with two outputs)."""

    conv_channels: "tuple[int, int]" = (6, 12)
    feature_dim: int = 24
    lstm_hidden: int = 24
    dropout: float = 0.1
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, learning_rate=3e-3)
    )
    canonicalize: bool = True


@dataclass
class DetectionReport:
    """Evaluation of the detector on held-out clean/triggered samples."""

    accuracy: float
    true_positive_rate: float
    false_positive_rate: float
    auc: float

    def __str__(self) -> str:
        return (
            f"acc={self.accuracy:.1%} TPR={self.true_positive_rate:.1%} "
            f"FPR={self.false_positive_rate:.1%} AUC={self.auc:.3f}"
        )


def _binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC via the rank statistic (ties get midranks)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    positives = labels == 1
    n_pos = int(positives.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = scores.argsort(kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = ranks[positives].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TriggerDetector:
    """Binary trigger-presence classifier over heatmap sequences."""

    def __init__(
        self,
        frame_shape: "tuple[int, int]",
        num_frames: int,
        config: DetectorConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or DetectorConfig()
        self.num_frames = num_frames
        model_config = ModelConfig(
            frame_shape=frame_shape,
            num_classes=2,
            conv_channels=self.config.conv_channels,
            feature_dim=self.config.feature_dim,
            lstm_hidden=self.config.lstm_hidden,
            dropout=self.config.dropout,
        )
        self.model = CNNLSTMClassifier(model_config, rng or np.random.default_rng(0))

    def _prepare(self, x: np.ndarray) -> np.ndarray:
        if self.config.canonicalize:
            return canonicalize_dataset(x)
        return np.asarray(x, dtype=float)

    def fit(self, clean: HeatmapDataset, triggered: HeatmapDataset) -> None:
        """Train on labeled clean (0) vs triggered (1) samples.

        Defenders typically have far fewer triggered examples than clean
        ones; the minority class is oversampled (with replacement) so the
        detector cannot satisfy the loss by always answering "clean".
        """
        clean_x = self._prepare(clean.x)
        triggered_x = self._prepare(triggered.x)
        rng = np.random.default_rng(self.config.training.seed)
        target = max(len(clean_x), len(triggered_x))

        def oversample(data: np.ndarray) -> np.ndarray:
            if len(data) >= target:
                return data
            extra = rng.choice(len(data), size=target - len(data), replace=True)
            return np.concatenate([data, data[extra]])

        clean_x = oversample(clean_x)
        triggered_x = oversample(triggered_x)
        x = np.concatenate([clean_x, triggered_x])
        y = np.concatenate(
            [np.zeros(len(clean_x), dtype=int), np.ones(len(triggered_x), dtype=int)]
        )
        Trainer(self.config.training).fit(self.model, x, y)

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Trigger-presence probability per sample."""
        return self.model.predict_proba(self._prepare(x))[:, 1]

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Boolean trigger-presence decisions."""
        return self.scores(x) >= threshold

    def evaluate(
        self, clean: HeatmapDataset, triggered: HeatmapDataset, threshold: float = 0.5
    ) -> DetectionReport:
        """Score held-out clean/triggered sets."""
        clean_scores = self.scores(clean.x)
        triggered_scores = self.scores(triggered.x)
        scores = np.concatenate([clean_scores, triggered_scores])
        labels = np.concatenate(
            [np.zeros(len(clean), dtype=int), np.ones(len(triggered), dtype=int)]
        )
        decisions = scores >= threshold
        tpr = float(decisions[labels == 1].mean())
        fpr = float(decisions[labels == 0].mean())
        return DetectionReport(
            accuracy=float((decisions == labels).mean()),
            true_positive_rate=tpr,
            false_positive_rate=fpr,
            auc=_binary_auc(scores, labels),
        )
