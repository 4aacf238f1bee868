"""Top-k important frame selection and the Fig. 3 frame-index histogram.

The attacker poisons only the frames that matter most to the LSTM's
decision (paper Section V-A): per sample, SHAP values rank the 32 frames
and the top-k are selected for trigger injection.  Aggregated over many
samples, the index distribution of the *most* important frame reproduces
the paper's Fig. 3 histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.cnn_lstm import CNNLSTMClassifier
from .shap import KernelShapExplainer, PermutationShapExplainer, ShapConfig


def top_k_frames(shap_values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest-SHAP frames, most important first.

    Importance is the signed contribution toward the explained class:
    frames that *support* the prediction are the ones whose replacement
    the LSTM will notice most.
    """
    shap_values = np.asarray(shap_values, dtype=float)
    if shap_values.ndim != 1:
        raise ValueError("shap_values must be 1-D (one value per frame)")
    if not 1 <= k <= len(shap_values):
        raise ValueError(f"k must be in [1, {len(shap_values)}]")
    order = np.argsort(shap_values)[::-1]
    return order[:k].copy()


@dataclass
class FrameImportanceResult:
    """Per-sample SHAP values and derived aggregates over a dataset."""

    shap_values: np.ndarray  # (N, T)
    top_frames: np.ndarray  # (N, k)
    k: int

    @property
    def num_frames(self) -> int:
        return self.shap_values.shape[1]

    def most_important_histogram(self) -> np.ndarray:
        """``(T,)`` counts of which index was each sample's top frame (Fig. 3)."""
        counts = np.zeros(self.num_frames, dtype=int)
        np.add.at(counts, self.top_frames[:, 0], 1)
        return counts

    def mean_importance(self) -> np.ndarray:
        """``(T,)`` average SHAP value per frame index across samples."""
        return self.shap_values.mean(axis=0)

    def consensus_top_k(self) -> np.ndarray:
        """The k frame indices most often selected across samples.

        This is what the attacker actually uses: a single frame set that
        works across executions of the victim activity (the trigger is
        physically present during *all* frames at test time; the choice
        only controls which *training* frames are poisoned).
        """
        counts = np.zeros(self.num_frames, dtype=int)
        np.add.at(counts, self.top_frames.ravel(), 1)
        return np.argsort(counts)[::-1][: self.k].copy()


class FrameImportanceAnalyzer:
    """Runs SHAP frame attribution over many samples of one activity."""

    def __init__(
        self,
        model: CNNLSTMClassifier,
        config: ShapConfig | None = None,
        method: str = "kernel",
    ):
        if method not in ("kernel", "permutation"):
            raise ValueError("method must be 'kernel' or 'permutation'")
        self.model = model
        self.config = config or ShapConfig()
        if method == "kernel":
            self.explainer = KernelShapExplainer(model, self.config)
        else:
            self.explainer = PermutationShapExplainer(model, self.config)

    def analyze(
        self,
        sequences: np.ndarray,
        labels: np.ndarray | None = None,
        k: int = 8,
    ) -> FrameImportanceResult:
        """SHAP-score every sample and select its top-k frames.

        Parameters
        ----------
        sequences:
            ``(N, T, H, W)`` heatmap sequences of the victim activity.
        labels:
            Class index to attribute per sample (defaults to the model's
            prediction — the attacker explains the surrogate's output).
        k:
            Number of frames the attacker will poison.
        """
        sequences = np.asarray(sequences)
        if sequences.ndim == 3:
            sequences = sequences[None]
        features = self.model.frame_features(sequences)
        values = []
        tops = []
        for index in range(len(sequences)):
            class_index = None if labels is None else int(np.asarray(labels)[index])
            phi = self.explainer.explain(features[index], class_index=class_index)
            values.append(phi)
            tops.append(top_k_frames(phi, k))
        return FrameImportanceResult(
            shap_values=np.stack(values), top_frames=np.stack(tops), k=k
        )
