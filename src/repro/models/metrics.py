"""Classification and attack metrics: accuracy, confusion matrix, ASR/UASR/CDR.

The three attack metrics follow the paper's Section VI-E definitions:

* **ASR** — fraction of triggered samples classified as the attacker's
  target label.
* **UASR** — fraction of triggered samples classified as anything other
  than their true label (untargeted success).
* **CDR** — fraction of clean samples still classified correctly by the
  backdoored model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact label matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label shapes differ")
    if predictions.size == 0:
        raise ValueError("empty prediction array")
    return float((predictions == labels).mean())


def confusion_matrix(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """``(num_classes, num_classes)`` count matrix, rows = true labels."""
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label shapes differ")
    matrix = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(matrix, (labels, predictions), 1)
    return matrix


def attack_success_rate(
    predictions: np.ndarray, target_label: int
) -> float:
    """ASR: fraction of triggered samples predicted as ``target_label``."""
    predictions = np.asarray(predictions)
    if predictions.size == 0:
        raise ValueError("no attack samples")
    return float((predictions == target_label).mean())


def untargeted_success_rate(
    predictions: np.ndarray, true_labels: np.ndarray
) -> float:
    """UASR: fraction of triggered samples misclassified (any wrong label)."""
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.size == 0:
        raise ValueError("no attack samples")
    return float((predictions != true_labels).mean())


def clean_data_rate(predictions: np.ndarray, labels: np.ndarray) -> float:
    """CDR: clean-sample accuracy of the backdoored model."""
    return accuracy(predictions, labels)


@dataclass(frozen=True)
class AttackMetrics:
    """The (ASR, UASR, CDR) triple reported throughout Section VI."""

    asr: float
    uasr: float
    cdr: float

    def __str__(self) -> str:
        return f"ASR={self.asr:.1%} UASR={self.uasr:.1%} CDR={self.cdr:.1%}"


def evaluate_attack(
    triggered_predictions: np.ndarray,
    triggered_true_labels: np.ndarray,
    target_label: int,
    clean_predictions: np.ndarray,
    clean_labels: np.ndarray,
) -> AttackMetrics:
    """Bundle ASR/UASR/CDR from triggered and clean test predictions."""
    return AttackMetrics(
        asr=attack_success_rate(triggered_predictions, target_label),
        uasr=untargeted_success_rate(triggered_predictions, triggered_true_labels),
        cdr=clean_data_rate(clean_predictions, clean_labels),
    )


def mean_attack_metrics(results: "list[AttackMetrics]") -> AttackMetrics:
    """Average metrics over repeated training runs (the paper averages 30)."""
    if not results:
        raise ValueError("no results to average")
    return AttackMetrics(
        asr=float(np.mean([r.asr for r in results])),
        uasr=float(np.mean([r.uasr for r in results])),
        cdr=float(np.mean([r.cdr for r in results])),
    )
