"""Tests for accuracy, confusion matrix and ASR/UASR/CDR metrics."""

import numpy as np
import pytest

from repro.models import (
    AttackMetrics,
    accuracy,
    attack_success_rate,
    clean_data_rate,
    confusion_matrix,
    evaluate_attack,
    mean_attack_metrics,
    untargeted_success_rate,
)


def test_accuracy_basic():
    assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)


def test_accuracy_validation():
    with pytest.raises(ValueError):
        accuracy(np.array([1]), np.array([1, 2]))
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))


def test_confusion_matrix_counts():
    predictions = np.array([0, 0, 1, 2])
    labels = np.array([0, 1, 1, 2])
    matrix = confusion_matrix(predictions, labels, 3)
    assert matrix[0, 0] == 1
    assert matrix[1, 0] == 1
    assert matrix[1, 1] == 1
    assert matrix[2, 2] == 1
    assert matrix.sum() == 4


def test_confusion_matrix_rows_are_true_labels():
    matrix = confusion_matrix(np.array([1]), np.array([0]), 2)
    assert matrix[0, 1] == 1 and matrix[1, 0] == 0


def test_asr_counts_target_hits():
    predictions = np.array([2, 2, 1, 0])
    assert attack_success_rate(predictions, target_label=2) == pytest.approx(0.5)


def test_uasr_counts_any_misclassification():
    predictions = np.array([2, 2, 1, 0])
    true = np.array([0, 0, 0, 0])
    assert untargeted_success_rate(predictions, true) == pytest.approx(0.75)


def test_uasr_geq_asr_always():
    rng = np.random.default_rng(0)
    predictions = rng.integers(0, 6, 50)
    true = np.zeros(50, dtype=int)
    asr = attack_success_rate(predictions, target_label=3)
    uasr = untargeted_success_rate(predictions, true)
    assert uasr >= asr  # a targeted hit is also an untargeted success


def test_cdr_is_clean_accuracy():
    assert clean_data_rate(np.array([1, 1]), np.array([1, 0])) == pytest.approx(0.5)


def test_evaluate_attack_bundle():
    metrics = evaluate_attack(
        triggered_predictions=np.array([1, 1, 0]),
        triggered_true_labels=np.array([0, 0, 0]),
        target_label=1,
        clean_predictions=np.array([0, 1, 2, 3]),
        clean_labels=np.array([0, 1, 2, 0]),
    )
    assert metrics.asr == pytest.approx(2 / 3)
    assert metrics.uasr == pytest.approx(2 / 3)
    assert metrics.cdr == pytest.approx(3 / 4)
    assert "ASR" in str(metrics)


def test_mean_attack_metrics():
    a = AttackMetrics(asr=0.8, uasr=0.9, cdr=0.95)
    b = AttackMetrics(asr=0.6, uasr=0.7, cdr=0.85)
    mean = mean_attack_metrics([a, b])
    assert mean.asr == pytest.approx(0.7)
    assert mean.uasr == pytest.approx(0.8)
    assert mean.cdr == pytest.approx(0.9)
    with pytest.raises(ValueError):
        mean_attack_metrics([])
