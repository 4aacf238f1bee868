"""The mmWave HAR prototype model: CNN-LSTM classifier, trainer, metrics."""

from .cnn_lstm import CNNLSTMClassifier, FrameEncoder, ModelConfig
from .metrics import (
    AttackMetrics,
    accuracy,
    attack_success_rate,
    clean_data_rate,
    confusion_matrix,
    evaluate_attack,
    mean_attack_metrics,
    untargeted_success_rate,
)
from .trainer import Trainer, TrainingConfig, TrainingHistory

__all__ = [
    "AttackMetrics",
    "CNNLSTMClassifier",
    "FrameEncoder",
    "ModelConfig",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "accuracy",
    "attack_success_rate",
    "clean_data_rate",
    "confusion_matrix",
    "evaluate_attack",
    "mean_attack_metrics",
    "untargeted_success_rate",
]
