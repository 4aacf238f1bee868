"""End-to-end backdoor attack orchestration (paper Section IV).

Phase 1 (prepare): SHAP-rank the victim activity's frames on a surrogate
model, search trigger positions with the Eq. 2 optimizer, fuse per-frame
optima into the Eq. 4 global position, and manufacture poisoned samples.
Phase 2 (train): the operator unknowingly trains on clean + poisoned data.
Phase 3 (attack): the attacker wears the reflector; triggered samples are
scored with ASR/UASR and clean samples with CDR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.activities import AttackScenario
from ..datasets.dataset import HeatmapDataset
from ..datasets.generation import SampleGenerator
from ..geometry.human import SUBOPTIMAL_ATTACHMENT
from ..models.cnn_lstm import CNNLSTMClassifier, ModelConfig
from ..models.metrics import AttackMetrics, evaluate_attack
from ..models.trainer import Trainer, TrainingConfig
from ..xai.frame_importance import FrameImportanceAnalyzer, FrameImportanceResult
from ..xai.shap import ShapConfig
from .global_position import global_optimal_position, snap_to_candidate
from .placement import PlacementConfig, PlacementResult, TriggerPlacementOptimizer
from .poisoning import PoisonRecipe, inject_poison
from .trigger import TRIGGER_2X2, ReflectorTrigger


@dataclass(frozen=True)
class BackdoorConfig:
    """Attack hyper-parameters (paper defaults: rate 0.4, k = 8 frames)."""

    scenario: AttackScenario
    trigger: ReflectorTrigger = TRIGGER_2X2
    injection_rate: float = 0.4
    num_poisoned_frames: int = 8
    #: Ablation switches (Table I): disable to poison the *first* k frames
    #: or to tape the trigger at a suboptimal body location.
    use_optimal_frames: bool = True
    use_optimal_position: bool = True
    suboptimal_attachment: str = SUBOPTIMAL_ATTACHMENT
    shap: ShapConfig = field(default_factory=lambda: ShapConfig(num_samples=128))
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    #: Victim-activity executions the attacker SHAP-analyzes.
    num_shap_samples: int = 3
    #: (distance, angle) where the placement search runs.
    planning_position: "tuple[float, float]" = (1.2, 0.0)


@dataclass
class AttackPlan:
    """The attacker's prepared strategy: which frames, where to tape."""

    frame_indices: np.ndarray
    attachment_position: np.ndarray
    attachment_name: str
    frame_shap_weights: np.ndarray | None = None
    shap_result: FrameImportanceResult | None = None
    placement_result: PlacementResult | None = None

    def recipe(self, config: BackdoorConfig) -> PoisonRecipe:
        return PoisonRecipe(
            scenario=config.scenario,
            trigger=config.trigger,
            attachment_position=self.attachment_position,
            frame_indices=self.frame_indices,
            injection_rate=config.injection_rate,
            attachment_name=self.attachment_name,
        )


class BackdoorAttack:
    """Plans the attack against a surrogate model (threat model: the
    attacker trains their own surrogate on clean data and knows the
    victim's architecture, but never touches the victim's training)."""

    def __init__(
        self,
        surrogate: CNNLSTMClassifier,
        attacker_generator: SampleGenerator,
        config: BackdoorConfig,
    ):
        self.surrogate = surrogate
        self.generator = attacker_generator
        self.config = config

    # ------------------------------------------------------------------
    # Phase 1a: frame selection
    # ------------------------------------------------------------------
    def select_frames(
        self, victim_samples: np.ndarray | None = None
    ) -> "tuple[np.ndarray, np.ndarray, FrameImportanceResult | None]":
        """(frame indices, per-frame SHAP weights, full SHAP result)."""
        config = self.config
        num_frames = self.generator.config.num_frames
        k = config.num_poisoned_frames
        if not 1 <= k <= num_frames:
            raise ValueError(f"num_poisoned_frames must be in [1, {num_frames}]")
        if not config.use_optimal_frames:
            return np.arange(k), np.ones(num_frames), None

        if victim_samples is None:
            distance, angle = config.planning_position
            victim_samples = np.stack(
                [
                    self.generator.generate_sample(
                        config.scenario.victim, distance, angle
                    )
                    for _ in range(config.num_shap_samples)
                ]
            )
        analyzer = FrameImportanceAnalyzer(self.surrogate, config.shap)
        labels = np.full(len(victim_samples), config.scenario.victim_label)
        result = analyzer.analyze(victim_samples, labels=labels, k=k)
        weights = np.clip(result.mean_importance(), 0.0, None)
        return result.consensus_top_k(), weights, result

    # ------------------------------------------------------------------
    # Phase 1b: position selection
    # ------------------------------------------------------------------
    def select_position(
        self, frame_shap_weights: np.ndarray | None
    ) -> "tuple[np.ndarray, str, PlacementResult | None]":
        """(attachment position, its name, full placement result)."""
        config = self.config
        if not config.use_optimal_position:
            from ..geometry.human import BODY_ATTACHMENT_POINTS

            name = config.suboptimal_attachment
            return np.array(BODY_ATTACHMENT_POINTS[name]), name, None

        distance, angle = config.planning_position
        optimizer = TriggerPlacementOptimizer(
            self.surrogate, self.generator, config.trigger, config.placement
        )
        placement = optimizer.optimize(config.scenario.victim, distance, angle)
        if frame_shap_weights is None:
            frame_shap_weights = np.ones(placement.num_frames)
        gop = global_optimal_position(placement, frame_shap_weights)
        _, name, snapped = snap_to_candidate(gop, placement)
        return snapped, name, placement

    # ------------------------------------------------------------------
    # Phase 1: full plan
    # ------------------------------------------------------------------
    def plan(self, victim_samples: np.ndarray | None = None) -> AttackPlan:
        frames, weights, shap_result = self.select_frames(victim_samples)
        position, name, placement = self.select_position(
            weights if self.config.use_optimal_frames else None
        )
        return AttackPlan(
            frame_indices=frames,
            attachment_position=position,
            attachment_name=name,
            frame_shap_weights=weights,
            shap_result=shap_result,
            placement_result=placement,
        )


def train_backdoored_model(
    clean_train: HeatmapDataset,
    poisoned: HeatmapDataset,
    model_config: ModelConfig,
    training_config: TrainingConfig,
    rng: np.random.Generator,
) -> CNNLSTMClassifier:
    """Phase 2: the operator trains on the contaminated pool."""
    combined = inject_poison(clean_train, poisoned, rng)
    model = CNNLSTMClassifier(model_config, rng)
    Trainer(training_config).fit(model, combined.x, combined.y)
    return model


def evaluate_backdoored_model(
    model: CNNLSTMClassifier,
    triggered_test: HeatmapDataset,
    clean_test: HeatmapDataset,
    target_label: int,
) -> AttackMetrics:
    """Phase 3: score ASR/UASR on triggered samples, CDR on clean ones."""
    triggered_predictions = model.predict(triggered_test.x)
    clean_predictions = model.predict(clean_test.x)
    return evaluate_attack(
        triggered_predictions,
        triggered_test.y,
        target_label,
        clean_predictions,
        clean_test.y,
    )

