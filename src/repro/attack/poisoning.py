"""Training-data poisoning: frame replacement + label flipping.

Implements the paper's poisoning mechanics (Section IV): for each poisoned
sample, the attacker takes a clean execution of the victim activity,
replaces its top-k important frames with the trigger-bearing versions of
the *same* execution, assigns the target label, and contributes the result
to the training pool.  The injection rate is the ratio of poisoned samples
to the victim class's clean training samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.activities import AttackScenario
from ..datasets.dataset import HeatmapDataset, SampleMeta, concat_datasets
from ..datasets.generation import SampleGenerator
from .trigger import ReflectorTrigger


@dataclass(frozen=True)
class PoisonRecipe:
    """Everything needed to manufacture poisoned training samples."""

    scenario: AttackScenario
    trigger: ReflectorTrigger
    #: Subject-local trigger position (the Eq. 4 global optimum, or an
    #: ablation choice like the leg).
    attachment_position: np.ndarray
    #: Frames whose clean content is replaced by triggered content
    #: (the SHAP top-k, or an ablation choice like the first k).
    frame_indices: np.ndarray
    #: Poisoned-to-clean-victim-class sample ratio.
    injection_rate: float
    attachment_name: str = ""

    def __post_init__(self) -> None:
        position = np.asarray(self.attachment_position, dtype=float)
        if position.shape != (3,):
            raise ValueError("attachment_position must be a 3-vector")
        object.__setattr__(self, "attachment_position", position)
        frames = np.asarray(self.frame_indices, dtype=int)
        if frames.ndim != 1 or len(frames) == 0:
            raise ValueError("frame_indices must be a non-empty 1-D index array")
        if len(np.unique(frames)) != len(frames):
            raise ValueError("frame_indices must be unique")
        object.__setattr__(self, "frame_indices", frames)
        if not 0.0 < self.injection_rate:
            raise ValueError("injection_rate must be positive")

    @property
    def num_poisoned_frames(self) -> int:
        return len(self.frame_indices)


def poisoned_sample_count(train_set: HeatmapDataset, recipe: PoisonRecipe) -> int:
    """Number of poisoned samples implied by the injection rate."""
    victim_count = len(train_set.class_indices(recipe.scenario.victim_label))
    return max(1, int(round(victim_count * recipe.injection_rate)))


@dataclass
class PairPool:
    """Matched (clean, triggered) executions of the victim activity.

    Generating pairs is the expensive step; composing poisoned samples
    from them (frame replacement) is free.  Sweeps over the number of
    poisoned frames or the injection rate therefore build one pool and
    re-compose it per configuration.
    """

    clean: np.ndarray  # (N, T, H, W)
    triggered: np.ndarray  # (N, T, H, W)
    meta: "list[SampleMeta]"

    def __post_init__(self) -> None:
        if self.clean.shape != self.triggered.shape:
            raise ValueError("clean/triggered shapes differ")
        if len(self.meta) != len(self.clean):
            raise ValueError("meta length mismatch")

    def __len__(self) -> int:
        return len(self.clean)

    @property
    def num_frames(self) -> int:
        return self.clean.shape[1]


def build_pair_pool(
    generator: SampleGenerator,
    victim_activity: str,
    trigger: ReflectorTrigger,
    attachment_position: np.ndarray,
    num_samples: int,
    attachment_name: str = "",
) -> PairPool:
    """Generate matched clean/triggered pairs across the position grid."""
    if num_samples < 1:
        raise ValueError("need at least one pair")
    config = generator.config
    positions = [(d, a) for d in config.distances_m for a in config.angles_deg]
    trigger_mesh = trigger.mesh_at(np.asarray(attachment_position, dtype=float))
    cleans, triggereds, metas = [], [], []
    for index in range(num_samples):
        distance, angle = positions[index % len(positions)]
        participant = int(generator.rng.integers(len(config.participants)))
        stature = config.participants[participant]
        clean, triggered = generator.generate_paired_sample(
            victim_activity, distance, angle, trigger_mesh, stature=stature
        )
        cleans.append(clean.astype(np.float32))
        triggereds.append(triggered.astype(np.float32))
        metas.append(
            SampleMeta(
                activity=victim_activity,
                distance_m=distance,
                angle_deg=angle,
                participant=participant,
                has_trigger=True,
                trigger_attachment=attachment_name,
            )
        )
    return PairPool(np.stack(cleans), np.stack(triggereds), metas)


def compose_poisoned_dataset(
    pool: PairPool,
    frame_indices: np.ndarray,
    target_label: int,
    num_samples: int | None = None,
) -> HeatmapDataset:
    """Poisoned samples from a pair pool: replace frames, flip labels."""
    frame_indices = np.asarray(frame_indices, dtype=int)
    if frame_indices.max() >= pool.num_frames:
        raise ValueError("frame index out of range for the pool")
    count = len(pool) if num_samples is None else num_samples
    if not 1 <= count <= len(pool):
        raise ValueError(f"num_samples must be in [1, {len(pool)}]")
    poisoned = pool.clean[:count].copy()
    poisoned[:, frame_indices] = pool.triggered[:count][:, frame_indices]
    labels = np.full(count, target_label, dtype=np.int64)
    return HeatmapDataset(poisoned, labels, list(pool.meta[:count]))


def build_poisoned_dataset(
    generator: SampleGenerator,
    recipe: PoisonRecipe,
    num_samples: int,
) -> HeatmapDataset:
    """Manufacture ``num_samples`` poisoned samples, labeled as the target.

    Positions cycle the generator's configured grid, matching how the
    paper poisons across its 12 experimental positions.
    """
    pool = build_pair_pool(
        generator,
        recipe.scenario.victim,
        recipe.trigger,
        recipe.attachment_position,
        num_samples,
        attachment_name=recipe.attachment_name,
    )
    return compose_poisoned_dataset(
        pool, recipe.frame_indices, recipe.scenario.target_label
    )


def inject_poison(
    train_set: HeatmapDataset,
    poisoned: HeatmapDataset,
    rng: np.random.Generator,
) -> HeatmapDataset:
    """The backdoored training set: clean + poisoned, shuffled together."""
    return concat_datasets([train_set, poisoned]).shuffled(rng)


def build_triggered_test_set(
    generator: SampleGenerator,
    recipe: PoisonRecipe,
    num_samples: int,
    positions: "list[tuple[float, float]] | None" = None,
) -> HeatmapDataset:
    """Attack-time test samples: victim activity with the trigger worn.

    Unlike training poisoning, *every* frame carries the trigger (the
    reflector is physically taped on throughout the gesture); labels stay
    the true victim label so ASR/UASR can be scored against them.
    """
    if num_samples < 1:
        raise ValueError("need at least one test sample")
    config = generator.config
    if positions is None:
        positions = [(d, a) for d in config.distances_m for a in config.angles_deg]
    trigger_mesh = recipe.trigger.mesh_at(recipe.attachment_position)
    xs, metas = [], []
    for index in range(num_samples):
        distance, angle = positions[index % len(positions)]
        participant = int(generator.rng.integers(len(config.participants)))
        stature = config.participants[participant]
        sample = generator.generate_sample(
            recipe.scenario.victim,
            distance,
            angle,
            stature=stature,
            attachment_mesh=trigger_mesh,
        )
        xs.append(sample.astype(np.float32))
        metas.append(
            SampleMeta(
                activity=recipe.scenario.victim,
                distance_m=distance,
                angle_deg=angle,
                participant=participant,
                has_trigger=True,
                trigger_attachment=recipe.attachment_name,
            )
        )
    labels = np.full(num_samples, recipe.scenario.victim_label, dtype=np.int64)
    return HeatmapDataset(np.stack(xs), labels, metas)
