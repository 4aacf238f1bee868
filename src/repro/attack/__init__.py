"""The paper's core contribution: the physical backdoor attack pipeline."""

from .backdoor import (
    AttackPlan,
    BackdoorAttack,
    BackdoorConfig,
    BackdoorExperimentResult,
    evaluate_backdoored_model,
    train_backdoored_model,
)
from .global_position import (
    global_optimal_position,
    snap_to_candidate,
    weighted_geometric_median,
)
from .placement import (
    PlacementConfig,
    PlacementResult,
    TriggerPlacementOptimizer,
    candidate_positions,
)
from .poisoning import (
    PairPool,
    PoisonRecipe,
    build_pair_pool,
    build_poisoned_dataset,
    compose_poisoned_dataset,
    build_triggered_test_set,
    inject_poison,
    poisoned_sample_count,
)
from .trigger import (
    CLOTHING_ATTENUATION,
    TRIGGER_2X2,
    TRIGGER_4X4,
    ReflectorTrigger,
    inches,
)

__all__ = [
    "AttackPlan",
    "BackdoorAttack",
    "BackdoorConfig",
    "BackdoorExperimentResult",
    "CLOTHING_ATTENUATION",
    "PairPool",
    "PlacementConfig",
    "PlacementResult",
    "PoisonRecipe",
    "ReflectorTrigger",
    "TRIGGER_2X2",
    "TRIGGER_4X4",
    "TriggerPlacementOptimizer",
    "build_pair_pool",
    "build_poisoned_dataset",
    "compose_poisoned_dataset",
    "build_triggered_test_set",
    "candidate_positions",
    "evaluate_backdoored_model",
    "global_optimal_position",
    "inches",
    "inject_poison",
    "poisoned_sample_count",
    "snap_to_candidate",
    "train_backdoored_model",
    "weighted_geometric_median",
]
