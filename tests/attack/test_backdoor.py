"""Tests for attack orchestration (plan -> poison -> train -> evaluate)."""

import numpy as np
import pytest

from repro.attack import (
    TRIGGER_2X2,
    BackdoorAttack,
    BackdoorConfig,
    evaluate_backdoored_model,
    train_backdoored_model,
)
from repro.attack.placement import PlacementConfig
from repro.datasets import AttackScenario
from repro.models import TrainingConfig
from repro.xai import ShapConfig

SCENARIO = AttackScenario("push", "pull", similar=True)


def make_config(**overrides):
    defaults = dict(
        scenario=SCENARIO,
        trigger=TRIGGER_2X2,
        num_poisoned_frames=3,
        shap=ShapConfig(num_samples=32, seed=0),
        placement=PlacementConfig(grid_nx=1, grid_nz=2),
        num_shap_samples=1,
        planning_position=(1.0, 0.0),
    )
    defaults.update(overrides)
    return BackdoorConfig(**defaults)


@pytest.fixture(scope="module")
def attack(trained_micro_model, micro_generator):
    return BackdoorAttack(trained_micro_model, micro_generator, make_config())


def test_select_frames_shap(attack, micro_generator):
    frames, weights, result = attack.select_frames()
    assert len(frames) == 3
    assert len(set(frames.tolist())) == 3
    assert weights.shape == (micro_generator.config.num_frames,)
    assert (weights >= 0.0).all()
    assert result is not None


def test_select_frames_ablation_uses_first_k(trained_micro_model, micro_generator):
    attack = BackdoorAttack(
        trained_micro_model, micro_generator, make_config(use_optimal_frames=False)
    )
    frames, _, result = attack.select_frames()
    assert frames.tolist() == [0, 1, 2]
    assert result is None


def test_select_frames_k_validated(trained_micro_model, micro_generator):
    attack = BackdoorAttack(
        trained_micro_model, micro_generator, make_config(num_poisoned_frames=99)
    )
    with pytest.raises(ValueError):
        attack.select_frames()


def test_select_position_ablation(trained_micro_model, micro_generator):
    attack = BackdoorAttack(
        trained_micro_model, micro_generator,
        make_config(use_optimal_position=False),
    )
    position, name, placement = attack.select_position(None)
    assert name == "left_leg"
    assert placement is None
    assert position.shape == (3,)


def test_plan_end_to_end(attack):
    plan = attack.plan()
    assert plan.frame_indices.shape == (3,)
    assert plan.attachment_position.shape == (3,)
    assert plan.attachment_name
    assert plan.placement_result is not None
    recipe = plan.recipe(attack.config)
    assert recipe.scenario is SCENARIO
    assert recipe.num_poisoned_frames == 3


def test_train_and_evaluate_backdoored_model(micro_dataset, micro_model_config,
                                             micro_generator):
    from repro.attack import build_poisoned_dataset, PoisonRecipe

    recipe = PoisonRecipe(
        SCENARIO, TRIGGER_2X2, np.array([0.0, -0.115, 0.1]),
        np.array([0, 1]), 0.4, "chest",
    )
    poisoned = build_poisoned_dataset(micro_generator, recipe, 2)
    training = TrainingConfig(epochs=1, validation_fraction=0.0, seed=0)
    model = train_backdoored_model(
        micro_dataset, poisoned, micro_model_config, training,
        np.random.default_rng(0),
    )
    from repro.attack import build_triggered_test_set

    triggered = build_triggered_test_set(micro_generator, recipe, 2)
    metrics = evaluate_backdoored_model(
        model, triggered, micro_dataset, SCENARIO.target_label
    )
    assert 0.0 <= metrics.asr <= 1.0
    assert 0.0 <= metrics.cdr <= 1.0
    assert metrics.uasr >= metrics.asr - 1e-9
