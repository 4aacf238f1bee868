"""End-to-end integration: the full attack pipeline at micro scale.

One test walks all three phases of the paper's attack against the micro
configuration; the others check cross-module contracts that unit tests
cannot see (simulator -> heatmap -> model dimension agreement, cache
round-trips through the experiment context, and determinism of the whole
pipeline under a fixed seed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import (
    TRIGGER_2X2,
    BackdoorAttack,
    BackdoorConfig,
    build_triggered_test_set,
    compose_poisoned_dataset,
    build_pair_pool,
    inject_poison,
)
from repro.attack.placement import PlacementConfig
from repro.datasets import AttackScenario, SampleGenerator
from repro.models import CNNLSTMClassifier, Trainer, TrainingConfig, evaluate_attack
from repro.xai import ShapConfig

from .conftest import MICRO_MODEL_CONFIG, make_micro_generation_config

SCENARIO = AttackScenario("push", "pull", similar=True)


@pytest.fixture(scope="module")
def pipeline():
    """Clean data, a surrogate, and generators for the full-attack test."""
    config = make_micro_generation_config()
    train_generator = SampleGenerator(config, seed=100, environment_seed=1)
    attacker_generator = SampleGenerator(config, seed=101, environment_seed=1)
    attack_generator = SampleGenerator(config, seed=102, environment_seed=2)
    dataset = train_generator.generate_dataset(samples_per_class=6)
    rng = np.random.default_rng(0)
    clean_train, clean_test = dataset.split(0.7, rng)
    training = TrainingConfig(epochs=6, batch_size=16, learning_rate=3e-3,
                              validation_fraction=0.0, seed=0)
    surrogate = CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(7))
    attacker_data = attacker_generator.generate_dataset(samples_per_class=4)
    Trainer(training).fit(surrogate, attacker_data.x, attacker_data.y)
    return {
        "train_generator": train_generator,
        "attacker_generator": attacker_generator,
        "attack_generator": attack_generator,
        "clean_train": clean_train,
        "clean_test": clean_test,
        "surrogate": surrogate,
        "training": training,
    }


def test_full_attack_pipeline(pipeline):
    """Plan -> poison -> train victim -> evaluate, all phases wired."""
    config = BackdoorConfig(
        scenario=SCENARIO,
        trigger=TRIGGER_2X2,
        injection_rate=0.5,
        num_poisoned_frames=4,
        shap=ShapConfig(num_samples=32, seed=0),
        placement=PlacementConfig(grid_nx=1, grid_nz=2),
        num_shap_samples=1,
        planning_position=(1.0, 0.0),
    )
    attack = BackdoorAttack(
        pipeline["surrogate"], pipeline["attacker_generator"], config
    )
    plan = attack.plan()
    recipe = plan.recipe(config)

    pool = build_pair_pool(
        pipeline["attacker_generator"], SCENARIO.victim, TRIGGER_2X2,
        plan.attachment_position, 4, plan.attachment_name,
    )
    poisoned = compose_poisoned_dataset(
        pool, plan.frame_indices, SCENARIO.target_label
    )
    combined = inject_poison(
        pipeline["clean_train"], poisoned, np.random.default_rng(1)
    )
    victim = CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(2))
    Trainer(pipeline["training"]).fit(victim, combined.x, combined.y)

    triggered = build_triggered_test_set(pipeline["attack_generator"], recipe, 4)
    metrics = evaluate_attack(
        victim.predict(triggered.x), triggered.y, SCENARIO.target_label,
        victim.predict(pipeline["clean_test"].x), pipeline["clean_test"].y,
    )
    # Micro scale cannot guarantee a strong backdoor; the contract is that
    # every phase runs and the metrics are coherent.
    assert 0.0 <= metrics.asr <= 1.0
    assert metrics.uasr >= metrics.asr - 1e-9
    assert 0.0 <= metrics.cdr <= 1.0


def test_dimensions_agree_across_stack(micro_generator, micro_model_config):
    """Simulator -> heatmap -> model shapes stay consistent."""
    sample = micro_generator.generate_sample("clockwise", 1.0, 0.0)
    assert sample.shape[1:] == micro_model_config.frame_shape
    model = CNNLSTMClassifier(micro_model_config, np.random.default_rng(0))
    logits = model.predict_logits(sample[None])
    assert logits.shape == (1, 6)


def test_pipeline_determinism():
    """Same seeds -> identical heatmaps, identical trained predictions."""
    config = make_micro_generation_config()

    def run():
        generator = SampleGenerator(config, seed=55)
        dataset = generator.generate_dataset(samples_per_class=2)
        model = CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(9))
        Trainer(
            TrainingConfig(epochs=2, validation_fraction=0.0, seed=3)
        ).fit(model, dataset.x, dataset.y)
        return dataset.x, model.predict_logits(dataset.x[:3])

    x_a, logits_a = run()
    x_b, logits_b = run()
    assert np.allclose(x_a, x_b)
    assert np.allclose(logits_a, logits_b)


def test_poisoned_frames_carry_trigger_signature(micro_generator):
    """The poisoned sample differs from its clean twin exactly where the
    recipe says, and the triggered test sample differs everywhere."""
    pool = build_pair_pool(
        micro_generator, "push", TRIGGER_2X2,
        np.array([0.0, -0.115, 0.1]), 1, "chest",
    )
    frame_indices = np.array([2, 5])
    poisoned = compose_poisoned_dataset(pool, frame_indices, 1)
    delta = np.abs(poisoned.x[0] - pool.clean[0]).reshape(pool.num_frames, -1)
    per_frame = delta.max(axis=1)
    assert (per_frame[frame_indices] > 0.0).all()
    untouched = np.delete(np.arange(pool.num_frames), frame_indices)
    assert np.allclose(per_frame[untouched], 0.0)
