"""Tests for training-data poisoning mechanics."""

import numpy as np
import pytest

from repro.attack import (
    TRIGGER_2X2,
    PairPool,
    PoisonRecipe,
    build_pair_pool,
    build_poisoned_dataset,
    build_triggered_test_set,
    compose_poisoned_dataset,
    inject_poison,
    poisoned_sample_count,
)
from repro.datasets import AttackScenario, HeatmapDataset

SCENARIO = AttackScenario("push", "pull", similar=True)
CHEST = np.array([0.0, -0.115, 0.10])


def make_recipe(k=3, rate=0.4):
    return PoisonRecipe(
        scenario=SCENARIO,
        trigger=TRIGGER_2X2,
        attachment_position=CHEST,
        frame_indices=np.arange(k),
        injection_rate=rate,
        attachment_name="chest",
    )


def test_recipe_validation():
    with pytest.raises(ValueError):
        make_recipe(rate=0.0)
    with pytest.raises(ValueError):
        PoisonRecipe(SCENARIO, TRIGGER_2X2, np.zeros(2), np.arange(3), 0.4)
    with pytest.raises(ValueError):
        PoisonRecipe(SCENARIO, TRIGGER_2X2, CHEST, np.array([1, 1]), 0.4)
    with pytest.raises(ValueError):
        PoisonRecipe(SCENARIO, TRIGGER_2X2, CHEST, np.array([], dtype=int), 0.4)


def test_poisoned_sample_count():
    x = np.zeros((20, 4, 8, 8), dtype=np.float32)
    y = np.array([0] * 10 + [1] * 10)
    dataset = HeatmapDataset(x, y)
    assert poisoned_sample_count(dataset, make_recipe(rate=0.4)) == 4
    assert poisoned_sample_count(dataset, make_recipe(rate=0.01)) == 1  # floor 1


def test_pair_pool_structure(micro_generator):
    pool = build_pair_pool(micro_generator, "push", TRIGGER_2X2, CHEST, 3, "chest")
    assert len(pool) == 3
    assert pool.num_frames == micro_generator.config.num_frames
    assert not np.allclose(pool.clean, pool.triggered)
    assert all(meta.has_trigger for meta in pool.meta)


def test_pair_pool_validation_mismatched_shapes():
    with pytest.raises(ValueError):
        PairPool(np.zeros((2, 4, 8, 8)), np.zeros((3, 4, 8, 8)), [])


def test_compose_poisoned_dataset_replaces_frames(micro_generator):
    pool = build_pair_pool(micro_generator, "push", TRIGGER_2X2, CHEST, 2)
    frames = np.array([0, 3])
    poisoned = compose_poisoned_dataset(pool, frames, SCENARIO.target_label)
    assert (poisoned.y == SCENARIO.target_label).all()
    # Replaced frames match the triggered pool; others match the clean pool.
    assert np.allclose(poisoned.x[:, frames], pool.triggered[:, frames])
    untouched = [t for t in range(pool.num_frames) if t not in frames]
    assert np.allclose(poisoned.x[:, untouched], pool.clean[:, untouched])


def test_compose_poisoned_dataset_subset(micro_generator):
    pool = build_pair_pool(micro_generator, "push", TRIGGER_2X2, CHEST, 3)
    poisoned = compose_poisoned_dataset(pool, np.array([1]), 1, num_samples=2)
    assert len(poisoned) == 2
    with pytest.raises(ValueError):
        compose_poisoned_dataset(pool, np.array([1]), 1, num_samples=9)
    with pytest.raises(ValueError):
        compose_poisoned_dataset(pool, np.array([99]), 1)


def test_build_poisoned_dataset_labels_and_meta(micro_generator):
    recipe = make_recipe(k=2)
    poisoned = build_poisoned_dataset(micro_generator, recipe, 3)
    assert len(poisoned) == 3
    assert (poisoned.y == SCENARIO.target_label).all()
    assert all(m.activity == "push" for m in poisoned.meta)
    assert all(m.has_trigger for m in poisoned.meta)


def test_inject_poison_shuffles_and_concats(micro_generator, rng):
    clean = HeatmapDataset(
        np.zeros((6, 8, 16, 16), dtype=np.float32), np.arange(6) % 6
    )
    poisoned = build_poisoned_dataset(micro_generator, make_recipe(k=1), 2)
    combined = inject_poison(clean, poisoned, rng)
    assert len(combined) == 8
    assert sum(meta.has_trigger for meta in combined.meta) == 2


def test_triggered_test_set_keeps_true_labels(micro_generator):
    recipe = make_recipe()
    test = build_triggered_test_set(micro_generator, recipe, 4)
    assert (test.y == SCENARIO.victim_label).all()  # scored against truth
    assert all(meta.has_trigger for meta in test.meta)


def test_triggered_test_set_custom_positions(micro_generator):
    recipe = make_recipe()
    test = build_triggered_test_set(
        micro_generator, recipe, 2, positions=[(1.4, 10.0)]
    )
    assert all(meta.distance_m == 1.4 for meta in test.meta)
    assert all(meta.angle_deg == 10.0 for meta in test.meta)


def test_count_validations(micro_generator):
    with pytest.raises(ValueError):
        build_pair_pool(micro_generator, "push", TRIGGER_2X2, CHEST, 0)
    with pytest.raises(ValueError):
        build_triggered_test_set(micro_generator, make_recipe(), 0)
