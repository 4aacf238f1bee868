"""Tests for the Eq. 2 trigger placement optimizer."""

import numpy as np
import pytest

from repro.attack import (
    TRIGGER_2X2,
    PlacementConfig,
    TriggerPlacementOptimizer,
    candidate_positions,
    global_optimal_position,
    snap_to_candidate,
)
from repro.geometry import BODY_ATTACHMENT_POINTS, HumanModel


def test_placement_config_validation():
    with pytest.raises(ValueError):
        PlacementConfig(alpha=0.0)
    with pytest.raises(ValueError):
        PlacementConfig(beta=-1.0)
    with pytest.raises(ValueError):
        PlacementConfig(use_named_points=False, grid_nx=0)


def test_candidate_positions_include_named_and_grid():
    model = HumanModel()
    config = PlacementConfig(grid_nx=2, grid_nz=3)
    positions, names = candidate_positions(model, config)
    assert len(positions) == len(BODY_ATTACHMENT_POINTS) + 6
    assert "chest" in names
    assert any(name.startswith("grid_") for name in names)


def test_candidates_named_only():
    model = HumanModel()
    config = PlacementConfig(grid_nx=0, grid_nz=0)
    positions, names = candidate_positions(model, config)
    assert set(names) == set(BODY_ATTACHMENT_POINTS)


@pytest.fixture(scope="module")
def placement_result(trained_micro_model, micro_generator):
    optimizer = TriggerPlacementOptimizer(
        trained_micro_model,
        micro_generator,
        TRIGGER_2X2,
        PlacementConfig(grid_nx=2, grid_nz=2),
    )
    return optimizer.optimize("push", 1.0, 0.0)


def test_result_shapes(placement_result, micro_generator):
    num_frames = micro_generator.config.num_frames
    num_candidates = len(placement_result.candidate_names)
    assert placement_result.objective.shape == (num_candidates, num_frames)
    assert placement_result.feature_distance.shape == (num_candidates, num_frames)
    assert placement_result.per_frame_best_position.shape == (num_frames, 3)


def test_objective_combines_terms(placement_result):
    config = PlacementConfig(grid_nx=2, grid_nz=2)
    expected = (
        config.alpha * placement_result.feature_distance
        - config.beta * placement_result.heatmap_deviation
    )
    assert np.allclose(placement_result.objective, expected, atol=1e-6)


def test_front_candidates_beat_back_of_leg(placement_result):
    """Radar-facing chest candidates produce larger feature shifts than
    the leg (the paper's suboptimal location)."""
    names = placement_result.candidate_names
    chest_score = placement_result.feature_distance[names.index("chest")].mean()
    leg_score = placement_result.feature_distance[names.index("left_leg")].mean()
    assert chest_score > leg_score


def test_best_overall_with_weights(placement_result):
    uniform = placement_result.best_overall_index()
    weights = np.zeros(placement_result.num_frames)
    weights[0] = 1.0
    first_frame_only = placement_result.best_overall_index(weights)
    assert 0 <= uniform < len(placement_result.candidate_names)
    assert 0 <= first_frame_only < len(placement_result.candidate_names)


def test_global_optimal_position_near_candidates(placement_result):
    weights = np.ones(placement_result.num_frames)
    gop = global_optimal_position(placement_result, weights)
    distances = np.linalg.norm(placement_result.candidate_positions - gop, axis=1)
    assert distances.min() < 0.5  # the median lives on/near the body


def test_global_position_validates_weights(placement_result):
    with pytest.raises(ValueError):
        global_optimal_position(placement_result, np.ones(3))


def test_snap_to_candidate(placement_result):
    target = placement_result.candidate_positions[2] + 0.001
    index, name, snapped = snap_to_candidate(target, placement_result)
    assert index == 2
    assert name == placement_result.candidate_names[2]
    assert np.allclose(snapped, placement_result.candidate_positions[2])


@pytest.fixture(scope="module")
def scoring_scene(trained_micro_model, micro_generator):
    """The shared Eq. 2 inputs (clean scene) for equivalence tests."""
    from repro.geometry import BodyShape, TrajectoryStyle
    from repro.radar.heatmap import drai_sequence

    generator = micro_generator
    simulator = generator.simulator
    bodies, transforms = generator.sample_scene(
        "push", 1.0, 0.0, 1.0, TrajectoryStyle()
    )
    meshes = [body.transformed(tr) for body, tr in zip(bodies, transforms)]
    base_cubes = simulator.simulate_sequence(meshes)
    heatmap_config = generator.config.heatmap
    clean_heatmaps = drai_sequence(base_cubes, heatmap_config)
    clean_features = trained_micro_model.frame_features(clean_heatmaps)[0]
    human = HumanModel(BodyShape())
    candidates, names = candidate_positions(
        human, PlacementConfig(grid_nx=2, grid_nz=2)
    )
    return (
        simulator, transforms, base_cubes, clean_heatmaps, clean_features,
        heatmap_config, candidates, names,
    )


def test_batched_scoring_matches_per_candidate_reference(
    scoring_scene, trained_micro_model
):
    """Pinned equivalence: stacked-synthesis scoring is bit-identical to
    the per-candidate reference path for every candidate."""
    from repro.attack.placement import _score_candidates_batched

    from .oracles import score_candidate

    (simulator, transforms, base_cubes, clean_heatmaps, clean_features,
     heatmap_config, candidates, _names) = scoring_scene
    shared = (
        transforms, base_cubes, clean_heatmaps, clean_features, heatmap_config,
    )
    reference = [
        score_candidate(
            simulator, trained_micro_model, TRIGGER_2X2, position, *shared
        )
        for position in candidates
    ]
    batched = _score_candidates_batched(
        simulator, trained_micro_model, TRIGGER_2X2, candidates, *shared
    )
    assert len(batched) == len(reference)
    for (feat_b, heat_b), (feat_r, heat_r) in zip(batched, reference):
        assert np.array_equal(feat_b, feat_r)
        assert np.array_equal(heat_b, heat_r)


def test_batched_scoring_respects_memory_budget(
    scoring_scene, trained_micro_model
):
    """A budget smaller than one candidate's cube forces one-candidate
    batches and still reproduces the unbounded result exactly."""
    from repro.attack.placement import _score_candidates_batched

    (simulator, transforms, base_cubes, clean_heatmaps, clean_features,
     heatmap_config, candidates, _names) = scoring_scene
    shared = (
        transforms, base_cubes, clean_heatmaps, clean_features, heatmap_config,
    )
    unbounded = _score_candidates_batched(
        simulator, trained_micro_model, TRIGGER_2X2, candidates[:4], *shared
    )
    sliced = _score_candidates_batched(
        simulator, trained_micro_model, TRIGGER_2X2, candidates[:4], *shared,
        max_batch_bytes=1,
    )
    for (feat_a, heat_a), (feat_b, heat_b) in zip(unbounded, sliced):
        assert np.array_equal(feat_a, feat_b)
        assert np.array_equal(heat_a, heat_b)
