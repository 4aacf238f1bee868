"""The human model's posing and placement against the per-frame oracle.

Posing computes only vertices from templates built once per model, and
``place_sequence`` places a whole sequence with one batched matmul.
Both do the oracle's arithmetic in the oracle's order, so vertices,
faces and reflectivity must match it bit for bit.
"""

import numpy as np
import pytest

from repro.attack.trigger import ReflectorTrigger
from repro.datasets.generation import PARTICIPANT_STATURES
from repro.geometry import (
    ACTIVITY_NAMES,
    BODY_ATTACHMENT_POINTS,
    BodyShape,
    HumanModel,
    RigidTransform,
    TrajectoryStyle,
    hand_trajectory,
    place_sequence,
    subject_placement,
    uv_sphere,
)

from . import oracles


def _bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.dtype(f"u{array.dtype.itemsize}"))


def _assert_same_mesh(got, ref) -> None:
    for name in ("vertices", "faces", "reflectivity"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(_bits(a), _bits(b)), name


def _trajectory(model: HumanModel, activity: str, frames: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return hand_trajectory(
        activity, 32, TrajectoryStyle.random(rng), shoulder=model.right_shoulder, rng=rng,
    )[:frames]


def _transforms(frames: int, seed: int) -> "list[RigidTransform]":
    """Placement plus millimetre sway, as the dataset generator builds them."""
    rng = np.random.default_rng(seed)
    placement = subject_placement(float(rng.uniform(1.0, 2.5)), float(rng.uniform(-30, 30)))
    sway = rng.normal(0.0, 0.004, size=(frames, 2))
    return [
        placement.compose(RigidTransform.from_translation([dx, dy, 0.0]))
        for dx, dy in sway
    ]


@pytest.mark.parametrize("frames", [1, 32])
@pytest.mark.parametrize("activity", ACTIVITY_NAMES)
@pytest.mark.parametrize("stature", PARTICIPANT_STATURES)
def test_pose_sequence_matches_oracle_bit_for_bit(stature, activity, frames):
    model = HumanModel(BodyShape(stature_scale=stature))
    trajectory = _trajectory(model, activity, frames, seed=ACTIVITY_NAMES.index(activity))
    got = model.pose_sequence(trajectory)
    ref = oracles.pose_sequence(model, trajectory)
    assert len(got) == len(ref) == frames
    for got_frame, ref_frame in zip(got, ref):
        _assert_same_mesh(got_frame, ref_frame)
    _assert_same_mesh(model.pose(trajectory[0]), ref[0])


def test_degenerate_arm_axes_match_oracle():
    """Hand on the shoulder, straight below it and straight above it."""
    model = HumanModel()
    offsets = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, 0.0, 0.5], [1e-12, 0.0, 0.0]])
    trajectory = model.right_shoulder + offsets
    for got, ref in zip(model.pose_sequence(trajectory), oracles.pose_sequence(model, trajectory)):
        _assert_same_mesh(got, ref)


@pytest.mark.parametrize("frames", [1, 32])
@pytest.mark.parametrize("stature", PARTICIPANT_STATURES)
def test_placed_sequence_with_trigger_matches_oracle(stature, frames):
    model = HumanModel(BodyShape(stature_scale=stature))
    trajectory = _trajectory(model, "clockwise", frames, seed=7)
    bodies = model.pose_sequence(trajectory)
    transforms = _transforms(frames, seed=int(stature * 100))
    trigger = ReflectorTrigger().mesh_at(np.array(BODY_ATTACHMENT_POINTS["chest"]))
    for attachment in (None, trigger):
        got = place_sequence(bodies, transforms, attachment)
        ref = oracles.place_sequence(
            oracles.pose_sequence(model, trajectory), transforms, attachment
        )
        for got_frame, ref_frame in zip(got, ref):
            _assert_same_mesh(got_frame, ref_frame)
    # A rigid mesh alone, as the trigger-only synthesis places it.
    for got_frame, transform in zip(place_sequence([trigger] * frames, transforms), transforms):
        _assert_same_mesh(got_frame, trigger.transformed(transform))


def test_hand_vertices_are_the_hand_sphere():
    model = HumanModel()
    target = np.array([-0.1, -0.45, 0.05])
    body = model.pose(target)
    hand = body.vertices[model.hand_vertices]
    sphere = uv_sphere(model.shape.hand_radius, rings=3, segments=max(5, model.shape.mesh_detail - 1))
    assert len(hand) == sphere.num_vertices
    assert model.hand_vertices.stop == body.num_vertices
    assert np.allclose(np.linalg.norm(hand - target, axis=1), model.shape.hand_radius)


def test_posed_frames_share_read_only_topology():
    model = HumanModel()
    bodies = model.pose_sequence(_trajectory(model, "push", 4, seed=0))
    placed = place_sequence(bodies, _transforms(4, seed=0))
    for frames in (bodies, placed):
        assert all(frame.faces is frames[0].faces for frame in frames)
        assert all(frame.reflectivity is frames[0].reflectivity for frame in frames)
        with pytest.raises(ValueError):
            frames[1].faces[0, 0] = 0
        with pytest.raises(ValueError):
            frames[1].reflectivity[0] = 0.0


@pytest.mark.parametrize("shape", [(3,), (4, 2), (4, 3, 1), (3, 4)])
def test_pose_sequence_rejects_non_trajectories(shape):
    with pytest.raises(ValueError):
        HumanModel().pose_sequence(np.zeros(shape))


def test_empty_trajectory_poses_no_frames():
    assert HumanModel().pose_sequence(np.zeros((0, 3))) == []


def test_place_sequence_rejects_mismatched_input():
    model = HumanModel()
    bodies = model.pose_sequence(_trajectory(model, "pull", 3, seed=1))
    with pytest.raises(ValueError):
        place_sequence(bodies, _transforms(2, seed=1))
    other = HumanModel(arm_reflectivity=0.5).pose(np.array([-0.2, -0.4, 0.0]))
    with pytest.raises(ValueError):
        place_sequence([*bodies[:2], other], _transforms(3, seed=1))
