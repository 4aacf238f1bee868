"""Tests for the articulated human model and activity trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    ACTIVITY_NAMES,
    BODY_ATTACHMENT_POINTS,
    BodyShape,
    HumanModel,
    TrajectoryStyle,
    hand_trajectory,
    mirror_activity,
)


def test_activity_names_complete():
    assert len(ACTIVITY_NAMES) == 6
    assert "push" in ACTIVITY_NAMES and "anticlockwise" in ACTIVITY_NAMES


@pytest.mark.parametrize("activity", ACTIVITY_NAMES)
def test_trajectory_shape_and_finiteness(activity):
    trajectory = hand_trajectory(activity, 16)
    assert trajectory.shape == (16, 3)
    assert np.isfinite(trajectory).all()


@pytest.mark.parametrize("activity", ACTIVITY_NAMES)
def test_two_frame_trajectory_with_tremor(activity):
    trajectory = hand_trajectory(activity, 2, rng=np.random.default_rng(0))
    assert trajectory.shape == (2, 3)


def test_push_moves_toward_radar():
    trajectory = hand_trajectory("push", 32)
    # Radar direction is -y; pushing decreases y monotonically overall.
    assert trajectory[-1, 1] < trajectory[0, 1] - 0.1


def test_pull_is_reverse_of_push():
    push = hand_trajectory("push", 32)
    pull = hand_trajectory("pull", 32)
    assert pull[-1, 1] > pull[0, 1] + 0.1
    # Same spatial support, opposite temporal order (mirror similarity).
    assert np.allclose(push[:, 1], pull[::-1, 1], atol=1e-9)


def test_swipes_move_laterally_in_opposite_directions():
    left = hand_trajectory("left_swipe", 32)
    right = hand_trajectory("right_swipe", 32)
    assert left[-1, 0] > left[0, 0]
    assert right[-1, 0] < right[0, 0]


def test_circles_have_opposite_chirality():
    cw = hand_trajectory("clockwise", 33)
    acw = hand_trajectory("anticlockwise", 33)
    # Signed area of the x-z curve flips sign with chirality.
    def signed_area(traj):
        x, z = traj[:, 0], traj[:, 2]
        return 0.5 * np.sum(x[:-1] * z[1:] - x[1:] * z[:-1])

    assert signed_area(cw) * signed_area(acw) < 0.0


def test_unknown_activity_rejected():
    with pytest.raises(ValueError):
        hand_trajectory("wave", 16)
    with pytest.raises(ValueError):
        hand_trajectory("push", 1)


def test_amplitude_scale_changes_extent():
    small = hand_trajectory("push", 16, TrajectoryStyle(amplitude_scale=0.8))
    large = hand_trajectory("push", 16, TrajectoryStyle(amplitude_scale=1.2))
    small_span = small[:, 1].max() - small[:, 1].min()
    large_span = large[:, 1].max() - large[:, 1].min()
    assert large_span > small_span


def test_tremor_requires_rng():
    baseline = hand_trajectory("push", 16, TrajectoryStyle(tremor=0.01))
    noisy = hand_trajectory(
        "push", 16, TrajectoryStyle(tremor=0.01), rng=np.random.default_rng(0)
    )
    assert not np.allclose(baseline, noisy)


def test_mirror_activity_pairs():
    assert mirror_activity("push") == "pull"
    assert mirror_activity("pull") == "push"
    assert mirror_activity("left_swipe") == "right_swipe"
    assert mirror_activity("clockwise") == "anticlockwise"
    with pytest.raises(ValueError):
        mirror_activity("jump")


def test_body_shape_scaling():
    shape = BodyShape(stature_scale=1.1).scaled()
    reference = BodyShape().scaled()
    assert shape.torso_half_height == pytest.approx(
        reference.torso_half_height * 1.1
    )
    assert shape.stature_scale == 1.0  # scale folded into dimensions


def test_human_mesh_topology_constant_across_poses():
    model = HumanModel()
    a = model.pose(np.array([-0.2, -0.4, 0.0]))
    b = model.pose(np.array([0.1, -0.5, 0.2]))
    assert a.num_faces == b.num_faces
    assert a.num_vertices == b.num_vertices


def test_pose_places_hand_at_target():
    model = HumanModel()
    target = np.array([-0.1, -0.45, 0.05])
    mesh = model.pose(target)
    # Some vertex (the hand sphere) lies within hand_radius of the target.
    distances = np.linalg.norm(mesh.vertices - target, axis=1)
    assert distances.min() <= model.shape.hand_radius + 1e-6


def test_pose_sequence_length():
    model = HumanModel()
    trajectory = hand_trajectory("push", 5)
    assert len(model.pose_sequence(trajectory)) == 5


def test_attachment_points_near_body():
    model = HumanModel()
    mesh = model.pose(np.array([-0.2, -0.4, 0.0]))
    for name in BODY_ATTACHMENT_POINTS:
        point = model.attachment_point(name)
        distances = np.linalg.norm(mesh.vertices - point, axis=1)
        assert distances.min() < 0.35, f"{name} is far from the body"


def test_unknown_attachment_rejected():
    with pytest.raises(KeyError):
        HumanModel().attachment_point("elbow")


def test_torso_front_grid_on_front_surface():
    model = HumanModel()
    grid = model.torso_front_grid(3, 4)
    assert grid.shape == (12, 3)
    assert (grid[:, 1] < 0.0).all()  # front of the torso faces -y


def test_arm_and_hand_brighter_than_skin():
    model = HumanModel()
    mesh = model.pose(np.array([-0.2, -0.4, 0.0]))
    assert mesh.reflectivity.max() == pytest.approx(model.hand_reflectivity)
    assert mesh.reflectivity.min() == pytest.approx(model.reflectivity)


@settings(max_examples=20, deadline=None)
@given(
    n_frames=st.integers(4, 48),
    activity=st.sampled_from(ACTIVITY_NAMES),
)
def test_trajectories_stay_in_reach_property(n_frames, activity):
    """The hand never strays beyond arm's reach of the shoulder."""
    trajectory = hand_trajectory(activity, n_frames)
    shoulder = np.array([-0.22, 0.0, 0.22])
    reach = np.linalg.norm(trajectory - shoulder, axis=1)
    assert (reach < 0.85).all()
