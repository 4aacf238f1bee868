"""Reference formulation of the human model's posing, for tests only.

This is the per-frame posing that ``repro.geometry.human`` shipped
before the moving parts were built once per model: every frame builds
the right arm's capsule and the hand's sphere anew and merges
them with the static body (built here the same way, limb by limb), and
every placed frame is ``merge_meshes([body, attachment])
.transformed(transform)``.  It is kept verbatim so
``test_posing_oracle.py`` can pin the fast path to it; nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import (
    HumanModel,
    RigidTransform,
    TriangleMesh,
    capsule,
    ellipsoid,
    merge_meshes,
    rotation_about_axis,
    uv_sphere,
)


def limb_between(
    start: np.ndarray,
    end: np.ndarray,
    radius: float,
    segments: int,
    name: str,
) -> TriangleMesh:
    """A capsule mesh whose axis runs from ``start`` to ``end``."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    axis = end - start
    length = float(np.linalg.norm(axis))
    limb = capsule(radius, max(length - 2.0 * radius, 1e-3), rings=3, segments=segments, name=name)
    z_axis = np.array([0.0, 0.0, 1.0])
    if length > 1e-9:
        direction = axis / length
        rot_axis = np.cross(z_axis, direction)
        sin_angle = np.linalg.norm(rot_axis)
        cos_angle = float(np.dot(z_axis, direction))
        if sin_angle > 1e-9:
            rotation = rotation_about_axis(rot_axis, math.atan2(sin_angle, cos_angle))
        elif cos_angle < 0.0:
            rotation = rotation_about_axis(np.array([1.0, 0.0, 0.0]), math.pi)
        else:
            rotation = np.eye(3)
    else:
        rotation = np.eye(3)
    center = (start + end) / 2.0
    return limb.transformed(RigidTransform(rotation=rotation, translation=center))


def build_static(model: HumanModel) -> TriangleMesh:
    """Torso, head, legs and the idle left arm."""
    s = model.shape
    detail = s.mesh_detail
    torso = ellipsoid(
        (s.torso_half_width, s.torso_half_depth, s.torso_half_height),
        rings=detail,
        segments=detail + 2,
        reflectivity=model.reflectivity,
        name="torso",
    )
    head = uv_sphere(
        s.head_radius, rings=max(3, detail - 2), segments=detail,
        reflectivity=model.reflectivity, name="head",
    ).translated([0.0, 0.0, s.torso_half_height + s.head_radius + 0.03])
    legs = []
    for side, x_sign in (("left_leg", 1.0), ("right_leg", -1.0)):
        top = np.array([x_sign * s.torso_half_width * 0.55, 0.0, -s.torso_half_height])
        bottom = top + np.array([0.0, 0.0, -s.leg_length])
        legs.append(limb_between(top, bottom, s.leg_radius, max(5, detail - 1), side))
    left_shoulder = np.array([abs(s.shoulder_offset[0]), s.shoulder_offset[1],
                              s.shoulder_offset[2]])
    left_hand_rest = left_shoulder + np.array([0.06, 0.0, -0.48])
    left_arm = limb_between(
        left_shoulder, left_hand_rest, s.arm_radius, max(5, detail - 1), "left_arm"
    )
    return merge_meshes([torso, head, *legs, left_arm], name="body_static")


def pose(
    model: HumanModel, hand_position: np.ndarray, static: "TriangleMesh | None" = None
) -> TriangleMesh:
    """The full body mesh with the right hand at ``hand_position``."""
    s = model.shape
    hand_position = np.asarray(hand_position, dtype=float)
    shoulder = model.right_shoulder
    arm = limb_between(shoulder, hand_position, s.arm_radius,
                       max(5, s.mesh_detail - 1), "right_arm")
    arm = arm.with_reflectivity(model.arm_reflectivity)
    hand = uv_sphere(
        s.hand_radius, rings=3, segments=max(5, s.mesh_detail - 1),
        reflectivity=model.hand_reflectivity, name="hand",
    ).translated(hand_position)
    static = build_static(model) if static is None else static
    return merge_meshes([static, arm, hand], name="body")


def pose_sequence(model: HumanModel, hand_positions: np.ndarray) -> "list[TriangleMesh]":
    """Body meshes for a ``(T, 3)`` hand trajectory."""
    static = build_static(model)
    return [pose(model, p, static) for p in np.asarray(hand_positions, dtype=float)]


def place_sequence(
    bodies: "list[TriangleMesh]",
    transforms: "list[RigidTransform]",
    attachment: "TriangleMesh | None" = None,
) -> "list[TriangleMesh]":
    """World-frame meshes, one ``transformed`` call per frame."""
    meshes = []
    for body, transform in zip(bodies, transforms):
        if attachment is not None:
            body = merge_meshes([body, attachment], name="body+trigger")
        meshes.append(body.transformed(transform))
    return meshes
