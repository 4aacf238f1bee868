"""Geometry substrate: meshes, primitives, transforms, the human model.

The RF simulator consumes :class:`~repro.geometry.mesh.TriangleMesh`
scenes; this package provides everything needed to build them — primitive
shapes, rigid transforms, radar-side visibility filtering, and the
articulated :class:`~repro.geometry.human.HumanModel` that replaces the
paper's GLoT video-to-mesh pipeline.
"""

from .human import (
    ACTIVITY_NAMES,
    BODY_ATTACHMENT_POINTS,
    SUBOPTIMAL_ATTACHMENT,
    BodyShape,
    HumanModel,
    TrajectoryStyle,
    hand_trajectory,
    mirror_activity,
)
from .mesh import (
    ALUMINUM_REFLECTIVITY,
    CLUTTER_REFLECTIVITY,
    SKIN_REFLECTIVITY,
    TriangleMesh,
    merge_meshes,
    place_sequence,
)
from .primitives import box, capsule, ellipsoid, planar_patch, uv_sphere
from .transforms import (
    RigidTransform,
    rotation_about_axis,
    rotation_x,
    rotation_y,
    rotation_z,
    subject_placement,
)
from .visibility import visibility_geometry, visible_mask_from_geometry

__all__ = [
    "ACTIVITY_NAMES",
    "ALUMINUM_REFLECTIVITY",
    "BODY_ATTACHMENT_POINTS",
    "BodyShape",
    "CLUTTER_REFLECTIVITY",
    "HumanModel",
    "RigidTransform",
    "SKIN_REFLECTIVITY",
    "SUBOPTIMAL_ATTACHMENT",
    "TrajectoryStyle",
    "TriangleMesh",
    "box",
    "capsule",
    "ellipsoid",
    "hand_trajectory",
    "merge_meshes",
    "mirror_activity",
    "place_sequence",
    "planar_patch",
    "rotation_about_axis",
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "subject_placement",
    "uv_sphere",
    "visibility_geometry",
    "visible_mask_from_geometry",
]
