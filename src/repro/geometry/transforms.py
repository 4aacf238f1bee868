"""Rigid 3D transforms used to pose meshes in the radar scene.

The radar coordinate convention throughout this project is:

* ``+x`` — to the radar's right (azimuth axis),
* ``+y`` — boresight, pointing away from the radar into the scene,
* ``+z`` — up.

The radar itself sits at the origin.  A subject "at distance d and angle a"
stands at ``(d * sin(a), d * cos(a), 0)`` facing the radar.
"""

from __future__ import annotations

import math

import numpy as np


def rotation_x(angle_rad: float) -> np.ndarray:
    """Rotation matrix about the x axis (right-handed, radians)."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle_rad: float) -> np.ndarray:
    """Rotation matrix about the y axis (right-handed, radians)."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle_rad: float) -> np.ndarray:
    """Rotation matrix about the z axis (right-handed, radians)."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about an arbitrary (non-zero) axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be non-zero")
    x, y, z = axis / norm
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    t = 1.0 - c
    return np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    )


class RigidTransform:
    """A rotation followed by a translation: ``p -> R @ p + t``.

    Instances are immutable; composition returns a new transform.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray | None = None, translation: np.ndarray | None = None):
        self.rotation = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
        self.translation = (
            np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
        )
        if self.rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {self.rotation.shape}")
        if self.translation.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {self.translation.shape}")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls()

    @classmethod
    def from_translation(cls, translation: np.ndarray) -> "RigidTransform":
        return cls(translation=np.asarray(translation, dtype=float))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an ``(N, 3)`` array of points (or a single 3-vector)."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def apply_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Transform direction vectors (rotation only, no translation)."""
        return np.asarray(vectors, dtype=float) @ self.rotation.T

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` then ``self``."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rot_inv = self.rotation.T
        return RigidTransform(rotation=rot_inv, translation=-rot_inv @ self.translation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RigidTransform(t={self.translation.tolist()})"


def subject_placement(distance_m: float, angle_deg: float) -> RigidTransform:
    """Transform placing a subject-local mesh at a radar position.

    The subject-local frame has the subject centered at the origin facing
    ``-y`` (toward the radar when placed).  ``angle_deg`` is the azimuth of
    the subject as seen from the radar (positive to the radar's right), and
    ``distance_m`` the ground range.  The subject is rotated so it keeps
    facing the radar from its new position.
    """
    angle_rad = math.radians(angle_deg)
    position = np.array(
        [distance_m * math.sin(angle_rad), distance_m * math.cos(angle_rad), 0.0]
    )
    # Rotate the subject about z so its -y face points back at the origin.
    facing = rotation_z(-angle_rad)
    return RigidTransform(rotation=facing, translation=position)
