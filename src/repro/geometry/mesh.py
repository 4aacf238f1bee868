"""Triangle meshes with per-facet radar material properties.

A :class:`TriangleMesh` is the unit of geometry the RF simulator consumes:
the IF-signal model (paper Eq. 3) sums one complex contribution per visible
triangular facet, weighted by the facet's area and material reflectivity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .transforms import RigidTransform

#: Reflectivity (``A_m`` in Eq. 3) of human skin/tissue at 77 GHz, relative
#: to a perfect conductor.  Skin reflects roughly -5 dB of incident power.
SKIN_REFLECTIVITY = 0.35

#: Reflectivity of sheet aluminum — effectively a perfect reflector.
ALUMINUM_REFLECTIVITY = 1.0

#: Reflectivity of typical indoor clutter (walls, furniture).
CLUTTER_REFLECTIVITY = 0.15


class TriangleMesh:
    """An indexed triangle mesh with per-face reflectivity.

    Parameters
    ----------
    vertices:
        ``(V, 3)`` float array of vertex positions in meters.
    faces:
        ``(F, 3)`` int array of vertex indices, counter-clockwise when viewed
        from the outward (front) side of each face.
    reflectivity:
        Either a scalar applied to every face or an ``(F,)`` array of
        per-face material reflectivities (``A_m`` in Eq. 3).
    name:
        Optional label used in scene debugging and body-part lookups.
    """

    __slots__ = ("vertices", "faces", "reflectivity", "name")

    def __init__(
        self,
        vertices: np.ndarray,
        faces: np.ndarray,
        reflectivity: float | np.ndarray = SKIN_REFLECTIVITY,
        name: str = "mesh",
    ):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = np.asarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {self.faces.shape}")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face indices out of range")
        refl = np.asarray(reflectivity, dtype=float)
        if refl.ndim == 0:
            refl = np.full(len(self.faces), float(refl))
        if refl.shape != (len(self.faces),):
            raise ValueError(
                f"reflectivity must be scalar or (F,)={len(self.faces)}, got {refl.shape}"
            )
        self.reflectivity = refl
        self.name = name

    # ------------------------------------------------------------------
    # Derived per-face geometry
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def face_corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three ``(F, 3)`` corner arrays of every face."""
        v = self.vertices
        f = self.faces
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def face_centroids(self) -> np.ndarray:
        """``(F, 3)`` centroid of each triangle."""
        a, b, c = self.face_corners()
        return (a + b + c) / 3.0

    def face_normals(self) -> np.ndarray:
        """``(F, 3)`` unit outward normals (zero for degenerate faces)."""
        a, b, c = self.face_corners()
        cross = np.cross(b - a, c - a)
        norms = np.linalg.norm(cross, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        return np.where(norms > 0.0, cross / safe, 0.0)

    def face_areas(self) -> np.ndarray:
        """``(F,)`` triangle areas in square meters (``A_a`` in Eq. 3)."""
        a, b, c = self.face_corners()
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def total_area(self) -> float:
        return float(self.face_areas().sum())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min, max) corners of the mesh."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def centroid(self) -> np.ndarray:
        """Area-weighted centroid of the surface."""
        areas = self.face_areas()
        total = areas.sum()
        if total == 0.0:
            return self.vertices.mean(axis=0)
        return (self.face_centroids() * areas[:, None]).sum(axis=0) / total

    # ------------------------------------------------------------------
    # Construction / editing
    # ------------------------------------------------------------------
    def copy(self) -> "TriangleMesh":
        return TriangleMesh(
            self.vertices.copy(), self.faces.copy(), self.reflectivity.copy(), self.name
        )

    def transformed(self, transform: RigidTransform) -> "TriangleMesh":
        """Return a new mesh with vertices mapped through ``transform``."""
        return TriangleMesh(
            transform.apply(self.vertices), self.faces.copy(), self.reflectivity.copy(), self.name
        )

    def translated(self, offset: np.ndarray) -> "TriangleMesh":
        return TriangleMesh(
            self.vertices + np.asarray(offset, dtype=float),
            self.faces.copy(),
            self.reflectivity.copy(),
            self.name,
        )

    def with_reflectivity(self, reflectivity: float | np.ndarray) -> "TriangleMesh":
        return TriangleMesh(self.vertices.copy(), self.faces.copy(), reflectivity, self.name)

    def scaled(self, factors: float | Sequence[float]) -> "TriangleMesh":
        """Scale about the origin, per-axis if ``factors`` is a 3-sequence."""
        factors_arr = np.broadcast_to(np.asarray(factors, dtype=float), (3,))
        return TriangleMesh(
            self.vertices * factors_arr, self.faces.copy(), self.reflectivity.copy(), self.name
        )

    def submesh(self, face_mask: np.ndarray) -> "TriangleMesh":
        """Keep only faces where ``face_mask`` is True (vertices are kept)."""
        face_mask = np.asarray(face_mask, dtype=bool)
        if face_mask.shape != (self.num_faces,):
            raise ValueError("face_mask must have one entry per face")
        return TriangleMesh(
            self.vertices.copy(),
            self.faces[face_mask],
            self.reflectivity[face_mask],
            self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TriangleMesh(name={self.name!r}, V={self.num_vertices}, F={self.num_faces})"


def merge_meshes(meshes: Iterable[TriangleMesh], name: str = "merged") -> TriangleMesh:
    """Concatenate meshes into one, remapping face indices."""
    meshes = list(meshes)
    if not meshes:
        raise ValueError("cannot merge zero meshes")
    vertices = []
    faces = []
    reflectivity = []
    offset = 0
    for mesh in meshes:
        vertices.append(mesh.vertices)
        faces.append(mesh.faces + offset)
        reflectivity.append(mesh.reflectivity)
        offset += mesh.num_vertices
    return TriangleMesh(
        np.vstack(vertices), np.vstack(faces), np.concatenate(reflectivity), name
    )


def place_sequence(
    meshes: Sequence[TriangleMesh],
    transforms: Sequence[RigidTransform],
    attachment: TriangleMesh | None = None,
) -> "list[TriangleMesh]":
    """Frame ``t`` of a one-topology sequence mapped through ``transforms[t]``.

    ``attachment`` (e.g. a reflector trigger) is appended to every frame
    and rides rigidly on it.  One batched ``np.matmul`` places all frames,
    bit for bit as ``merge_meshes([mesh, attachment]).transformed(transform)``
    would frame by frame; the frames share read-only faces and reflectivity.
    """
    if len(meshes) != len(transforms):
        raise ValueError(f"{len(meshes)} meshes but {len(transforms)} transforms")
    if not meshes:
        return []
    first = meshes[0]
    for mesh in meshes[1:]:
        for ours, theirs in ((mesh.faces, first.faces), (mesh.reflectivity, first.reflectivity)):
            if ours is not theirs and not np.array_equal(ours, theirs):
                raise ValueError("place_sequence needs meshes that share faces and reflectivity")
    parts = [first] if attachment is None else [first, attachment]
    template = merge_meshes(parts, name="+".join(part.name for part in parts))
    template.faces.flags.writeable = False
    template.reflectivity.flags.writeable = False
    points = np.stack([mesh.vertices for mesh in meshes])
    if attachment is not None:
        riding = np.broadcast_to(attachment.vertices, (len(meshes), *attachment.vertices.shape))
        points = np.concatenate([points, riding], axis=1)
    rotations = np.stack([transform.rotation for transform in transforms])
    translations = np.stack([transform.translation for transform in transforms])
    world = np.matmul(points, rotations.transpose(0, 2, 1)) + translations[:, None]
    return [
        TriangleMesh(vertices, template.faces, template.reflectivity, template.name)
        for vertices in world
    ]
