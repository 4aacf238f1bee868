"""Parametric mesh primitives used to assemble body parts and props.

All primitives are generated centered at the origin in their local frame and
triangulated with outward-facing, counter-clockwise winding so that
:mod:`repro.geometry.visibility` can cull back faces.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import SKIN_REFLECTIVITY, TriangleMesh


def uv_sphere(
    radius: float,
    rings: int = 6,
    segments: int = 8,
    reflectivity: float = SKIN_REFLECTIVITY,
    name: str = "sphere",
) -> TriangleMesh:
    """A UV-sphere of the given radius.

    ``rings`` counts latitude bands (>= 2) and ``segments`` longitude slices
    (>= 3).  Poles are shared vertices, so the mesh is watertight.
    """
    if rings < 2 or segments < 3:
        raise ValueError("need rings >= 2 and segments >= 3")
    vertices = [np.array([0.0, 0.0, radius])]
    for r in range(1, rings):
        phi = math.pi * r / rings
        z = radius * math.cos(phi)
        rho = radius * math.sin(phi)
        for s in range(segments):
            theta = 2.0 * math.pi * s / segments
            vertices.append(np.array([rho * math.cos(theta), rho * math.sin(theta), z]))
    vertices.append(np.array([0.0, 0.0, -radius]))
    vertices_arr = np.array(vertices)

    faces = []
    # Top cap.
    for s in range(segments):
        faces.append([0, 1 + s, 1 + (s + 1) % segments])
    # Middle bands.
    for r in range(rings - 2):
        base0 = 1 + r * segments
        base1 = 1 + (r + 1) * segments
        for s in range(segments):
            s_next = (s + 1) % segments
            faces.append([base0 + s, base1 + s, base1 + s_next])
            faces.append([base0 + s, base1 + s_next, base0 + s_next])
    # Bottom cap.
    south = len(vertices_arr) - 1
    base = 1 + (rings - 2) * segments
    for s in range(segments):
        faces.append([south, base + (s + 1) % segments, base + s])
    mesh = TriangleMesh(vertices_arr, np.array(faces, dtype=np.int64), reflectivity, name)
    return _fix_winding_outward(mesh)


def ellipsoid(
    radii: tuple[float, float, float],
    rings: int = 6,
    segments: int = 8,
    reflectivity: float = SKIN_REFLECTIVITY,
    name: str = "ellipsoid",
) -> TriangleMesh:
    """An axis-aligned ellipsoid with semi-axes ``radii``."""
    sphere = uv_sphere(1.0, rings=rings, segments=segments, reflectivity=reflectivity, name=name)
    return sphere.scaled(radii)


def box(
    size: tuple[float, float, float],
    reflectivity: float = SKIN_REFLECTIVITY,
    name: str = "box",
) -> TriangleMesh:
    """An axis-aligned box of full extents ``size`` centered at the origin."""
    sx, sy, sz = (s / 2.0 for s in size)
    vertices = np.array(
        [
            [-sx, -sy, -sz],
            [sx, -sy, -sz],
            [sx, sy, -sz],
            [-sx, sy, -sz],
            [-sx, -sy, sz],
            [sx, -sy, sz],
            [sx, sy, sz],
            [-sx, sy, sz],
        ]
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom (-z)
            [4, 5, 6], [4, 6, 7],  # top (+z)
            [0, 1, 5], [0, 5, 4],  # front (-y)
            [2, 3, 7], [2, 7, 6],  # back (+y)
            [0, 4, 7], [0, 7, 3],  # left (-x)
            [1, 2, 6], [1, 6, 5],  # right (+x)
        ],
        dtype=np.int64,
    )
    return TriangleMesh(vertices, faces, reflectivity, name)


def capsule(
    radius: float,
    height: float,
    rings: int = 4,
    segments: int = 8,
    reflectivity: float = SKIN_REFLECTIVITY,
    name: str = "capsule",
) -> TriangleMesh:
    """A z-aligned capsule: a cylinder of ``height`` capped by hemispheres.

    Used for limbs; ``height`` measures the cylindrical section only.
    """
    if height < 0.0:
        raise ValueError("height must be non-negative")
    sphere = uv_sphere(radius, rings=max(2, rings), segments=segments, name=name,
                       reflectivity=reflectivity)
    vertices = sphere.vertices.copy()
    shift = np.where(vertices[:, 2] >= 0.0, height / 2.0, -height / 2.0)
    vertices[:, 2] += shift
    return TriangleMesh(vertices, sphere.faces.copy(), reflectivity, name)


def planar_patch(
    width: float,
    height: float,
    subdivisions: int = 2,
    reflectivity: float = SKIN_REFLECTIVITY,
    name: str = "patch",
) -> TriangleMesh:
    """A flat rectangular patch in the x-z plane facing ``-y``.

    This is the shape of the aluminum reflector triggers: the front face
    (normal ``-y``) is the reflecting side, pointed at the radar when the
    patch is attached to the subject's radar-facing surface.
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    n = subdivisions + 1
    xs = np.linspace(-width / 2.0, width / 2.0, n)
    zs = np.linspace(-height / 2.0, height / 2.0, n)
    grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
    vertices = np.stack(
        [grid_x.ravel(), np.zeros(n * n), grid_z.ravel()], axis=1
    )
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            v00 = i * n + j
            v01 = i * n + j + 1
            v10 = (i + 1) * n + j
            v11 = (i + 1) * n + j + 1
            # Wind so normals point toward -y.
            faces.append([v00, v11, v01])
            faces.append([v00, v10, v11])
    mesh = TriangleMesh(vertices, np.array(faces, dtype=np.int64), reflectivity, name)
    normals = mesh.face_normals()
    if normals[:, 1].mean() > 0.0:  # pragma: no cover - defensive
        mesh = TriangleMesh(vertices, mesh.faces[:, ::-1].copy(), reflectivity, name)
    return mesh


def _fix_winding_outward(mesh: TriangleMesh) -> TriangleMesh:
    """Flip any face whose normal points into the mesh centroid."""
    center = mesh.vertices.mean(axis=0)
    normals = mesh.face_normals()
    outward = mesh.face_centroids() - center
    flip = (normals * outward).sum(axis=1) < 0.0
    faces = mesh.faces.copy()
    faces[flip] = faces[flip][:, ::-1]
    return TriangleMesh(mesh.vertices.copy(), faces, mesh.reflectivity.copy(), mesh.name)
