"""Tests for single-sided visibility filtering toward the radar."""

import numpy as np

from repro.geometry import box, uv_sphere, visibility_geometry
from repro.geometry.visibility import occlusion_mask_from_geometry

RADAR = np.array([0.0, 0.0, 0.0])


def test_sphere_front_half_visible():
    mesh = uv_sphere(0.3, rings=8, segments=12).translated([0.0, 2.0, 0.0])
    mask, _, _ = visibility_geometry(mesh, RADAR, use_occlusion=False)
    # Roughly half the faces face the radar.
    assert 0.3 < mask.mean() < 0.7
    # All visible centroids are on the radar-facing hemisphere.
    front = mesh.face_centroids()[mask]
    assert (front[:, 1] < 2.0 + 1e-9).all()


def test_incidence_cosines_bounded():
    mesh = uv_sphere(0.3, rings=6, segments=8).translated([0.0, 1.5, 0.0])
    mask, cos, _ = visibility_geometry(mesh, RADAR)
    assert (np.abs(cos) <= 1.0 + 1e-12).all()
    # Every visible face has a positive gain.
    assert (cos[mask] > 0.0).all()


def test_square_on_facet_has_unit_gain():
    from repro.geometry import planar_patch

    patch = planar_patch(0.1, 0.1).translated([0.0, 1.0, 0.0])
    _, cos, _ = visibility_geometry(patch, RADAR)
    # Facet centroids sit slightly off boresight, so cosines are just
    # below 1 — but all within the patch's angular subtense.
    assert (cos > 0.995).all()


def test_occlusion_hides_object_behind():
    near = box((0.5, 0.1, 0.5)).translated([0.0, 1.0, 0.0])
    far = box((0.5, 0.1, 0.5)).translated([0.0, 3.0, 0.0])
    from repro.geometry import merge_meshes

    scene = merge_meshes([near, far])
    mask = occlusion_mask_from_geometry(scene.face_centroids(), RADAR)
    near_faces = mask[: near.num_faces]
    far_faces = mask[near.num_faces :]
    # The near box survives; the far box is mostly hidden behind it.
    assert near_faces.mean() > 0.5
    assert far_faces.mean() < near_faces.mean()


def test_visible_mask_combines_both():
    mesh = uv_sphere(0.3, rings=8, segments=12).translated([0.0, 2.0, 0.0])
    combined, _, _ = visibility_geometry(mesh, RADAR, use_occlusion=True)
    facing_only, _, _ = visibility_geometry(mesh, RADAR, use_occlusion=False)
    assert combined.sum() <= facing_only.sum()
    assert combined.any()


def test_empty_mesh_visibility():
    from repro.geometry import TriangleMesh

    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    mask, _, _ = visibility_geometry(empty, RADAR)
    assert mask.shape == (0,)
