"""Single-sided visibility filtering toward the radar.

The paper's simulator (Section V-B, Fig. 4) keeps only the "single-sided
surface that is reachable by the radar": facets whose outward normal faces
the sensor.  We implement backface culling plus an optional coarse occlusion
test that discards facets hidden behind nearer geometry in the same angular
sector — enough fidelity for heatmap synthesis without full ray tracing.

The ``*_from_geometry`` functions take already-derived centroid/normal
arrays with arbitrary leading batch dimensions, which is how the batched
simulator runs visibility for a whole ``(T, F)`` pose sequence in one
pass instead of once per frame; :func:`visibility_geometry` runs the same
pass for one :class:`TriangleMesh`.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

#: Azimuth/elevation grid of the occlusion test's direction cells.
_AZIMUTH_BINS = 48
_ELEVATION_BINS = 24
#: Depth behind the nearest facet of a cell within which facets survive.
_DEPTH_SLACK_M = 0.12


def cos_incidence_from_geometry(
    centroids: np.ndarray, normals: np.ndarray, radar_position: np.ndarray
) -> np.ndarray:
    """Signed incidence cosine for ``(..., F, 3)`` centroid/normal stacks.

    Positive values face the radar; the magnitude is the geometric gain
    factor ``A_g`` in Eq. 3 once clipped at zero.
    """
    radar_position = np.asarray(radar_position, dtype=float)
    to_radar = radar_position - centroids
    distances = np.linalg.norm(to_radar, axis=-1, keepdims=True)
    distances = np.where(distances > 0.0, distances, 1.0)
    return (normals * (to_radar / distances)).sum(axis=-1)


def occlusion_mask_from_geometry(
    centroids: np.ndarray, radar_position: np.ndarray
) -> np.ndarray:
    """Coarse sector occlusion for ``(..., F, 3)`` centroid stacks.

    The sphere of directions around the radar is divided into an
    azimuth/elevation grid; within each cell only facets within
    ``_DEPTH_SLACK_M`` of the nearest facet survive.  This captures the
    dominant effect (the torso hides the back of the body; the body hides
    furniture directly behind it) at a tiny fraction of ray-tracing cost.
    Leading batch dimensions (e.g. the frame axis of a pose sequence) are
    occluded independently: each frame competes only against its own
    geometry.
    """
    radar_position = np.asarray(radar_position, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    rel = centroids - radar_position
    distances = np.linalg.norm(rel, axis=-1)
    safe = np.where(distances > 0.0, distances, 1.0)
    azimuth = np.arctan2(rel[..., 0], rel[..., 1])
    elevation = np.arcsin(np.clip(rel[..., 2] / safe, -1.0, 1.0))

    az_idx = np.clip(
        ((azimuth + np.pi) / (2.0 * np.pi) * _AZIMUTH_BINS).astype(int), 0, _AZIMUTH_BINS - 1
    )
    el_idx = np.clip(
        ((elevation + np.pi / 2.0) / np.pi * _ELEVATION_BINS).astype(int), 0, _ELEVATION_BINS - 1
    )
    cell = az_idx * _ELEVATION_BINS + el_idx

    # One scatter-min over all batch entries: offset each batch element's
    # cell indices into its own block of the flattened depth table.
    num_cells = _AZIMUTH_BINS * _ELEVATION_BINS
    batch_shape = distances.shape[:-1]
    num_batches = int(np.prod(batch_shape)) if batch_shape else 1
    offsets = np.arange(num_batches).reshape(batch_shape + (1,)) * num_cells
    flat_cell = (cell + offsets).reshape(-1)
    min_depth = np.full(num_batches * num_cells, np.inf)
    np.minimum.at(min_depth, flat_cell, distances.reshape(-1))
    return distances <= min_depth[flat_cell].reshape(distances.shape) + _DEPTH_SLACK_M


def visible_mask_from_geometry(
    centroids: np.ndarray,
    normals: np.ndarray,
    radar_position: np.ndarray,
    use_occlusion: bool = True,
) -> "tuple[np.ndarray, np.ndarray]":
    """(visibility mask, signed incidence cosines) for geometry stacks.

    One shared pass over ``(..., F, 3)`` centroids/normals: the cosines
    computed for backface culling are returned so callers (the simulator's
    facet extraction) never re-derive them per frame.
    """
    cos = cos_incidence_from_geometry(centroids, normals, radar_position)
    mask = cos > 0.0
    if use_occlusion and centroids.shape[-2]:
        mask &= occlusion_mask_from_geometry(centroids, radar_position)
    return mask, cos


def visibility_geometry(
    mesh: TriangleMesh,
    radar_position: np.ndarray,
    use_occlusion: bool = True,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(mask, incidence cosines, centroids) from one geometry pass.

    The mask-producing pass already needs centroids and incidence cosines;
    returning them lets :meth:`FmcwRadarSimulator.facet_set` apply the mask
    *before* computing areas and amplitudes instead of deriving everything
    for every (mostly occluded) face and masking afterwards.
    """
    centroids = mesh.face_centroids()
    mask, cos = visible_mask_from_geometry(
        centroids, mesh.face_normals(), radar_position, use_occlusion=use_occlusion
    )
    return mask, cos, centroids
