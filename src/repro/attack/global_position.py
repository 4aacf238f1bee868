"""SHAP-weighted global trigger position (paper Eq. 4).

The per-frame optima drift as the hand moves, but the attacker cannot
relocate the reflector mid-gesture, so a single global position is chosen
by minimizing the SHAP-weighted sum of distances to the per-frame optima:

    min_gop  sum_i  phi_i * || op_i - gop ||_2

— a weighted geometric median, solved with Weiszfeld iterations.
"""

from __future__ import annotations

import numpy as np

from .placement import PlacementResult


def weighted_geometric_median(
    points: np.ndarray,
    weights: np.ndarray | None = None,
    max_iterations: int = 20_000,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Weiszfeld's algorithm for the weighted geometric median.

    A data point ``p_k`` is the median exactly when the others' unit
    pulls on it, ``|| sum_{i != k} w_i (p_i - p_k) / ||p_i - p_k|| ||``,
    do not exceed its own weight (coincident points pool their weights).
    Weiszfeld's iteration only approaches such a point, so each one is
    tested first.  Otherwise the median lies off every data point and
    the iteration converges to it; an iterate that lands on a data
    point anyway is moved off it by the Vardi-Zhang step.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be (N, D)")
    n = len(points)
    if n == 0:
        raise ValueError("need at least one point")
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must match points")
    weights = np.clip(weights, 0.0, None)
    total = weights.sum()
    if total <= 0.0:
        weights = np.ones(n)
        total = float(n)
    weights = weights / total

    # offsets[k, i] = p_i - p_k: every data point's optimality condition.
    offsets = points[None, :, :] - points[:, None, :]
    distances = np.linalg.norm(offsets, axis=2)
    apart = distances > 0.0
    unit = offsets / np.where(apart, distances, 1.0)[:, :, None]
    pull = np.linalg.norm((weights[None, :, None] * unit).sum(axis=1), axis=1)
    held = (weights[None, :] * ~apart).sum(axis=1)
    optimal = np.flatnonzero(pull <= held)
    if optimal.size:
        return points[optimal[0]].copy()

    estimate = (points * weights[:, None]).sum(axis=0)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points - estimate, axis=1)
        away = distances > 0.0
        inv = weights[away] / distances[away]
        new_estimate = (points[away] * inv[:, None]).sum(axis=0) / inv.sum()
        if not away.all():
            step = np.linalg.norm(((points[away] - estimate) * inv[:, None]).sum(axis=0))
            share = min(1.0, weights[~away].sum() / step)
            new_estimate = (1.0 - share) * new_estimate + share * estimate
        if np.linalg.norm(new_estimate - estimate) < tolerance:
            return new_estimate
        estimate = new_estimate
    return estimate


def global_optimal_position(
    placement: PlacementResult,
    shap_values: np.ndarray,
) -> np.ndarray:
    """Eq. 4: the SHAP-weighted geometric median of per-frame optima."""
    shap_values = np.asarray(shap_values, dtype=float)
    if shap_values.shape != (placement.num_frames,):
        raise ValueError(
            f"need one SHAP value per frame ({placement.num_frames}), "
            f"got {shap_values.shape}"
        )
    # Negative SHAP frames argue against the prediction; they get no say
    # in where the trigger sits.
    weights = np.clip(shap_values, 0.0, None)
    return weighted_geometric_median(placement.per_frame_best_position, weights)


def snap_to_candidate(
    position: np.ndarray, placement: PlacementResult
) -> "tuple[int, str, np.ndarray]":
    """Nearest physically-realizable candidate to a continuous position.

    The geometric median generally falls between candidate points; the
    attacker tapes the reflector to the closest actual body location.
    Returns ``(index, name, snapped position)``.
    """
    position = np.asarray(position, dtype=float)
    distances = np.linalg.norm(placement.candidate_positions - position, axis=1)
    index = int(distances.argmin())
    return index, placement.candidate_names[index], placement.candidate_positions[index]
