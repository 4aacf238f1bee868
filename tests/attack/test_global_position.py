"""Tests for the Eq. 4 weighted geometric median."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import weighted_geometric_median


def test_single_point_is_its_own_median():
    point = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(weighted_geometric_median(point), point[0])


def test_median_of_symmetric_points_is_center():
    points = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float)
    assert np.allclose(weighted_geometric_median(points), 0.0, atol=1e-6)


def test_dominant_weight_pulls_to_point():
    points = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    weights = np.array([100.0, 1.0])
    median = weighted_geometric_median(points, weights)
    assert np.linalg.norm(median - points[0]) < 0.2


def test_collinear_points_median_is_weighted_middle():
    points = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
    median = weighted_geometric_median(points)
    # For 3 collinear points the geometric median is the middle one.
    assert np.allclose(median, [1.0, 0.0], atol=1e-6)


def test_iterate_on_data_point_handled():
    # Initial weighted mean coincides exactly with a data point.
    points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    median = weighted_geometric_median(points)
    assert np.isfinite(median).all()
    assert np.allclose(median, [1.0, 0.0], atol=1e-6)


def test_zero_weights_fall_back_to_uniform():
    points = np.array([[0.0, 0.0], [2.0, 0.0]])
    median = weighted_geometric_median(points, np.zeros(2))
    assert 0.0 <= median[0] <= 2.0


def test_validation():
    with pytest.raises(ValueError):
        weighted_geometric_median(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        weighted_geometric_median(np.zeros(3))
    with pytest.raises(ValueError):
        weighted_geometric_median(np.zeros((2, 3)), np.ones(3))


def _property_draw(seed: int, n: int) -> "tuple[np.ndarray, np.ndarray]":
    """Points and weights built like the property test's inputs."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.uniform(0.1, 2.0, size=n)


def _beats_perturbations(points, weights, median, step=0.05) -> bool:
    def objective(p):
        return float((weights * np.linalg.norm(points - p, axis=1)).sum())

    base = objective(median)
    return all(
        base <= objective(median + sign * delta) + 1e-6
        for delta in np.eye(3) * step
        for sign in (1.0, -1.0)
    )


def test_heavier_of_two_points_is_the_median_exactly():
    # Weights 1.711 and 1.735: the median is the heavier point, which
    # Weiszfeld's iteration alone only approaches.
    points, weights = _property_draw(206, 2)
    median = weighted_geometric_median(points, weights)
    assert np.array_equal(median, points[np.argmax(weights)])
    assert _beats_perturbations(points, weights, median)


def test_median_off_the_data_points_converges():
    # The median lies 0.37 from the nearest point, and 200 iterations
    # leave a gradient norm of about 1e-3.
    points, weights = _property_draw(2457, 3)
    median = weighted_geometric_median(points, weights)
    offsets = points - median
    distances = np.linalg.norm(offsets, axis=1)
    assert distances.min() > 0.3
    gradient = (weights[:, None] * offsets / distances[:, None]).sum(axis=0)
    assert np.linalg.norm(gradient) < 1e-9
    assert _beats_perturbations(points, weights, median)


def test_iterate_landing_on_a_data_point_moves_off_it():
    # The weighted mean is exactly the light point (0, 0), which is not
    # the median: the others pull it toward -y with norm 1 > 0.1.
    points = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 4.0], [0.0, -2.0]])
    weights = np.array([1.0, 1.0, 0.1, 1.0, 2.0])
    median = weighted_geometric_median(points, weights)
    offsets = points - median
    distances = np.linalg.norm(offsets, axis=1)
    assert distances.min() > 0.5
    gradient = (weights[:, None] * offsets / distances[:, None]).sum(axis=0)
    assert np.linalg.norm(gradient) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_median_minimizes_weighted_distance_property(seed, n):
    """The returned point beats small perturbations of itself."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    weights = rng.uniform(0.1, 2.0, size=n)

    def objective(p):
        return float((weights * np.linalg.norm(points - p, axis=1)).sum())

    median = weighted_geometric_median(points, weights)
    base = objective(median)
    for delta in np.eye(3) * 0.05:
        assert base <= objective(median + delta) + 1e-6
        assert base <= objective(median - delta) + 1e-6
