"""Tests for the autodiff engine: ops, broadcasting, graph traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, stack


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = f()
        x[idx] = orig - eps
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(op, *shapes, seed=0, tol=1e-7):
    """Compare analytic and numerical gradients of scalar-valued ``op``."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = op(*leaves)
    out.backward()
    for leaf in leaves:
        numeric = numerical_gradient(lambda: op(*[Tensor(l.data) for l in leaves]).item(), leaf.data)
        assert np.abs(numeric - leaf.grad).max() < tol, f"shape {leaf.shape}"


def test_add_gradient():
    check_gradient(lambda a, b: (a + b).sum(), (3, 4), (3, 4))


def test_add_broadcast_gradient():
    check_gradient(lambda a, b: (a + b).sum(), (3, 4), (4,))
    check_gradient(lambda a, b: (a + b).sum(), (2, 3, 4), (1, 4))


def test_mul_gradient():
    check_gradient(lambda a, b: (a * b).sum(), (3, 4), (3, 4))
    check_gradient(lambda a, b: (a * b).sum(), (3, 4), (1,))


def test_div_gradient():
    check_gradient(lambda a, b: (a / (b * b + 1.0)).sum(), (3,), (3,))


def test_pow_and_sqrt_gradient():
    check_gradient(lambda a: ((a * a + 1.0) ** 1.5).sum(), (4,))
    check_gradient(lambda a: ((a * a + 1.0).sqrt()).sum(), (4,))


def test_matmul_gradient():
    check_gradient(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_matmul_vector_cases():
    check_gradient(lambda a, b: (a @ b).sum(), (4,), (4, 2))
    check_gradient(lambda a, b: (a @ b).sum(), (3, 4), (4,))


def test_reductions_gradient():
    check_gradient(lambda a: a.mean(), (3, 5))
    check_gradient(lambda a: a.sum(axis=1).sum(), (3, 5))
    check_gradient(lambda a: a.mean(axis=0, keepdims=True).sum(), (3, 5))


def test_max_gradient_routes_to_argmax():
    x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
    x.max().backward()
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])


def test_max_gradient_splits_ties():
    x = Tensor(np.array([3.0, 3.0]), requires_grad=True)
    x.max().backward()
    assert np.allclose(x.grad, [0.5, 0.5])


def test_reshape_transpose_gradient():
    check_gradient(lambda a: (a.reshape(6) * np.arange(6)).sum(), (2, 3))
    check_gradient(lambda a: (a.transpose() @ a).sum(), (3, 4))


def test_getitem_gradient():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    y = x[0, :2].sum()
    y.backward()
    expected = np.zeros((2, 3))
    expected[0, :2] = 1.0
    assert np.allclose(x.grad, expected)


def test_activation_gradients():
    check_gradient(lambda a: a.tanh().sum(), (5,))
    check_gradient(lambda a: a.sigmoid().sum(), (5,))
    check_gradient(lambda a: (a * a).exp().sum(), (4,), tol=1e-5)
    check_gradient(lambda a: (a * a + 1.0).log().sum(), (4,))
    check_gradient(lambda a: a.abs().sum(), (4,))


def test_relu_gradient_masks_negative():
    x = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]), requires_grad=True)
    x.relu().sum().backward()
    assert np.allclose(x.grad, [0.0, 1.0, 0.0, 1.0])


def test_stack_and_concat_gradient():
    check_gradient(lambda a, b: stack([a, b], axis=0).sum(), (3,), (3,))


def test_diamond_graph_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0  # x used twice
    y.backward()
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        (x * 2).backward()


def test_backward_on_detached_raises():
    x = Tensor(np.ones(1))
    with pytest.raises(RuntimeError):
        x.backward()


def test_detach_stops_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = (x.detach() * 2.0).sum()
    assert not y.requires_grad


def test_no_grad_tracking_without_requires_grad():
    x = Tensor(np.ones(3))
    y = x * 2.0
    assert not y.requires_grad
    assert y._parents == ()


def test_int_labels_not_promoted():
    labels = Tensor(np.array([0, 1, 2]))
    assert labels.data.dtype == np.int64


def test_wrapping_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor(Tensor(np.ones(2)))


def test_zero_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    (x * 2).sum().backward()
    assert x.grad is not None
    x.zero_grad()
    assert x.grad is None


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_chain_rule_property(rows, cols, seed):
    """Random small expression: analytic == numerical gradient."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, cols))
    x = Tensor(data.copy(), requires_grad=True)
    ((x * x).tanh() + x.sigmoid()).mean().backward()
    numeric = numerical_gradient(
        lambda: float(np.mean(np.tanh(data * data) + 1 / (1 + np.exp(-data)))), data
    )
    assert np.abs(numeric - x.grad).max() < 1e-6
