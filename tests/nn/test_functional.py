"""Tests for conv/pool/dropout/softmax/losses."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    conv2d,
    cross_entropy,
    dropout,
    linear,
    log_softmax,
    max_pool2d,
    mse_loss,
    softmax,
)
from .test_tensor import numerical_gradient


def test_conv2d_output_shape():
    x = Tensor(np.zeros((2, 3, 8, 8)))
    w = Tensor(np.zeros((5, 3, 3, 3)))
    assert conv2d(x, w, padding=1).shape == (2, 5, 8, 8)
    assert conv2d(x, w, padding=0).shape == (2, 5, 6, 6)
    assert conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 1, 5, 5))
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0  # delta kernel = identity
    out = conv2d(Tensor(x), Tensor(kernel), padding=1)
    assert np.allclose(out.data, x)


def test_conv2d_matches_manual_cross_correlation():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    w = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
    out = conv2d(Tensor(x), Tensor(w)).data[0, 0]
    expected = x[0, 0, :3, :3] - x[0, 0, 1:, 1:]
    assert np.allclose(out, expected)


def test_conv2d_channel_mismatch_rejected():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 4, 3, 3))))


def _check_conv2d_gradients(stride, padding):
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.2, requires_grad=True)
    b = Tensor(rng.normal(size=3) * 0.1, requires_grad=True)
    out = conv2d(x, w, b, stride=stride, padding=padding)
    target = rng.normal(size=out.shape)

    def loss_value():
        out = conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding)
        return float(((out.data - target) ** 2).mean())

    mse_loss(out, target).backward()
    for leaf in (x, w, b):
        numeric = numerical_gradient(loss_value, leaf.data)
        assert np.abs(numeric - leaf.grad).max() < 1e-6


def test_conv2d_gradients():
    _check_conv2d_gradients(stride=1, padding=1)


def test_conv2d_gradients_strided_unpadded():
    _check_conv2d_gradients(stride=2, padding=0)


def test_max_pool_forward():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = max_pool2d(Tensor(x), 2)
    assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])


def test_max_pool_gradient_routes_to_max():
    x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
    max_pool2d(x, 2).sum().backward()
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
    assert np.allclose(x.grad[0, 0], expected)


@pytest.mark.parametrize("kernel", [2, 3])
def test_max_pool_gradients(kernel):
    rng = np.random.default_rng(kernel)
    # Distinct values 0.1 apart: a 1e-6 nudge never changes a window's max.
    data = rng.permutation(2 * 2 * 6 * 6).reshape(2, 2, 6, 6) * 0.1
    x = Tensor(data, requires_grad=True)
    target = rng.normal(size=(2, 2, 6 // kernel, 6 // kernel))

    def loss_value():
        out = max_pool2d(Tensor(x.data), kernel)
        return float(((out.data - target) ** 2).mean())

    mse_loss(max_pool2d(x, kernel), target).backward()
    numeric = numerical_gradient(loss_value, x.data)
    assert np.abs(numeric - x.grad).max() < 1e-6


def test_max_pool_validation():
    with pytest.raises(ValueError):
        max_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)
    with pytest.raises(NotImplementedError):
        max_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 2, stride=1)


def test_dropout_eval_is_identity(rng):
    x = Tensor(np.ones((4, 4)))
    out = dropout(x, 0.5, rng, training=False)
    assert out is x


def test_dropout_preserves_expectation(rng):
    x = Tensor(np.ones((200, 200)))
    out = dropout(x, 0.25, rng, training=True)
    assert out.data.mean() == pytest.approx(1.0, abs=0.02)
    # Surviving entries are scaled by 1 / keep.
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 1.0 / 0.75)


def test_dropout_rate_validation(rng):
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 1.0, rng, training=True)


def test_log_softmax_normalizes():
    logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
    log_probs = log_softmax(logits, axis=1)
    assert np.exp(log_probs.data).sum() == pytest.approx(1.0)


def test_log_softmax_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0]])
    a = log_softmax(Tensor(logits), axis=1).data
    b = log_softmax(Tensor(logits + 100.0), axis=1).data
    assert np.allclose(a, b)


def test_softmax_stable_with_large_logits():
    probs = softmax(np.array([[1000.0, 1000.0]]))
    assert np.allclose(probs, 0.5)


def test_cross_entropy_value():
    logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
    loss = cross_entropy(logits, np.array([0, 1]))
    assert loss.item() == pytest.approx(0.0, abs=1e-3)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
    cross_entropy(logits, np.array([1])).backward()
    probs = softmax(logits.data)
    expected = probs.copy()
    expected[0, 1] -= 1.0
    assert np.allclose(logits.grad, expected)


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))


def test_linear_matches_manual(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert np.allclose(out.data, x @ w.T + b)


def test_mse_loss_value():
    pred = Tensor(np.array([1.0, 2.0]))
    assert mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(2.5)
