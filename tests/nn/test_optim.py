"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Tensor, clip_grad_norm


def quadratic_step(optimizer_factory, steps=200):
    """Minimize ||x - target||^2; return the final parameter."""
    target = np.array([1.0, -2.0, 3.0])
    x = Tensor(np.zeros(3), requires_grad=True)
    optimizer = optimizer_factory([x])
    for _ in range(steps):
        loss = ((x - target) * (x - target)).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return x.data, target


def test_adam_converges_on_quadratic():
    final, target = quadratic_step(lambda p: Adam(p, lr=0.1), steps=400)
    assert np.allclose(final, target, atol=1e-3)


def test_weight_decay_shrinks_solution():
    def factory(decay):
        return lambda p: Adam(p, lr=0.1, weight_decay=decay)

    free, target = quadratic_step(factory(0.0))
    decayed, _ = quadratic_step(factory(0.5))
    assert np.linalg.norm(decayed) < np.linalg.norm(free)


def test_step_skips_parameters_without_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    optimizer = Adam([x], lr=0.1)
    optimizer.step()  # no grad yet: no movement, no crash
    assert np.allclose(x.data, 1.0)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)
    with pytest.raises(ValueError):
        Adam([Tensor(np.ones(1), requires_grad=True)], lr=0.0)


def test_zero_grad_via_optimizer():
    x = Tensor(np.ones(2), requires_grad=True)
    (x * x).sum().backward()
    optimizer = Adam([x], lr=0.1)
    optimizer.zero_grad()
    assert x.grad is None


def test_clip_grad_norm_scales_down():
    x = Tensor(np.ones(4), requires_grad=True)
    x.grad = np.full(4, 10.0)
    norm_before = clip_grad_norm([x], max_norm=1.0)
    assert norm_before == pytest.approx(20.0)
    assert np.linalg.norm(x.grad) == pytest.approx(1.0, rel=1e-6)


def test_clip_grad_norm_no_clip_below_max():
    x = Tensor(np.ones(4), requires_grad=True)
    x.grad = np.full(4, 0.1)
    clip_grad_norm([x], max_norm=10.0)
    assert np.allclose(x.grad, 0.1)


def test_clip_grad_norm_validation():
    with pytest.raises(ValueError):
        clip_grad_norm([], max_norm=0.0)


def test_adam_bias_correction_first_step():
    # After one step with grad g, Adam moves by ~lr * sign(g).
    x = Tensor(np.array([0.0]), requires_grad=True)
    optimizer = Adam([x], lr=0.01)
    x.grad = np.array([5.0])
    optimizer.step()
    assert x.data[0] == pytest.approx(-0.01, rel=1e-3)
