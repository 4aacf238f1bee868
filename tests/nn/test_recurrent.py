"""Tests for the LSTM layer and its parameters."""

import numpy as np
import pytest

from repro.nn import LSTM, LSTMCell, Linear, Tensor, cross_entropy

from .test_tensor import numerical_gradient


def test_cell_state_shapes(rng):
    """The cell holds the gates' stacked parameters; the layer returns (N, H)."""
    lstm = LSTM(4, 6, rng)
    cell = lstm.cell
    assert cell.weight_ih.shape == (24, 4)
    assert cell.weight_hh.shape == (24, 6)
    assert cell.bias.shape == (24,)
    assert lstm(Tensor(np.zeros((3, 5, 4)))).shape == (3, 6)


def test_forget_gate_bias_initialized_to_one(rng):
    cell = LSTMCell(4, 6, rng)
    bias = cell.bias.data
    assert np.allclose(bias[6:12], 1.0)
    assert np.allclose(bias[:6], 0.0)


def test_hidden_bounded_by_tanh(rng):
    lstm = LSTM(4, 8, rng)
    x = Tensor(rng.normal(size=(2, 10, 4)) * 5.0)
    h = lstm(x)
    assert (np.abs(h.data) <= 1.0).all()


def test_input_shape_validated(rng):
    lstm = LSTM(3, 5, rng)
    with pytest.raises(ValueError):
        lstm(Tensor(np.zeros((2, 3))))


def test_order_sensitivity(rng):
    """The LSTM distinguishes temporal order (mirror-pair separability)."""
    lstm = LSTM(2, 8, rng)
    forward_seq = rng.normal(size=(1, 6, 2))
    backward_seq = forward_seq[:, ::-1, :].copy()
    h_fwd = lstm(Tensor(forward_seq)).data
    h_bwd = lstm(Tensor(backward_seq)).data
    assert not np.allclose(h_fwd, h_bwd, atol=1e-3)


def test_lstm_end_to_end_gradients(rng):
    lstm = LSTM(3, 4, rng)
    head = Linear(4, 2, rng)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    labels = np.array([0, 1])

    def loss_value():
        return cross_entropy(head(lstm(Tensor(x.data))), labels).item()

    cross_entropy(head(lstm(x)), labels).backward()
    for name, param in list(lstm.named_parameters()) + [("x", x)]:
        numeric = numerical_gradient(loss_value, param.data)
        assert np.abs(numeric - param.grad).max() < 1e-6, name


def test_gradient_flows_to_first_frame(rng):
    """No vanishing-to-zero over a 32-step unroll (forget bias helps)."""
    lstm = LSTM(2, 8, rng)
    x = Tensor(rng.normal(size=(1, 32, 2)), requires_grad=True)
    lstm(x).sum().backward()
    assert np.abs(x.grad[0, 0]).max() > 1e-8
