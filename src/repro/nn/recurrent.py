"""LSTM sequence layer.

The prototype's temporal head: an LSTM consumes the per-frame CNN feature
series and its final hidden state summarizes the activity (paper Section
II-A).  Gates follow the standard formulation with a unit forget-gate bias.
The recurrence runs as one graph node, :func:`repro.nn.functional.lstm`;
``tests/nn/oracles.py`` keeps the per-step tape it replaced as the test
reference.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .init import orthogonal, xavier_uniform
from .layers import Module
from .tensor import Tensor


class LSTMCell(Module):
    """The LSTM's parameters: ``weight_ih``, ``weight_hh`` and ``bias``.

    Gate order in the stacked weight matrices is (input, forget, cell,
    output); the forget-gate bias initializes to 1 to ease gradient flow
    over the 32-frame sequences.  The cell keeps these under the
    ``lstm.cell.*`` state-dict keys that checkpoints and registry
    artifacts use.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Tensor(
            xavier_uniform((4 * hidden_size, input_size), input_size, hidden_size, rng),
            requires_grad=True,
        )
        self.weight_hh = Tensor(
            np.vstack([orthogonal((hidden_size, hidden_size), rng) for _ in range(4)]),
            requires_grad=True,
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True)


class LSTM(Module):
    """Single-layer LSTM over ``(N, T, input_size)`` sequences."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tensor:
        """Run the sequence from a zero state; return the last hidden ``(N, H)``."""
        if x.ndim != 3:
            raise ValueError(f"expected (N, T, F) input, got {x.shape}")
        cell = self.cell
        return F.lstm(x, cell.weight_ih, cell.weight_hh, cell.bias)
