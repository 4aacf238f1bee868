"""LSTM cell and sequence layer.

The prototype's temporal head: an LSTM consumes the per-frame CNN feature
series and its final hidden state summarizes the activity (paper Section
II-A).  Gates follow the standard formulation with a unit forget-gate bias.
"""

from __future__ import annotations

import numpy as np

from .init import orthogonal, xavier_uniform
from .layers import Module
from .tensor import Tensor, stack


class LSTMCell(Module):
    """One step of an LSTM: ``(x_t, h, c) -> (h', c')``.

    Gate order in the stacked weight matrices is (input, forget, cell,
    output); the forget-gate bias initializes to 1 to ease gradient flow
    over the 32-frame sequences.
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

    def forward(
        self, x: Tensor, state: "tuple[Tensor, Tensor]"
    ) -> "tuple[Tensor, Tensor]":
        h_prev, c_prev = state
        gates = x @ self.weight_ih.transpose() + h_prev @ self.weight_hh.transpose() + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size: int) -> "tuple[Tensor, Tensor]":
        dtype = self.weight_ih.data.dtype
        zeros = np.zeros((batch_size, self.hidden_size), dtype=dtype)
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class LSTM(Module):
    """Unrolled single-layer LSTM over ``(N, T, input_size)`` sequences."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(
        self,
        x: Tensor,
        state: "tuple[Tensor, Tensor] | None" = None,
        return_sequence: bool = False,
    ) -> Tensor:
        """Run the sequence; return the last hidden state ``(N, H)``.

        With ``return_sequence=True`` returns all hidden states
        ``(N, T, H)`` instead (used by explainers that probe prefixes).
        """
        if x.ndim != 3:
            raise ValueError(f"expected (N, T, F) input, got {x.shape}")
        batch, steps, _ = x.shape
        if state is None:
            state = self.cell.initial_state(batch)
        h, c = state
        outputs = []
        for t in range(steps):
            h, c = self.cell(x[:, t, :], (h, c))
            if return_sequence:
                outputs.append(h)
        if return_sequence:
            return stack(outputs, axis=1)
        return h
