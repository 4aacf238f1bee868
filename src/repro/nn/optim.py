"""The Adam optimizer and gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: "list[Tensor]",
        lr: float = 1e-3,
        betas: "tuple[float, float]" = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def state_dict(self) -> "dict[str, np.ndarray]":
        """Moments + step count, keyed by parameter position, for
        checkpointing (an un-restored optimizer restarts Adam cold, which
        changes the trajectory after a resume)."""
        state = {"step": np.array(self._step_count)}
        for index, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{index}"] = m
            state[f"v.{index}"] = v
        return state

    def load_state_dict(self, state: "dict[str, np.ndarray]") -> None:
        """Restore :meth:`state_dict`; parameter order must match."""
        expected = {"step"} | {
            f"{kind}.{i}" for kind in ("m", "v") for i in range(len(self.parameters))
        }
        if set(state) != expected:
            raise ValueError(
                "optimizer state does not match this parameter list "
                f"(got {len(state)} entries, expected {len(expected)})"
            )
        self._step_count = int(state["step"])
        for index, param in enumerate(self.parameters):
            for kind, slot in (("m", self._m), ("v", self._v)):
                entry = np.asarray(state[f"{kind}.{index}"])
                if entry.shape != param.data.shape:
                    raise ValueError(
                        f"optimizer state {kind}.{index} has shape {entry.shape}, "
                        f"parameter has {param.data.shape}"
                    )
                slot[index][...] = entry

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(parameters: "list[Tensor]", max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm; essential for stable LSTM training over
    32-step sequences.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for grad in grads:
            grad *= scale
    return total
