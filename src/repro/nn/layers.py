"""Module system and the standard feed-forward layers.

A :class:`Module` owns named :class:`~repro.nn.tensor.Tensor` parameters
and child modules; ``parameters()`` / ``state_dict()`` traverse the tree,
``train()`` / ``eval()`` toggle stochastic layers (dropout).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import functional as F
from .init import kaiming_uniform
from .tensor import Tensor


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Tensor` parameters and child ``Module``
    instances as attributes; both are discovered automatically.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield f"{prefix}{name}", value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{prefix}{name}.{index}.")

    def parameters(self) -> list[Tensor]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Modes / gradients
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every parameter in place (e.g. ``np.float32`` for speed)."""
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            param.grad = None
        return self

    @property
    def dtype(self):
        """Dtype of the first parameter (models are homogeneous)."""
        for param in self.parameters():
            return param.data.dtype
        return np.float64

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state_dict(self) -> "dict[str, np.ndarray]":
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: "dict[str, np.ndarray]") -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in params.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {param.shape}")
            param.data = value.astype(param.data.dtype, copy=True)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            kaiming_uniform((out_features, in_features), in_features, rng), requires_grad=True
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2D convolution over ``(N, C, H, W)`` tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            ),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class MaxPool2d(Module):
    """Max pooling with a square window (stride equals the window)."""

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    """Flatten all axes after the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.rng, self.training)


class Sequential(Module):
    """Applies child modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
