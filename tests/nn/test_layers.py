"""Tests for the Module system and feed-forward layers."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Tensor,
)


def make_mlp(rng):
    return Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))


def test_named_parameters_traversal(rng):
    mlp = make_mlp(rng)
    names = dict(mlp.named_parameters())
    assert set(names) == {
        "layers.0.weight",
        "layers.0.bias",
        "layers.2.weight",
        "layers.2.bias",
    }


def test_num_parameters(rng):
    mlp = make_mlp(rng)
    assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2


def test_train_eval_propagates(rng):
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.drop = Dropout(0.5, rng)

        def forward(self, x):
            return self.drop(x)

    net = Net()
    net.eval()
    assert not net.drop.training
    net.train()
    assert net.drop.training


def test_state_dict_roundtrip(rng):
    a = make_mlp(rng)
    b = make_mlp(np.random.default_rng(99))
    b.load_state_dict(a.state_dict())
    x = Tensor(np.ones((2, 4)))
    assert np.allclose(a(x).data, b(x).data)


def test_load_state_dict_validates_keys(rng):
    mlp = make_mlp(rng)
    state = mlp.state_dict()
    state.pop("layers.0.bias")
    with pytest.raises(KeyError):
        mlp.load_state_dict(state)


def test_load_state_dict_validates_shapes(rng):
    mlp = make_mlp(rng)
    state = mlp.state_dict()
    state["layers.0.weight"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mlp.load_state_dict(state)


def test_zero_grad_clears(rng):
    mlp = make_mlp(rng)
    out = mlp(Tensor(np.ones((1, 4)))).sum()
    out.backward()
    assert any(p.grad is not None for p in mlp.parameters())
    mlp.zero_grad()
    assert all(p.grad is None for p in mlp.parameters())


def test_astype_casts_parameters(rng):
    mlp = make_mlp(rng)
    mlp.astype(np.float32)
    assert mlp.dtype == np.float32
    out = mlp(Tensor(np.ones((1, 4), dtype=np.float32)))
    assert out.data.dtype == np.float32


def test_linear_shapes(rng):
    layer = Linear(5, 3, rng)
    out = layer(Tensor(np.zeros((7, 5))))
    assert out.shape == (7, 3)


def test_linear_no_bias(rng):
    layer = Linear(5, 3, rng, bias=False)
    assert layer.bias is None
    assert len(list(layer.named_parameters())) == 1


def test_conv_layer_forward(rng):
    layer = Conv2d(2, 4, 3, rng, padding=1)
    out = layer(Tensor(np.zeros((1, 2, 8, 8))))
    assert out.shape == (1, 4, 8, 8)


def test_maxpool_layer(rng):
    layer = MaxPool2d(2)
    out = layer(Tensor(np.zeros((1, 1, 8, 8))))
    assert out.shape == (1, 1, 4, 4)


def test_flatten(rng):
    out = Flatten()(Tensor(np.zeros((3, 2, 4, 4))))
    assert out.shape == (3, 32)


def test_relu_tanh_layers():
    x = Tensor(np.array([[-1.0, 1.0]]))
    assert np.allclose(ReLU()(x).data, [[0.0, 1.0]])


def test_sequential_indexing(rng):
    mlp = make_mlp(rng)
    assert len(mlp) == 3
    assert isinstance(mlp[1], ReLU)


def test_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        Module()(1)
