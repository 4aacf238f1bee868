"""Last-mile coverage: small public helpers used by the harness."""

import numpy as np

from repro.nn import Tensor, log_softmax

from .nn.test_tensor import numerical_gradient


def test_log_softmax_gradient():
    logits = Tensor(np.array([[0.3, -1.2, 2.0]]), requires_grad=True)
    weights = np.array([[0.5, -0.25, 1.5]])

    def loss_value():
        out = log_softmax(Tensor(logits.data), axis=1)
        return float((out.data * weights).sum())

    (log_softmax(logits, axis=1) * weights).sum().backward()
    numeric = numerical_gradient(loss_value, logits.data)
    assert np.abs(numeric - logits.grad).max() < 1e-7


def test_npz_suffix_handling(tmp_path):
    from repro.nn import Linear, Sequential, load_checkpoint, save_checkpoint

    model = Sequential(Linear(2, 2, np.random.default_rng(0)))
    # numpy appends .npz when missing; both spellings must round-trip.
    save_checkpoint(model, tmp_path / "a.npz")
    load_checkpoint(model, tmp_path / "a.npz")
    save_checkpoint(model, tmp_path / "b")
    load_checkpoint(model, tmp_path / "b.npz")


def test_shap_config_defaults_are_sane():
    from repro.xai import ShapConfig

    config = ShapConfig()
    assert config.num_samples >= 8
    assert config.baseline in ("zeros", "mean")
