"""The model's kernels against the formulations they replaced.

``conv2d`` sums in a different order than its einsum oracle, so it is
held to a tolerance fixed from the dtype: ``CONV_RTOL`` times the
largest reference magnitude.  ``max_pool2d`` and ReLU do no arithmetic
beyond selecting values, so on finite inputs they must match their
oracles bit for bit.  The fused LSTM keeps the per-step tape's operation
order, so it too must match its oracle bit for bit.  The frame CNN pools
before its ReLUs; max commutes with ReLU, so training in either order
gives equal values and, after the optimizer steps, equal bytes.
"""

import numpy as np
import pytest

from repro.eval import FAST
from repro.models import CNNLSTMClassifier, ModelConfig
from repro.models.cnn_lstm import FrameEncoder
from repro.nn import (
    LSTM,
    Adam,
    Tensor,
    clip_grad_norm,
    conv2d,
    cross_entropy,
    functional,
    load_checkpoint,
    max_pool2d,
)

from .oracles import (
    conv2d_einsum,
    lstm_per_step,
    max_pool2d_argmax,
    relu_before_pool,
    relu_where,
)
from .test_tensor import numerical_gradient

CONV_RTOL = {np.float32: 1e-4, np.float64: 1e-10}


def _bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.dtype(f"u{array.dtype.itemsize}"))


def _bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _forward_backward(op, inputs, grad):
    leaves = [Tensor(array.copy(), requires_grad=True) for array in inputs]
    out = op(*leaves)
    out.backward(grad)
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
def test_conv2d_matches_einsum_oracle(dtype, channels, stride, padding, kernel):
    rng = np.random.default_rng(100 * stride + 10 * padding + channels)
    x = rng.normal(size=(3, channels, 9, 7)).astype(dtype)
    weight = rng.normal(size=(4, channels, *kernel)).astype(dtype)
    bias = rng.normal(size=4).astype(dtype)
    out_shape = conv2d_einsum(Tensor(x), Tensor(weight), stride=stride, padding=padding).shape
    grad = rng.normal(size=out_shape).astype(dtype)

    def fast(a, w, b):
        return conv2d(a, w, b, stride=stride, padding=padding)

    def oracle(a, w, b):
        return conv2d_einsum(a, w, b, stride=stride, padding=padding)

    got_out, got_grads = _forward_backward(fast, (x, weight, bias), grad)
    ref_out, ref_grads = _forward_backward(oracle, (x, weight, bias), grad)
    for got, ref in zip([got_out, *got_grads], [ref_out, *ref_grads]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= CONV_RTOL[dtype] * np.abs(ref).max()


def test_conv2d_input_gradient_at_model_shapes():
    """The frame CNN's second conv, float32, at a training batch's size."""
    rng = np.random.default_rng(7)
    x = rng.random((32, 8, 16, 16), dtype=np.float32)
    weight = (rng.normal(size=(16, 8, 3, 3)) * 0.1).astype(np.float32)
    grad = rng.normal(size=(32, 16, 16, 16)).astype(np.float32)
    got = _forward_backward(lambda a, w: conv2d(a, w, padding=1), (x, weight), grad)
    ref = _forward_backward(lambda a, w: conv2d_einsum(a, w, padding=1), (x, weight), grad)
    for got_grad, ref_grad in zip(got[1], ref[1]):
        assert np.abs(got_grad - ref_grad).max() <= CONV_RTOL[np.float32] * np.abs(ref_grad).max()


def _relu_like(rng, shape, dtype):
    """Rectified noise with whole zero windows and tied positive maxima."""
    x = np.maximum(rng.normal(size=shape), 0.0).astype(dtype)
    x[:, :, :6, :6] = 0.0  # all-zero windows for kernels 2 and 3
    x[:, :, 6:12, 6:12] = 1.5  # windows whose every entry ties
    x[0, 0, 6, 7] = 2.0  # one tie broken inside a tied block
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [2, 3])
def test_max_pool2d_is_bit_identical_to_argmax_oracle(dtype, kernel):
    rng = np.random.default_rng(kernel)
    x = _relu_like(rng, (4, 3, 12, 18), dtype)
    grad = rng.normal(size=(4, 3, 12 // kernel, 18 // kernel)).astype(dtype)
    got_out, (got_grad,) = _forward_backward(lambda a: max_pool2d(a, kernel), (x,), grad)
    ref_out, (ref_grad,) = _forward_backward(
        lambda a: max_pool2d_argmax(a, kernel), (x,), grad
    )
    assert _bit_identical(got_out, ref_out)
    assert _bit_identical(got_grad, ref_grad)


def test_max_pool2d_routes_tied_windows_to_first_maximum():
    x = Tensor(np.zeros((1, 1, 2, 4)), requires_grad=True)
    x.data[0, 0, :, 2:] = [[1.0, 3.0], [3.0, 3.0]]
    max_pool2d(x, 2).backward(np.array([[[[5.0, 7.0]]]]))
    assert np.array_equal(x.grad[0, 0], [[5.0, 0.0, 0.0, 7.0], [0.0, 0.0, 0.0, 0.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_is_bit_identical_to_where_oracle(dtype):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5, 6)).astype(dtype)
    x[0] = 0.0
    grad = rng.normal(size=x.shape).astype(dtype)
    got_out, (got_grad,) = _forward_backward(lambda a: a.relu(), (x,), grad)
    ref_out, (ref_grad,) = _forward_backward(relu_where, (x,), grad)
    assert _bit_identical(got_out, ref_out)
    assert _bit_identical(got_grad, ref_grad)


def test_relu_propagates_nan_that_where_zeroed():
    """The one change in behaviour: a NaN activation stays NaN, so a
    diverged network reaches the trainer's non-finite-loss guard rather
    than being silently rectified to zero."""
    x = np.array([np.nan, -1.0, 2.0])
    assert np.array_equal(Tensor(x).relu().data, [np.nan, 0.0, 2.0], equal_nan=True)
    assert np.array_equal(relu_where(Tensor(x)).data, [0.0, 0.0, 2.0])
    leaf = Tensor(x, requires_grad=True)
    leaf.relu().backward(np.ones(3))
    assert np.array_equal(leaf.grad, [0.0, 0.0, 1.0])


# The classifier's LSTM sizes (feature_dim 32, lstm_hidden 48) under a
# small frame CNN, so a pass at N=16, T=32 stays cheap.
LSTM_TEST_CONFIG = ModelConfig(frame_shape=(8, 8), conv_channels=(2, 4))

#: State-dict keys of a classifier checkpoint (and of a registry
#: artifact's weights) as written before the LSTM became one node.
CLASSIFIER_STATE_KEYS = [
    "encoder.body.layers.0.weight",
    "encoder.body.layers.0.bias",
    "encoder.body.layers.3.weight",
    "encoder.body.layers.3.bias",
    "encoder.projection.weight",
    "encoder.projection.bias",
    "lstm.cell.weight_ih",
    "lstm.cell.weight_hh",
    "lstm.cell.bias",
    "head.weight",
    "head.bias",
]


@pytest.fixture
def per_step_lstm(monkeypatch):
    """Route ``LSTM.forward`` through the per-step tape oracle."""

    def use():
        monkeypatch.setattr(LSTM, "forward", lambda self, x: lstm_per_step(self.cell, x))

    return use


def _classifier_step(batch, steps, training):
    """Logits, every parameter gradient and the input gradient of one
    float32 forward and backward pass of a fresh classifier."""
    model = CNNLSTMClassifier(LSTM_TEST_CONFIG, np.random.default_rng(5))
    model.train() if training else model.eval()
    rng = np.random.default_rng(100 * batch + steps)
    x = Tensor(rng.random((batch, steps, 8, 8), dtype=np.float32), requires_grad=True)
    labels = rng.integers(0, LSTM_TEST_CONFIG.num_classes, size=batch)
    logits = model(x)
    cross_entropy(logits, labels).backward()
    return [logits.data, *(param.grad for param in model.parameters()), x.grad]


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("steps", [1, 16, 32])
@pytest.mark.parametrize("batch", [1, 8, 16])
def test_lstm_is_bit_identical_to_per_step_tape(per_step_lstm, batch, steps, training):
    fused = _classifier_step(batch, steps, training)
    per_step_lstm()
    tape = _classifier_step(batch, steps, training)
    assert len(fused) == 1 + len(CLASSIFIER_STATE_KEYS) + 1
    for got, ref in zip(fused, tape):
        assert _bit_identical(got, ref)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    lstm = LSTM(3, 4, rng)
    cell = lstm.cell
    x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
    weights = rng.normal(size=(2, 4))
    leaves = [x, cell.weight_ih, cell.weight_hh, cell.bias]

    def loss():
        inputs = [Tensor(leaf.data) for leaf in leaves]
        return float((functional.lstm(*inputs).data * weights).sum())

    (functional.lstm(*leaves) * weights).sum().backward()
    for leaf in leaves:
        numeric = numerical_gradient(loss, leaf.data)
        assert np.abs(numeric - leaf.grad).max() < 1e-8


def _graph_size(out: Tensor) -> int:
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def test_lstm_graph_size_does_not_grow_with_steps():
    rng = np.random.default_rng(12)
    lstm = LSTM(3, 4, rng)
    sizes = [
        _graph_size(lstm(Tensor(rng.normal(size=(2, steps, 3)), requires_grad=True)))
        for steps in (2, 32)
    ]
    assert sizes == [5, 5]  # the LSTM node, its input and three parameters


def test_lstm_input_without_grad_gets_none(per_step_lstm):
    """As SHAP and inference call it: the parameters still get the tape's
    gradients, the input none."""

    def run():
        lstm = LSTM(3, 4, np.random.default_rng(13)).astype(np.float32)
        x = Tensor(np.random.default_rng(14).normal(size=(5, 7, 3)).astype(np.float32))
        lstm(x).sum().backward()
        return x.grad, [param.grad for param in lstm.parameters()]

    x_grad, fused = run()
    per_step_lstm()
    _, tape = run()
    assert x_grad is None
    for got, ref in zip(fused, tape):
        assert _bit_identical(got, ref)


def test_parent_format_checkpoint_predicts_like_per_step_tape(tmp_path, per_step_lstm):
    state = CNNLSTMClassifier(LSTM_TEST_CONFIG, np.random.default_rng(21)).state_dict()
    assert list(state) == CLASSIFIER_STATE_KEYS
    path = tmp_path / "classifier.npz"
    np.savez_compressed(path, **state)
    model = CNNLSTMClassifier(LSTM_TEST_CONFIG, np.random.default_rng(22))
    load_checkpoint(model, path)
    x = np.random.default_rng(23).random((3, 16, 8, 8), dtype=np.float32)
    fused = model.predict_logits(x)
    per_step_lstm()
    assert _bit_identical(fused, model.predict_logits(x))


# ----------------------------------------------------------------------
# The frame CNN's layer order and gradient ownership
# ----------------------------------------------------------------------
#: The attack cell's classifier: FAST's 32x32 frames and dropout.
CELL_CONFIG = FAST.model_config()
CELL_TRAINING = FAST.training_config()


def _train_steps(reorder=None, steps=3):
    """Per-step loss, logits and parameter gradients of a few float32
    training steps at the attack cell's shape, dropout on, and the final
    state dict."""
    model = CNNLSTMClassifier(CELL_CONFIG, np.random.default_rng(31))
    if reorder is not None:
        reorder(model.encoder)
    model.train()
    params = model.parameters()
    optimizer = Adam(
        params, lr=CELL_TRAINING.learning_rate, weight_decay=CELL_TRAINING.weight_decay
    )
    rng = np.random.default_rng(32)
    batch, frames = CELL_TRAINING.batch_size, FAST.num_frames
    record = []
    for _ in range(steps):
        x = rng.random((batch, frames, *CELL_CONFIG.frame_shape), dtype=np.float32)
        labels = rng.integers(0, CELL_CONFIG.num_classes, size=batch)
        logits = model(Tensor(x))
        loss = cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        record += [loss.data, logits.data, *(param.grad.copy() for param in params)]
        clip_grad_norm(params, CELL_TRAINING.clip_norm)
        optimizer.step()
    return record, model.state_dict()


def test_pool_before_relu_trains_like_relu_before_pool():
    pool_first, pool_first_state = _train_steps()
    relu_first, relu_first_state = _train_steps(relu_before_pool)
    assert len(pool_first) == 3 * (2 + len(CLASSIFIER_STATE_KEYS))
    for got, ref in zip(pool_first, relu_first):
        # Gradients may differ in the sign of a zero, nothing else.
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert list(pool_first_state) == CLASSIFIER_STATE_KEYS
    for key in CLASSIFIER_STATE_KEYS:
        assert _bit_identical(pool_first_state[key], relu_first_state[key])


@pytest.fixture
def read_only_interior_grads(monkeypatch):
    """Store every interior node's gradient read-only, so a backward
    that writes into the gradient it received raises."""
    accumulate = Tensor._accumulate

    def read_only(self, grad):
        accumulate(self, grad)
        if self._parents and isinstance(self.grad, np.ndarray):  # not a scalar
            view = self.grad.view()
            view.flags.writeable = False
            self.grad = view

    def use():
        monkeypatch.setattr(Tensor, "_accumulate", read_only)

    return use


def test_parameter_gradients_own_their_memory(read_only_interior_grads):
    """Leaves own a copy of their gradient, which ``clip_grad_norm``
    scales in place; interior nodes keep theirs uncopied, and no
    backward writes into the gradient it receives."""
    model = CNNLSTMClassifier(CELL_CONFIG, np.random.default_rng(41))
    rng = np.random.default_rng(42)
    x = rng.random((4, FAST.num_frames, *CELL_CONFIG.frame_shape), dtype=np.float32)
    cross_entropy(model(Tensor(x)), np.arange(4)).backward()
    for param in model.parameters():
        assert param.grad.flags.owndata and param.grad.flags.writeable

    copied, copied_state = _train_steps(steps=2)
    read_only_interior_grads()
    shared, shared_state = _train_steps(steps=2)
    for got, ref in zip(shared, copied):
        assert _bit_identical(got, ref)
    for key in CLASSIFIER_STATE_KEYS:
        assert _bit_identical(shared_state[key], copied_state[key])

    # An interior node that receives two gradients adds them out of place.
    leaf = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    shared_node = leaf.reshape(6)
    (shared_node * shared_node).sum().backward()
    assert np.array_equal(leaf.grad, 2.0 * leaf.data)


def test_pool_first_frame_encoder_matches_finite_differences():
    config = ModelConfig(frame_shape=(8, 8), conv_channels=(2, 3), feature_dim=5)
    rng = np.random.default_rng(51)
    encoder = FrameEncoder(config, rng)
    for param in encoder.parameters():
        param.data = rng.normal(scale=0.5, size=param.shape)
    frames = Tensor(rng.normal(size=(3, 8, 8)), requires_grad=True)
    weights = rng.normal(size=(3, config.feature_dim))
    leaves = [frames, *encoder.parameters()]
    assert all(leaf.dtype == np.float64 for leaf in leaves)

    def loss():
        return float((encoder(Tensor(frames.data)).data * weights).sum())

    (encoder(frames) * weights).sum().backward()
    for leaf in leaves:
        numeric = numerical_gradient(loss, leaf.data)
        assert np.abs(numeric - leaf.grad).max() < 1e-7
