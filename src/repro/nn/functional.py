"""Structured differentiable ops: convolution, pooling, dropout, losses.

These complement the elementwise/linear-algebra primitives on
:class:`~repro.nn.tensor.Tensor` with the image ops the frame CNN needs.
Convolution is an ``as_strided`` im2col whose forward and weight-gradient
products run through ``np.matmul`` (BLAS); its input gradient is one GEMM
into tap-major columns that span the padded width, so ``_col2im`` adds
each kernel tap as a single flat slice.  Max pooling takes
``np.maximum`` over the ``k x k`` strided views and builds its
first-maximum routing mask only in backward.  ``tests/nn/oracles.py``
keeps the einsum/argmax formulations these replaced as test references.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _im2col(
    data: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Expand ``(N, C, H, W)`` into ``(N, C*kh*kw, out_h*out_w)`` patches."""
    n, c, h, w = data.shape
    kh, kw = kernel
    if padding:
        data = np.pad(data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h += 2 * padding
        w += 2 * padding
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    cols = windows.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def _col2im(
    taps: np.ndarray, input_shape: tuple[int, int, int, int], stride: int, padding: int
) -> np.ndarray:
    """Sum per-tap column gradients back into the ``(N, C, H, W)`` input.

    ``taps`` is ``(kh, kw, C, N, out_h * Wp)`` with ``Wp`` the padded
    width: each output row spans a whole padded row, its entries past
    ``out_w`` zero.  Tap ``(i, j)`` of output row ``r``, column ``q`` then
    lands on flat padded index ``i * Wp + j + stride * (r * Wp + q)``, so
    every tap is one strided slice of the flattened image and each of the
    ``kh * kw`` adds runs over whole rows rather than ``out_w``-long pieces.
    """
    kh, kw, c, n, length = taps.shape
    _, _, h, w = input_shape
    padded_h, padded_w = h + 2 * padding, w + 2 * padding
    span = stride * (length - 1) + 1
    size = max(padded_h * padded_w, (kh - 1) * padded_w + kw - 1 + span)
    flat = np.zeros((n, c, size), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            start = i * padded_w + j
            flat[:, :, start : start + span : stride] += taps[i, j].transpose(1, 0, 2)
    padded = flat[:, :, : padded_h * padded_w].reshape(n, c, padded_h, padded_w)
    return padded[:, :, padding : padding + h, padding : padding + w]


def conv2d(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """2D cross-correlation: ``(N, C, H, W) * (F, C, kh, kw) -> (N, F, H', W')``."""
    n = x.shape[0]
    f, c, kh, kw = weight.shape
    if x.shape[1] != c:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {c}")
    cols, (out_h, out_w) = _im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(f, -1)
    out_data = np.matmul(w_mat, cols).reshape(n, f, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, f, out_h * out_w)
        if weight.requires_grad:
            grad_w = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if x.requires_grad:
            # Output rows widened to the padded input width: _col2im's layout.
            wide = np.zeros((f, n, out_h, x.shape[3] + 2 * padding), dtype=grad.dtype)
            wide[..., :out_w] = grad.transpose(1, 0, 2, 3)
            w_taps = weight.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
            taps = np.matmul(w_taps, wide.reshape(f, -1)).reshape(kh, kw, c, n, -1)
            x._accumulate(_col2im(taps, x.shape, stride, padding))

    return Tensor(out_data, _parents=parents, _backward=backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling with square window; requires H, W divisible by the window.

    The gradient of each window goes to its first maximum in row-major
    order, the position ``argmax`` over the flattened window picks.
    """
    stride = stride or kernel
    if stride != kernel:
        raise NotImplementedError("only stride == kernel pooling is supported")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h}, {w}) not divisible by pool size {kernel}")
    taps = [
        (slice(None), slice(None), slice(i, None, kernel), slice(j, None, kernel))
        for i in range(kernel)
        for j in range(kernel)
    ]
    out_data = x.data[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(x.data[tap], out_data, out=out_data)

    def backward(grad: np.ndarray) -> None:
        # The taps tile the input, so every entry of grad_x is written.
        grad_x = np.empty_like(x.data)
        unrouted = np.ones(out_data.shape, dtype=bool)
        for tap in taps:
            hit = (x.data[tap] == out_data) & unrouted
            unrouted &= ~hit
            np.multiply(grad, hit, out=grad_x[tap])
        # A negative gradient times a miss is -0.0; adding 0.0 turns
        # those into the +0.0 an unrouted entry holds.
        grad_x += 0.0
        x._accumulate(grad_x)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: active only in training mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor(out_data, _parents=(logits,), _backward=backward)


def softmax(logits: np.ndarray | Tensor, axis: int = -1) -> np.ndarray:
    """Plain (non-differentiable) softmax for inference-side post-processing."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy for ``(N, C)`` logits and ``(N,)`` int labels."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("logits must be (N, C)")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``(N, in)`` inputs."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out
