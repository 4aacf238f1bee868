"""Reference formulations of the model's kernels, for tests only.

These are the einsum convolution (with its nine-strided-add col2im), the
argmax max pool and the ``np.where`` ReLU that ``repro.nn`` shipped
before its BLAS/strided-view kernels, the per-step LSTM tape
(``LSTMCell.forward`` and ``initial_state``, unrolled by ``LSTM.forward``)
that ``repro.nn.functional.lstm`` replaced, and (:func:`relu_before_pool`)
the frame CNN's ReLU-then-pool layer order, which now pools first.  The
kernels are kept verbatim so the oracle tests in ``test_kernel_oracles.py``
can pin the fast kernels to them; nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Conv2d, Flatten, LSTMCell, MaxPool2d, ReLU, Tensor


def _im2col(
    data: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
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
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
    out_size: tuple[int, int],
) -> np.ndarray:
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h, out_w = out_size
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += (
                reshaped[:, :, i, j]
            )
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_einsum(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    n = x.shape[0]
    f, c, kh, kw = weight.shape
    cols, (out_h, out_w) = _im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(f, -1)
    out_data = np.einsum("fk,nkp->nfp", w_mat, cols).reshape(n, f, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, f, out_h * out_w)
        if weight.requires_grad:
            grad_w = np.einsum("nfp,nkp->fk", grad_mat, cols).reshape(weight.shape)
            weight._accumulate(grad_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.einsum("fk,nfp->nkp", w_mat, grad_mat)
            x._accumulate(
                _col2im(grad_cols, x.shape, (kh, kw), stride, padding, (out_h, out_w))
            )

    return Tensor(out_data, _parents=parents, _backward=backward)


def max_pool2d_argmax(x: Tensor, kernel: int = 2) -> Tensor:
    n, c, h, w = x.shape
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, kernel * kernel)
    arg = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(grad_windows, arg[..., None], grad[..., None], axis=-1)
        grad_x = (
            grad_windows.reshape(n, c, out_h, out_w, kernel, kernel)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x._accumulate(grad_x)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def relu_where(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out_data = np.where(mask, x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def lstm_cell_step(
    cell: LSTMCell, x: Tensor, state: "tuple[Tensor, Tensor]"
) -> "tuple[Tensor, Tensor]":
    h_prev, c_prev = state
    gates = x @ cell.weight_ih.transpose() + h_prev @ cell.weight_hh.transpose() + cell.bias
    hs = cell.hidden_size
    i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * c_new.tanh()
    return h_new, c_new


def lstm_initial_state(cell: LSTMCell, batch_size: int) -> "tuple[Tensor, Tensor]":
    dtype = cell.weight_ih.data.dtype
    zeros = np.zeros((batch_size, cell.hidden_size), dtype=dtype)
    return Tensor(zeros.copy()), Tensor(zeros.copy())


def lstm_per_step(cell: LSTMCell, x: Tensor) -> Tensor:
    """The last hidden state, one tape node per op and step."""
    h, c = lstm_initial_state(cell, x.shape[0])
    for t in range(x.shape[1]):
        h, c = lstm_cell_step(cell, x[:, t, :], (h, c))
    return h


def relu_before_pool(encoder) -> None:
    """Reorder a ``FrameEncoder``'s body to Conv -> ReLU -> MaxPool, twice.

    That is the order the body had before pooling moved ahead of the
    ReLU.  Only parameter-free layers move, so the convs keep indices 0
    and 3 and the encoder keeps its state-dict keys.
    """
    conv1, pool1, relu1, conv2, pool2, relu2, flatten = encoder.body.layers
    kinds = [Conv2d, MaxPool2d, ReLU, Conv2d, MaxPool2d, ReLU, Flatten]
    assert [type(layer) for layer in encoder.body.layers] == kinds
    encoder.body.layers = [conv1, relu1, pool1, conv2, relu2, pool2, flatten]
