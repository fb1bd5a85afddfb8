"""The references ``tests/nn`` holds the engine to: each a few allocating lines.

None of this is reachable from ``src/``; the engine has one body per kernel
and these say what that body must compute, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.workspace import _POOL


def _im2col_indices(x_shape, kernel_h, kernel_w, stride, padding, dilation):
    """``(k, i, j)``: channel, row and column in the padded input of every
    ``(channel * kernel_h * kernel_w, out_h * out_w)`` patch entry."""
    _, channels, h, w = x_shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = F.conv_output_size(w, kernel_w, stride, padding, dilation)
    i0 = np.repeat(np.arange(kernel_h) * dilation, kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w) * dilation, kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j


def im2col_oracle(x, kh, kw, stride=1, padding=0, dilation=1):
    """``np.pad`` and one fancy-index gather into a fresh C-ordered array.

    The gather alone comes back in whatever layout NumPy's fancy indexing
    picked; a ``matmul`` over that takes another BLAS path than over the
    engine's C-ordered ``cols`` and lands an ulp away for one-filter layers.
    """
    k, i, j = _im2col_indices(x.shape, kh, kw, stride, padding, dilation)
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return np.ascontiguousarray(padded[:, k, i, j])


def col2im_oracle(cols, x_shape, kh, kw, stride=1, padding=0, dilation=1):
    """An ordered scatter of the columns, as they lie in memory, into the padded image.

    ``np.add.at`` adds one element at a time in ``cols``'s dtype, so every
    cell receives its taps in ascending ``(ki, kj)`` order in either dtype
    (``np.bincount``, the historical engine, visits the same order but only
    accumulates in float64).
    """
    n, c, h, w = x_shape
    k, i, j = _im2col_indices(x_shape, kh, kw, stride, padding, dilation)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    np.add.at(padded, (np.arange(n)[:, None, None], k, i, j), cols)
    return padded[:, :, padding : padding + h, padding : padding + w]


def grad_weight_oracle(grad_flat, cols):
    return np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)


def conv2d_step_oracle(layer, x, grad):
    """``(out, grad_input, grad_weight, grad_bias)`` of one ``Conv2d`` step."""
    geometry = (*layer.kernel_size, layer.stride, layer.padding, layer.dilation)
    x, grad = x.astype(layer.compute_dtype), grad.astype(layer.compute_dtype)
    weight = layer.weight.data.reshape(layer.out_channels, -1)
    cols = im2col_oracle(x, *geometry)
    out = np.matmul(weight, cols).reshape(grad.shape) + layer.bias.data.reshape(1, -1, 1, 1)
    grad_flat = grad.reshape(len(x), layer.out_channels, -1)
    grad_input = col2im_oracle(np.matmul(weight.T, grad_flat), x.shape, *geometry)
    grad_weight = grad_weight_oracle(grad_flat, cols).reshape(layer.weight.data.shape)
    return out, grad_input, grad_weight, grad_flat.sum(axis=(0, 2))


def conv_transpose2d_step_oracle(layer, x, grad):
    """``(out, grad_input, grad_weight, grad_bias)`` of one ``ConvTranspose2d`` step."""
    geometry = (*layer.kernel_size, layer.stride, layer.padding)
    x, grad = x.astype(layer.compute_dtype), grad.astype(layer.compute_dtype)
    weight = layer.weight.data.reshape(layer.in_channels, -1)
    x_flat = x.reshape(len(x), layer.in_channels, -1)
    cols = np.matmul(weight.T, x_flat)
    out = col2im_oracle(cols, grad.shape, *geometry) + layer.bias.data.reshape(1, -1, 1, 1)
    grad_cols = im2col_oracle(grad, *geometry)
    grad_input = np.matmul(weight, grad_cols).reshape(x.shape)
    grad_weight = grad_weight_oracle(x_flat, grad_cols).reshape(layer.weight.data.shape)
    return out, grad_input, grad_weight, grad.sum(axis=(0, 2, 3))


def on_cold_pool(compute):
    """``compute()`` on an emptied scratch pool, which is then put back.

    What a freshly built layer computes there is the oracle for "buffer
    reuse never changes a value": every buffer it touches is a first
    allocation, and keeping the layer alive keeps them out of the pool.
    """
    parked, _POOL.free = _POOL.free, {}
    try:
        return compute()
    finally:
        _POOL.free = parked


class SGDOracle:
    """SGD in expression form, one parameter at a time: the loop a packed run replaced."""

    def __init__(self, parameters, lr, momentum=0.0, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        self.velocity = [np.zeros_like(param.data) for param in self.parameters]

    def step(self):
        for index, param in enumerate(self.parameters):
            grad = param.grad + self.weight_decay * param.data if self.weight_decay else param.grad
            if self.momentum:
                self.velocity[index] = self.momentum * self.velocity[index] + grad
                grad = self.velocity[index]
            param.data -= self.lr * grad


class AdamOracle:
    """Adam in expression form, one parameter at a time: the loop a packed run replaced."""

    def __init__(self, parameters, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.parameters = list(parameters)
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.first = [np.zeros_like(param.data) for param in self.parameters]
        self.second = [np.zeros_like(param.data) for param in self.parameters]
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for index, param in enumerate(self.parameters):
            grad = param.grad + self.weight_decay * param.data if self.weight_decay else param.grad
            m = self.first[index] = self.beta1 * self.first[index] + (1.0 - self.beta1) * grad
            v = self.second[index] = self.beta2 * self.second[index] + (1.0 - self.beta2) * grad**2
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
