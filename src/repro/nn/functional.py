"""Low-level tensor operations shared by the convolutional layers.

The implementation follows the classic im2col / col2im formulation: a
convolution is lowered to one large matrix multiplication per batch, which is
the only way to get acceptable throughput out of NumPy.  All functions work on
``NCHW`` tensors and support stride, symmetric zero padding, and dilation.

The im2col/col2im gather indices depend only on the layer geometry and the
input spatial shape — both fixed across a training run — so they are built
once and memoized (:func:`_im2col_indices`, :func:`_col2im_flat_index`)
instead of being recomputed on every forward/backward call.  Cached arrays
are marked read-only; they are only ever used as gather indices.

One gather, one scatter
-----------------------
:func:`im2col` is one flat ``np.take`` into a ``cols`` buffer
(``mode="clip"`` selects NumPy's unbuffered write-through path; the
memoized indices are always in range, so clipping never engages), and
padding is an interior copy into a border-zeroed buffer.  Layers pass
``out=`` / ``padded_out=`` buffers from their workspace (see
:mod:`repro.nn.workspace`) so a step stops paying an allocation and page
faults per call; a caller that passes none gets them allocated and runs the
same lines.  :func:`col2im` scatters each kernel tap straight into the
unpadded result.  ``tests/nn`` holds both to a few-line oracle (``np.pad`` +
fancy-index gather, flattened ordered scatter) bit for bit.

Dtype rules
-----------
Everything here is dtype-preserving: float32 inputs produce float32
outputs (the compute-dtype fast path), float64 stays float64 bit for bit.
:func:`col2im` accumulates in the columns' own dtype, adding each cell's
contributions in ascending tap order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int = 1) -> int:
    """Spatial output size of a convolution along one axis."""
    effective = dilation * (kernel - 1) + 1
    out = (size + 2 * padding - effective) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding}, dilation={dilation})"
        )
    return out


def conv_transpose_output_size(
    size: int, kernel: int, stride: int, padding: int, output_padding: int = 0
) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * stride - 2 * padding + kernel + output_padding
    if out <= 0:
        raise ValueError(
            f"transposed convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


@lru_cache(maxsize=256)
def _im2col_indices(
    channels: int,
    kernel_h: int,
    kernel_w: int,
    out_h: int,
    out_w: int,
    stride: int,
    dilation: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays mapping (channel*kh*kw, out_h*out_w) patch entries to the padded input.

    Memoized on the full geometry key (the output spatial shape stands in
    for the input shape, which determines it): a training run hits the same
    few keys on every forward/backward call, so the index construction runs
    once per distinct layer/input-shape pair.  The cached arrays are
    read-only.
    """
    i0 = np.repeat(np.arange(kernel_h) * dilation, kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w) * dilation, kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    for index in (k, i, j):
        index.setflags(write=False)
    return k, i, j


@lru_cache(maxsize=256)
def _col2im_flat_index(
    channels: int,
    kernel_h: int,
    kernel_w: int,
    out_h: int,
    out_w: int,
    stride: int,
    dilation: int,
    h_padded: int,
    w_padded: int,
) -> np.ndarray:
    """Flattened per-image indices into ``(c, h_padded, w_padded)``.

    :func:`im2col`'s flat gather source — and, the two operations being
    adjoint, the scatter target of a flattened col2im.  Memoized; read-only.
    """
    k, i, j = _im2col_indices(channels, kernel_h, kernel_w, out_h, out_w, stride, dilation)
    base_index = (k * h_padded + i) * w_padded + j  # (c*kh*kw, out_h*out_w)
    base_index.setflags(write=False)
    return base_index


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    out: Optional[np.ndarray] = None,
    padded_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold sliding patches of ``x`` into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    out:
        Optional persistent C-contiguous destination of shape
        ``(N, C * kernel_h * kernel_w, out_h * out_w)`` and ``x``'s dtype;
        the gather writes straight into it and returns it.  Allocated when
        omitted.
    padded_out:
        Optional persistent C-contiguous padded-input buffer of shape
        ``(N, C, H + 2 * padding, W + 2 * padding)`` whose border is
        already zero (see :meth:`repro.nn.workspace.Workspace.zeros`); only
        the interior is overwritten with ``x``.  Allocated (zeroed) when
        omitted and ``padding > 0``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = conv_output_size(w, kernel_w, stride, padding, dilation)
    if padding > 0:
        if padded_out is None:
            padded_out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        # The border is zero and only the interior is ever written: np.pad
        # without the allocation.
        padded_out[:, :, padding : padding + h, padding : padding + w] = x
        x = padded_out
    elif not x.flags.c_contiguous:
        x = np.ascontiguousarray(x)  # the flat gather below indexes raw memory order
    if out is None:
        out = np.empty((n, c * kernel_h * kernel_w, out_h * out_w), dtype=x.dtype)
    flat_index = _col2im_flat_index(
        c, kernel_h, kernel_w, out_h, out_w, stride, dilation, h + 2 * padding, w + 2 * padding
    )
    np.take(x.reshape(n, -1), flat_index.reshape(-1), axis=1, out=out.reshape(n, -1), mode="clip")
    return out


def _tap_range(offset: int, stride: int, size: int, out_size: int) -> Tuple[int, int]:
    """Output-pixel range ``[lo, hi)`` of one kernel tap that lands inside
    an unpadded axis of length ``size``.

    A tap at kernel position ``k`` writes destination index
    ``offset + stride * o`` (``offset = k * dilation - padding``) for output
    pixel ``o``; the range keeps exactly the ``o`` with destination in
    ``[0, size)`` — the contributions that do not fall in the padding.
    """
    if offset >= 0:
        lo = 0
    else:
        lo = (-offset + stride - 1) // stride
    hi = min(out_size, (size - 1 - offset) // stride + 1)
    return lo, hi


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlapping patches.

    This is the adjoint of :func:`im2col`; it is used both for convolution
    backward passes and for the forward pass of transposed convolutions.
    The result has ``cols``'s dtype and is always freshly allocated (it is
    a layer's returned value, never workspace scratch).

    Each kernel tap is one vectorized ``+=`` straight into the unpadded
    result, over the output range clipped to the rows and columns that do
    not fall in the padding — no padded temporary, no unpad copy (for the
    paper's 9x9/padding-4 layers that temporary would be ~19% larger than
    the result).  For every cell the contributions arrive in ascending
    ``(ki, kj)`` order, the order a flattened scatter over the columns
    visits them, so the result is bit-identical to that scatter in either
    dtype.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = conv_output_size(w, kernel_w, stride, padding, dilation)
    expected = (n, c * kernel_h * kernel_w, out_h * out_w)
    if cols.shape != expected:
        raise ValueError(f"col2im expected columns of shape {expected}, got {cols.shape}")
    out = np.zeros((n, c, h, w), dtype=cols.dtype)
    taps = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for ki in range(kernel_h):
        row_offset = ki * dilation - padding
        row_lo, row_hi = _tap_range(row_offset, stride, h, out_h)
        if row_lo >= row_hi:
            continue
        row_start = row_offset + stride * row_lo
        row_stop = row_offset + stride * (row_hi - 1) + 1
        for kj in range(kernel_w):
            col_offset = kj * dilation - padding
            col_lo, col_hi = _tap_range(col_offset, stride, w, out_w)
            if col_lo >= col_hi:
                continue
            col_start = col_offset + stride * col_lo
            col_stop = col_offset + stride * (col_hi - 1) + 1
            out[
                :,
                :,
                row_start:row_stop:stride,
                col_start:col_stop:stride,
            ] += taps[:, :, ki, kj, row_lo:row_hi, col_lo:col_hi]
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (dtype-preserving for floats)."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(sigmoid(x))`` (dtype-preserving for floats)."""
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (dtype-preserving)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)
