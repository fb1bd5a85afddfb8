"""Low-level tensor operations shared by the convolutional layers.

The implementation follows the classic im2col / col2im formulation: a
convolution is lowered to matrix multiplications over columns, which is the
only way to get acceptable throughput out of NumPy.  All functions work on
``NCHW`` tensors and support stride, symmetric zero padding, and dilation.

One copy, one fold per tap
--------------------------
:func:`conv_windows` is a strided window view of a padded input, with no
index table, so nothing is kept per geometry; a copy of one image's
windows is that image's columns.  The conv layers pad the batch once into
a border-zeroed workspace buffer (see :mod:`repro.nn.workspace`) and copy
one image's windows at a time into one image-sized ``cols`` buffer, so
their scratch does not grow with the batch; :func:`im2col` is the
allocating whole-batch copy max pooling uses.  A convolution's input
gradient (and a transposed convolution's forward pass) never forms
columns: :func:`conv_input_grad` adds one kernel tap's products at a time
into image-sized scratch.  With
one filter they are formed channels-first, as the outer product of the
tap's weights with the output gradient spread once onto the cells the tap
reaches (zero elsewhere): every pass runs over all ``N * H * W`` pixels.
With more, a GEMM with the tap's filters forms them channels-last, added
over the tap's clipped range.  :func:`_clipped_taps` is where both read
the geometry.  :func:`col2im`, which scatters given columns tap by tap
over the same ranges, is left to max pooling.  ``tests/nn`` holds all
three to a few-line oracle (``np.pad`` + fancy-index gather, GEMM +
flattened ordered scatter) bit for bit.

Dtype rules
-----------
Everything here is dtype-preserving: float32 inputs produce float32
outputs (the compute-dtype fast path), float64 stays float64 bit for bit.
:func:`col2im` and :func:`conv_input_grad` accumulate in the operands'
own dtype, adding each cell's contributions in ascending tap order.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def _check_buffer(name: str, buffer: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype) -> None:
    """Refuse an array that NumPy would silently cast or broadcast to fit."""
    if buffer.shape != shape or buffer.dtype != dtype:
        raise ValueError(
            f"{name} must have shape {shape} and dtype {dtype}, "
            f"got {buffer.shape} and {buffer.dtype}"
        )


def conv_windows(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, dilation: int = 1
) -> np.ndarray:
    """The ``(N, C, kernel_h, kernel_w, out_h, out_w)`` window view of an
    already padded ``(N, C, H, W)`` input.

    No copy: element ``[i, c, ki, kj, oh, ow]`` is the input cell tap
    ``(ki, kj)`` of output pixel ``(oh, ow)`` reads, so ``windows[i]``,
    copied into a C-contiguous ``(C * kernel_h * kernel_w, out_h * out_w)``
    buffer, is image ``i``'s columns.
    """
    window = (dilation * (kernel_h - 1) + 1, dilation * (kernel_w - 1) + 1)
    # (n, c, out_h, out_w, kernel_h, kernel_w): every window position at the
    # stride, every tap of it at the dilation.
    patches = sliding_window_view(padded, window, axis=(2, 3))[
        :, :, ::stride, ::stride, ::dilation, ::dilation
    ]
    return patches.transpose(0, 1, 4, 5, 2, 3)


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Unfold sliding patches of ``x`` into fresh columns.

    One copy of the :func:`conv_windows` view of the zero-padded input, in
    C order, whatever ``x``'s own strides are.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    numpy.ndarray
        C-contiguous array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``
        and ``x``'s dtype.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = conv_output_size(w, kernel_w, stride, padding, dilation)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = conv_windows(x, kernel_h, kernel_w, stride, dilation)
    return windows.copy().reshape(n, c * kernel_h * kernel_w, out_h * out_w)


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


def _axis_taps(
    kernel: int, stride: int, padding: int, dilation: int, size: int, out_size: int
) -> Iterator[Tuple[int, slice, slice]]:
    """``(k, destination slice, output-pixel slice)`` of each kernel position
    along one axis that reaches the unpadded image, in ascending ``k``."""
    for k in range(kernel):
        offset = k * dilation - padding
        lo, hi = _tap_range(offset, stride, size, out_size)
        if lo < hi:
            start = offset + stride * lo
            stop = offset + stride * (hi - 1) + 1
            yield k, slice(start, stop, stride), slice(lo, hi)


def _clipped_taps(
    h: int,
    w: int,
    out_h: int,
    out_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    dilation: int,
) -> List[Tuple[int, int, slice, slice, slice, slice]]:
    """The kernel taps of one geometry, clipped to the unpadded ``h x w`` image.

    Each tap is ``(ki, kj, rows, columns, out_rows, out_columns)``, in
    ascending ``(ki, kj)`` order: output pixels ``[out_rows, out_columns]``
    of tap ``(ki, kj)`` land on image cells ``[rows, columns]``, and every
    other output pixel of that tap falls in the padding.  Taps that land
    nowhere are left out.  This is the one place the scatter geometry is
    written down; :func:`col2im` and :func:`conv_input_grad` both
    walk it, so they clip alike.
    """
    column_taps = list(_axis_taps(kernel_w, stride, padding, dilation, w, out_w))
    return [
        (ki, kj, rows, columns, out_rows, out_columns)
        for ki, rows, out_rows in _axis_taps(kernel_h, stride, padding, dilation, h, out_h)
        for kj, columns, out_columns in column_taps
    ]


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

    This is the adjoint of :func:`im2col`; max pooling's backward pass
    scatters its one-hot columns with it.  The result has ``cols``'s dtype
    and is always freshly allocated (it is a layer's returned value, never
    workspace scratch).

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
    patches = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for ki, kj, rows, columns, out_rows, out_columns in _clipped_taps(
        h, w, out_h, out_w, kernel_h, kernel_w, stride, padding, dilation
    ):
        out[:, :, rows, columns] += patches[:, :, ki, kj, out_rows, out_columns]
    return out


def conv_input_grad(
    weight: np.ndarray,
    grad_output: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    product_out: Optional[np.ndarray] = None,
    accumulator_out: Optional[np.ndarray] = None,
    spread_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Input gradient of a convolution with ``K`` filters, without its columns.

    Equal, bit for bit and in either dtype, to ``col2im(W.T @ g, x_shape, ...)``
    with ``W = weight.reshape(K, -1)`` and ``g = grad_output.reshape(N, K, -1)``,
    for finite operands.  For each clipped tap (:func:`_clipped_taps`), in
    ascending ``(ki, kj)`` order as :func:`col2im` adds them, the tap's
    products are formed in scratch and added into an accumulator that starts
    at ``+0.0``; one transpose-copy turns it into the fresh ``NCHW`` result.
    The products are the GEMM's own numbers:

    * ``K = 1``: one rounded multiply each, formed channels-first.  The
      output gradient is scattered once per tap into plane ``ki * kw + kj``
      of a zero-bordered ``(kh * kw, N, H, W)`` ``spread`` (each tap's
      output pixels on the image cells they land on), and
      ``np.einsum("c,p->cp", w[0, :, ki, kj], spread[tap])`` forms the tap's
      ``(C, N * H * W)`` outer product, added whole into a ``(C, N * H * W)``
      accumulator: inner runs of ``N * H * W`` elements, not ``C``.  Every
      cell gets a product from every tap, ``±0`` where the tap misses it,
      and a product may be ``-0.0`` where the GEMM's ``0 + a * b`` gave
      ``+0.0``.  Neither changes a sum that starts at ``+0.0``: it is never
      ``-0.0`` (``+0 + -0 = +0``), and ``x + ±0 = x``.  Hence "for finite
      operands": a non-finite weight also reaches the missed cells, as NaN.
      No BLAS call is made, so the bits do not depend on its kernels.
    * ``K > 1``: one ``np.matmul(g.T, w[:, :, ki, kj])`` per tap, formed
      channels-last in ``(N, out_h, out_w, C)`` scratch and added into an
      ``(N, H, W, C)`` accumulator over the tap's clipped range.  Under
      OpenBLAS's SkylakeX kernels each element is the same length-``K`` dot
      product as in ``W.T @ g``, the transposed operand on the same side.
      Under its Haswell and Zen kernels a tap's GEMM can sum otherwise than
      the full one, so there the fold is not bit-identical to it (see
      ``docs/performance.md``).  NumPy hands a product with a unit
      dimension to gemv, which sums in another order; so for a single
      channel or a single output pixel the whole kernel's product is one
      ``matmul``, its columns in ``W.T @ g``'s ``(c, ki, kj)`` order.

    A transposed convolution's forward pass is this computation, with the
    weight's in-channels as the filters.  ``weight`` is ``(K, C, kh, kw)``
    in the compute dtype and ``grad_output`` ``(N, K, out_h, out_w)``.
    ``product_out`` / ``accumulator_out`` are optional scratch of the shapes
    of ``K``'s branch above (a layer passes workspace buffers), both
    overwritten; the returned array never aliases them.  ``spread_out``
    (``K = 1`` only) is the optional ``spread``, zero wherever this geometry
    does not write (see :meth:`repro.nn.workspace.Workspace.zeros`): every
    call rewrites the same cells, so the rest stays zero.  Each is
    allocated when omitted.

    Raises
    ------
    ValueError
        If an operand has another shape or dtype: NumPy would broadcast or
        cast it, and a product rounded in another dtype changes the bits.
        If ``spread_out`` is not C-contiguous (the fold reads it as rows).
    """
    n, c, h, w = x_shape
    filters, _, kernel_h, kernel_w = weight.shape
    out_h = conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = conv_output_size(w, kernel_w, stride, padding, dilation)
    dtype = weight.dtype
    if weight.shape[1] != c:
        raise ValueError(f"conv_input_grad expected (K, {c}, kh, kw) filters, got {weight.shape}")
    _check_buffer("conv_input_grad grad_output", grad_output, (n, filters, out_h, out_w), dtype)
    if filters == 1:
        product_shape = accumulator_shape = (c, n * h * w)
        spread_shape = (kernel_h * kernel_w, n, h, w)
        if spread_out is None:
            spread_out = np.zeros(spread_shape, dtype=dtype)
        _check_buffer("conv_input_grad spread_out", spread_out, spread_shape, dtype)
        if not spread_out.flags.c_contiguous:
            raise ValueError("conv_input_grad spread_out must be C-contiguous")
    else:
        product_shape, accumulator_shape = (n, out_h, out_w, c), (n, h, w, c)
        if spread_out is not None:
            raise ValueError("conv_input_grad spread_out is scratch of the one-filter fold only")
    if product_out is None:
        product_out = np.empty(product_shape, dtype=dtype)
    if accumulator_out is None:
        accumulator_out = np.empty(accumulator_shape, dtype=dtype)
    _check_buffer("conv_input_grad product_out", product_out, product_shape, dtype)
    _check_buffer("conv_input_grad accumulator_out", accumulator_out, accumulator_shape, dtype)
    accumulator_out.fill(0)
    taps = _clipped_taps(h, w, out_h, out_w, kernel_h, kernel_w, stride, padding, dilation)
    if filters == 1:
        grad = grad_output.reshape(n, out_h, out_w)
        spread_rows = spread_out.reshape(kernel_h * kernel_w, n * h * w)
        for ki, kj, rows, columns, out_rows, out_columns in taps:
            tap = ki * kernel_w + kj
            spread_out[tap, :, rows, columns] = grad[:, out_rows, out_columns]
            np.einsum("c,p->cp", weight[0, :, ki, kj], spread_rows[tap], out=product_out)
            accumulator_out += product_out
        return accumulator_out.reshape(c, n, h, w).transpose(1, 0, 2, 3).copy()
    # (N, L, K): a transposed view, as W.T is in the GEMM.
    grad = grad_output.reshape(n, filters, out_h * out_w).transpose(0, 2, 1)
    tap_weights = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))  # (kernel_h, kernel_w, K, C)
    kernel_products = None
    if c == 1 or out_h * out_w == 1:
        kernel_products = np.matmul(grad, weight.reshape(filters, -1)).reshape(
            n, out_h, out_w, c, kernel_h, kernel_w
        )
    for ki, kj, rows, columns, out_rows, out_columns in taps:
        if kernel_products is not None:
            product = kernel_products[:, out_rows, out_columns, :, ki, kj]
        else:
            np.matmul(grad, tap_weights[ki, kj], out=product_out.reshape(n, out_h * out_w, c))
            product = product_out[:, out_rows, out_columns]
        accumulator_out[:, rows, columns] += product
    return accumulator_out.transpose(0, 3, 1, 2).copy()


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
