"""2-D convolution and transposed convolution layers."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.functional import (
    conv_input_grad,
    conv_output_size,
    conv_transpose_output_size,
    conv_windows,
)
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace

KernelSize = Union[int, Tuple[int, int]]


def _pair(value: KernelSize) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _pad_into(workspace: Workspace, tag: str, x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` copied into the interior of the workspace's border-zeroed ``tag`` buffer."""
    n, c, h, w = x.shape
    padded = workspace.zeros(tag, (n, c, h + 2 * padding, w + 2 * padding), x.dtype)
    padded[:, :, padding : padding + h, padding : padding + w] = x
    return padded


def _image_columns(
    workspace: Workspace, tag: str, windows: np.ndarray
) -> Tuple[np.ndarray, Callable[[int], np.ndarray]]:
    """The workspace's one ``(C * kh * kw, out_h * out_w)`` column buffer, and
    ``form(i)``, which copies image ``i``'s ``windows``
    (:func:`~repro.nn.functional.conv_windows`) into it."""
    channels, kh, kw, out_h, out_w = windows.shape[1:]
    cols = workspace.get(tag, (channels * kh * kw, out_h * out_w), windows.dtype)
    image_windows = cols.reshape(windows.shape[1:])

    def form(image: int) -> np.ndarray:
        image_windows[...] = windows[image]
        return cols

    return cols, form


def _add_product(
    total: np.ndarray, partial: Optional[np.ndarray], image: int, a: np.ndarray, cols: np.ndarray
) -> None:
    """Add image ``image``'s weight-gradient product ``a @ cols.T`` into ``total``.

    Image 0's product is formed in ``total`` itself and each later one in
    ``partial``, then added: called in image order, ``total`` ends as
    ``np.matmul(A, C.transpose(0, 2, 1)).sum(axis=0)`` over the stacked
    operands, bit for bit.  That is the same 2-D BLAS call per image, and
    that sum adds whole products one after another (unless a product has a
    single element: NumPy then sums the stack pairwise).
    """
    if image == 0:
        np.matmul(a, cols.T, out=total)
    else:
        total += np.matmul(a, cols.T, out=partial)


def _input_grad_scratch(
    workspace: Workspace,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
) -> Dict[str, np.ndarray]:
    """The scratch of one :func:`~repro.nn.functional.conv_input_grad` call,
    held in ``workspace`` under the shapes of the ``K`` filters' branch.

    One filter folds channels-first, with a zero-bordered ``spread`` of the
    output gradient per kernel tap; more filters fold channels-last.  The
    spread keeps ``N``, ``H`` and ``W`` apart in its shape, the buffer's
    key: inputs of as many pixels in another shape leave other cells zero.
    """
    filters, c, kh, kw = weight.shape
    n, _, h, w = x_shape
    if filters == 1:
        pixels = n * h * w
        return dict(
            product_out=workspace.get("tap_product", (c, pixels), weight.dtype),
            accumulator_out=workspace.get("grad_input_cnhw", (c, pixels), weight.dtype),
            spread_out=workspace.zeros("tap_spread", (kh * kw, n, h, w), weight.dtype),
        )
    return dict(
        product_out=workspace.get("tap_product", (n, *out_hw, c), weight.dtype),
        accumulator_out=workspace.get("grad_input_nhwc", (n, h, w, c), weight.dtype),
    )


class Conv2d(Module):
    """2-D convolution over NCHW inputs with stride, padding, and dilation.

    The weight has shape ``(out_channels, in_channels, kernel_h, kernel_w)``.
    The forward pass copies the batch into the layer's own zero-bordered
    ``padded`` buffer, then lowers the convolution to one GEMM per image:
    each image's im2col columns are copied from that buffer's window view
    (:func:`~repro.nn.functional.conv_windows`) into one image-sized
    ``cols`` buffer, so the layer's scratch does not grow with the batch.
    :meth:`accumulate_grads` adds the weight and bias gradients of a step,
    re-forming each image's columns from ``padded`` (never from the
    caller's input, which it may have overwritten) except the last image's,
    which forward leaves in ``cols``; :meth:`backward` does that and
    returns the input gradient, folded tap by tap without ever forming its
    columns (see :func:`repro.nn.functional.conv_input_grad`).  A model's
    first conv, whose input gradient nobody reads, calls only
    :meth:`accumulate_grads`.

    The per-step temporaries — ``padded``, ``cols``, the weight-sized
    weight-gradient products and the input gradient's image-sized product
    and accumulator (channels-first, plus the per-tap ``spread``, for one
    filter) — live in the layer's :class:`~repro.nn.workspace.Workspace`,
    reused via ``out=`` on every step instead of being reallocated.  The
    layer holds those buffers only until
    :meth:`~repro.nn.Module.release_workspaces` lends them to the thread's
    pool (and resets ``_cache``, which holds a view of ``padded``).  Workspace
    buffers are internal scratch only: the layer's outputs and input
    gradients are always freshly allocated, so callers may hold them across
    steps.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: KernelSize,
        stride: int = 1,
        padding: int = 0,
        dilation: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("in_channels and out_channels must be positive")
        if stride <= 0 or dilation <= 0 or padding < 0:
            raise ValueError("stride and dilation must be positive, padding non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dilation = int(dilation)
        kh, kw = self.kernel_size
        weight_shape = (out_channels, in_channels, kh, kw)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng), name="weight")
        self.use_bias = bool(bias)
        if self.use_bias:
            fan_in = in_channels * kh * kw
            self.bias = Parameter(init.uniform_bias((out_channels,), fan_in, rng), name="bias")
        self._cache: Optional[
            Tuple[np.ndarray, Tuple[int, int, int, int], Tuple[int, int], int]
        ] = None
        self._ws = Workspace()

    def output_shape(self, height: int, width: int) -> Tuple[int, int]:
        """Spatial output shape for an input of ``height x width``."""
        kh, kw = self.kernel_size
        out_h = conv_output_size(height, kh, self.stride, self.padding, self.dilation)
        out_w = conv_output_size(width, kw, self.stride, self.padding, self.dilation)
        return out_h, out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected input of shape (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        out_h, out_w = self.output_shape(h, w)
        padded = _pad_into(self._ws, "padded", x, self.padding)
        windows = conv_windows(padded, *self.kernel_size, self.stride, self.dilation)
        _, form = _image_columns(self._ws, "cols", windows)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        out = np.empty((n, self.out_channels, out_h * out_w), dtype=x.dtype)
        for image in range(n):
            np.matmul(weight_matrix, form(image), out=out[image])
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.use_bias:
            out += self.bias.data.reshape(1, -1, 1, 1)
        # The last field: the image whose columns ``cols`` holds.
        self._cache = (windows, x.shape, (out_h, out_w), n - 1)
        return out

    def accumulate_grads(self, grad_output: np.ndarray) -> None:
        """Add the step's weight and bias gradients; form no input gradient."""
        if self._cache is None:
            raise RuntimeError("Conv2d.backward called before forward")
        windows, x_shape, (out_h, out_w), held = self._cache
        n = x_shape[0]
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        grad_flat = grad_output.reshape(n, self.out_channels, out_h * out_w)
        cols, form = _image_columns(self._ws, "cols", windows)
        shape, dtype = (self.out_channels, cols.shape[0]), cols.dtype
        # The last image's product first, from the columns forward left behind.
        total = last = self._ws.get("grad_weight_last", shape, dtype)
        np.matmul(grad_flat[n - 1], (cols if held == n - 1 else form(n - 1)).T, out=last)
        if n > 1:
            total = self._ws.get("grad_weight_sum", shape, dtype)
            partial = self._ws.get("grad_weight_stage", shape, dtype) if n > 2 else None
            for image in range(n - 1):
                _add_product(total, partial, image, grad_flat[image], form(image))
            total += last
            self._cache = (windows, x_shape, (out_h, out_w), n - 2)
        self.weight.grad += total.reshape(self.weight.data.shape)
        if self.use_bias:
            self.bias.grad += grad_flat.sum(axis=(0, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_grads(grad_output)
        _, (n, c, h, w), (out_h, out_w), _ = self._cache
        grad = np.asarray(grad_output, dtype=self.compute_dtype)
        return conv_input_grad(
            self.weight.data,
            grad.reshape(n, self.out_channels, out_h, out_w),
            (n, c, h, w),
            self.stride,
            self.padding,
            self.dilation,
            **_input_grad_scratch(self._ws, self.weight.data, (n, c, h, w), (out_h, out_w)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, dilation={self.dilation})"
        )


class ConvTranspose2d(Module):
    """2-D transposed (fractionally-strided) convolution over NCHW inputs.

    The weight has shape ``(in_channels, out_channels, kernel_h, kernel_w)``
    following the PyTorch convention.  The forward pass is the adjoint of
    :class:`Conv2d` — the input gradient of a convolution whose filters are
    this weight's in-channels, folded tap by tap by
    :func:`repro.nn.functional.conv_input_grad` — which makes the layer
    exactly the upsampling operator used by encoder/decoder routability
    models such as RouteNet.  Its backward pass copies the output gradient
    into a zero-bordered ``grad_padded`` buffer and forms one image's im2col
    columns of it at a time in one image-sized ``grad_cols`` buffer, making
    both GEMMs of that image (input gradient and weight-gradient product)
    before the next.  As with :class:`Conv2d`, the scratch (the fold's
    image-sized buffers forward, those backward) is staged in the layer's
    workspace — held until ``release_workspaces()`` lends it on.  The
    weight gradient reads the forward input, which the layer keeps a
    reference to (not a copy) until its next step.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: KernelSize,
        stride: int = 1,
        padding: int = 0,
        output_padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("in_channels and out_channels must be positive")
        if stride <= 0 or padding < 0 or output_padding < 0:
            raise ValueError("stride must be positive; paddings must be non-negative")
        if output_padding >= stride:
            raise ValueError("output_padding must be smaller than stride")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.output_padding = int(output_padding)
        kh, kw = self.kernel_size
        weight_shape = (in_channels, out_channels, kh, kw)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng), name="weight")
        self.use_bias = bool(bias)
        if self.use_bias:
            fan_in = in_channels * kh * kw
            self.bias = Parameter(init.uniform_bias((out_channels,), fan_in, rng), name="bias")
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None
        self._ws = Workspace()

    def output_shape(self, height: int, width: int) -> Tuple[int, int]:
        """Spatial output shape for an input of ``height x width``."""
        kh, kw = self.kernel_size
        out_h = conv_transpose_output_size(height, kh, self.stride, self.padding, self.output_padding)
        out_w = conv_transpose_output_size(width, kw, self.stride, self.padding, self.output_padding)
        return out_h, out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"ConvTranspose2d expected input of shape (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        out_h, out_w = self.output_shape(h, w)
        x_flat = x.reshape(n, self.in_channels, h * w)
        out_shape = (n, self.out_channels, out_h, out_w)
        out = conv_input_grad(
            self.weight.data,
            x,
            out_shape,
            self.stride,
            self.padding,
            **_input_grad_scratch(self._ws, self.weight.data, out_shape, (h, w)),
        )
        if self.use_bias:
            out += self.bias.data.reshape(1, -1, 1, 1)
        self._cache = (x_flat, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("ConvTranspose2d.backward called before forward")
        x_flat, x_shape = self._cache
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        padded = _pad_into(self._ws, "grad_padded", grad_output, self.padding)
        windows = conv_windows(padded, *self.kernel_size, self.stride)
        grad_cols, form = _image_columns(self._ws, "grad_cols", windows)
        weight_matrix = self.weight.data.reshape(self.in_channels, -1)
        shape, dtype = weight_matrix.shape, grad_output.dtype
        total = self._ws.get("grad_weight_sum", shape, dtype)
        partial = self._ws.get("grad_weight_stage", shape, dtype) if len(x_flat) > 1 else None
        grad_input = np.empty(x_flat.shape, dtype=dtype)
        for image in range(len(x_flat)):
            form(image)
            _add_product(total, partial, image, x_flat[image], grad_cols)
            np.matmul(weight_matrix, grad_cols, out=grad_input[image])
        self.weight.grad += total.reshape(self.weight.data.shape)
        if self.use_bias:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        return grad_input.reshape(x_shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )
