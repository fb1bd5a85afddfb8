"""2-D convolution and transposed convolution layers."""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.functional import (
    conv_input_grad,
    conv_output_size,
    conv_transpose_output_size,
    im2col,
)
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace

KernelSize = Union[int, Tuple[int, int]]


def _pair(value: KernelSize) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def grad_weight_gemm(grad_flat: np.ndarray, cols: np.ndarray, stage: np.ndarray) -> np.ndarray:
    """The conv weight-gradient contraction ``sum_i grad_flat[i] @ cols[i].T``.

    One batched matmul into ``stage``, the layer's ``(n, rows, cols)``
    workspace buffer, then a ``sum(axis=0)`` reduction pass.  When the batch
    holds a single image the reduction is the identity and the whole thing
    is one 2-D GEMM over the same operands — same BLAS call, same IEEE
    sequence, no reduction pass.  Larger batches are not collapsed: that
    would reassociate the per-image partial sums, and flattened single-GEMM
    reformulations drift in the last ulp on some shapes under OpenBLAS.

    The batch-1 result aliases ``stage`` and must be consumed before the
    owning layer's next step (the standard workspace contract).

    This contraction runs over ``L`` while the input gradient of the same
    backward contracts over the filters; no stacking of operands turns the
    two into one batched matmul without zero-padding one of them, and
    padding changes the GEMM's reduction tree — so they stay apart.
    """
    if grad_flat.shape[0] == 1:
        return np.matmul(grad_flat[0], cols[0].transpose(), out=stage[0])
    np.matmul(grad_flat, cols.transpose(0, 2, 1), out=stage)
    return stage.sum(axis=0)


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
    The forward pass lowers the convolution to a batched matrix multiplication
    via im2col.  :meth:`accumulate_grads` adds the weight and bias gradients
    of a step; :meth:`backward` does that and returns the input gradient,
    folded tap by tap without ever forming its columns (see
    :func:`repro.nn.functional.conv_input_grad`).  A model's first conv,
    whose input gradient nobody reads, calls only :meth:`accumulate_grads`.

    The per-step temporaries — the padded input, the im2col ``cols``
    matrix, the weight-gradient staging buffer and the input gradient's
    image-sized product and accumulator (channels-first, plus the
    per-tap ``spread``, for one filter) — live in the layer's
    :class:`~repro.nn.workspace.Workspace`, reused via ``out=`` on every
    step instead of being reallocated.  The layer holds those buffers
    only until :meth:`~repro.nn.Module.release_workspaces` lends them to the
    thread's pool (and resets ``_cache``, which references ``cols``).
    Workspace buffers are internal scratch only: the layer's outputs and
    input gradients are always freshly allocated, so callers may hold them
    across steps.
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
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int], Tuple[int, int]]] = None
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
        kh, kw = self.kernel_size
        out_h, out_w = self.output_shape(h, w)
        dtype = x.dtype
        padded = (
            self._ws.zeros(
                "padded", (n, self.in_channels, h + 2 * self.padding, w + 2 * self.padding), dtype
            )
            if self.padding > 0
            else None
        )
        cols_buf = self._ws.get("cols", (n, self.in_channels * kh * kw, out_h * out_w), dtype)
        cols = im2col(
            x, kh, kw, self.stride, self.padding, self.dilation, out=cols_buf, padded_out=padded
        )
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        out = np.matmul(weight_matrix, cols)
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.use_bias:
            out += self.bias.data.reshape(1, -1, 1, 1)
        self._cache = (cols, x.shape, (out_h, out_w))
        return out

    def accumulate_grads(self, grad_output: np.ndarray) -> None:
        """Add the step's weight and bias gradients; form no input gradient."""
        if self._cache is None:
            raise RuntimeError("Conv2d.backward called before forward")
        cols, x_shape, (out_h, out_w) = self._cache
        n = x_shape[0]
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        grad_flat = grad_output.reshape(n, self.out_channels, out_h * out_w)
        stage = self._ws.get("grad_weight_stage", (n, self.out_channels, cols.shape[1]), cols.dtype)
        self.weight.grad += grad_weight_gemm(grad_flat, cols, stage).reshape(self.weight.data.shape)
        if self.use_bias:
            self.bias.grad += grad_flat.sum(axis=(0, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_grads(grad_output)
        _, (n, c, h, w), (out_h, out_w) = self._cache
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
    models such as RouteNet.  As with :class:`Conv2d`, the scratch (the
    fold's image-sized buffers forward, the im2col columns of the output
    gradient backward) is staged in the layer's workspace — held,
    like :class:`Conv2d`'s, until ``release_workspaces()`` lends it on.
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
        self._cache: Optional[
            Tuple[np.ndarray, Tuple[int, int, int, int], Tuple[int, int, int, int]]
        ] = None
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
        self._cache = (x_flat, x.shape, out_shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("ConvTranspose2d.backward called before forward")
        x_flat, x_shape, out_shape = self._cache
        n, _, out_h, out_w = out_shape
        kh, kw = self.kernel_size
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        dtype = grad_output.dtype
        grad_cols_shape = (n, self.out_channels * kh * kw, x_flat.shape[2])
        grad_cols_buf = self._ws.get("grad_cols", grad_cols_shape, dtype)
        grad_padded = (
            self._ws.zeros(
                "grad_padded",
                (n, self.out_channels, out_h + 2 * self.padding, out_w + 2 * self.padding),
                dtype,
            )
            if self.padding > 0
            else None
        )
        grad_cols = im2col(
            grad_output,
            kh,
            kw,
            self.stride,
            self.padding,
            dilation=1,
            out=grad_cols_buf,
            padded_out=grad_padded,
        )

        weight_matrix = self.weight.data.reshape(self.in_channels, -1)
        stage = self._ws.get("grad_weight_stage", (n,) + weight_matrix.shape, dtype)
        grad_weight = grad_weight_gemm(x_flat, grad_cols, stage)
        self.weight.grad += grad_weight.reshape(self.weight.data.shape)
        if self.use_bias:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))

        return np.matmul(weight_matrix, grad_cols).reshape(x_shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )
