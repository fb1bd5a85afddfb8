"""Spatial resampling layers: max pooling down, pixel shuffle up.

Pixel shuffle is the sub-pixel upsampling block used by PROS-style
routability estimators.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling with a square window, unpadded."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self._cache = None

    def output_shape(self, height: int, width: int) -> Tuple[int, int]:
        out_h = conv_output_size(height, self.kernel_size, self.stride, 0)
        out_w = conv_output_size(width, self.kernel_size, self.stride, 0)
        return out_h, out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        n, c, h, w = x.shape
        out_h, out_w = self.output_shape(h, w)
        # Pool each channel independently by treating channels as batch items.
        reshaped = x.reshape(n * c, 1, h, w)
        cols = im2col(reshaped, self.kernel_size, self.kernel_size, self.stride)
        argmax = cols.argmax(axis=1)
        out = np.take_along_axis(cols, argmax[:, None, :], axis=1).squeeze(1)
        out = out.reshape(n, c, out_h, out_w)
        self._cache = (argmax, cols.shape, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MaxPool2d.backward called before forward")
        argmax, cols_shape, x_shape = self._cache
        n, c, h, w = x_shape
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        grad_cols = np.zeros(cols_shape, dtype=grad_output.dtype)
        flat_grad = grad_output.reshape(n * c, 1, -1)
        np.put_along_axis(grad_cols, argmax[:, None, :], flat_grad, axis=1)
        grad_reshaped = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel_size, self.kernel_size, self.stride
        )
        return grad_reshaped.reshape(n, c, h, w)


class PixelShuffle(Module):
    """Rearranges ``(N, C*r^2, H, W)`` into ``(N, C, H*r, W*r)``."""

    def __init__(self, upscale_factor: int):
        super().__init__()
        if upscale_factor <= 0:
            raise ValueError(f"upscale_factor must be positive, got {upscale_factor}")
        self.upscale_factor = int(upscale_factor)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        n, c, h, w = x.shape
        r = self.upscale_factor
        if c % (r * r) != 0:
            raise ValueError(
                f"PixelShuffle requires channels divisible by {r * r}, got {c}"
            )
        self._input_shape = x.shape
        c_out = c // (r * r)
        x = x.reshape(n, c_out, r, r, h, w)
        x = x.transpose(0, 1, 4, 2, 5, 3)
        return x.reshape(n, c_out, h * r, w * r)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("PixelShuffle.backward called before forward")
        n, c, h, w = self._input_shape
        r = self.upscale_factor
        c_out = c // (r * r)
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        grad = grad_output.reshape(n, c_out, h, r, w, r)
        grad = grad.transpose(0, 1, 3, 5, 2, 4)
        return grad.reshape(n, c, h, w)
