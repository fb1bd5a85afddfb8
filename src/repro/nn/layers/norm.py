"""Batch normalization.

Batch normalization is central to the paper's argument: RouteNet- and
PROS-style deep estimators rely on it, and under federated parameter
aggregation its running statistics (and the scale/shift parameters learned
around unstable batch statistics) degrade, which is one of the reasons FLNet
deliberately avoids it (Section 4.2 of the paper).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of NCHW tensors.

    During training the layer normalizes with batch statistics and updates
    exponential running averages; during evaluation it normalizes with the
    running averages.  ``weight`` (gamma) and ``bias`` (beta) are trainable;
    ``running_mean`` and ``running_var`` are buffers that participate in
    ``state_dict`` (and therefore in federated parameter aggregation, exactly
    as the paper describes).
    """

    def __init__(self, num_features: int):
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = int(num_features)
        self.eps = 1e-5
        self.momentum = 0.1
        self.weight = Parameter(np.ones(num_features), name="weight")
        self.bias = Parameter(np.zeros(num_features), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected input of shape (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            # Use the unbiased variance for the running estimate, matching PyTorch.
            count = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var * count / max(count - 1, 1)
            new_var = (1 - self.momentum) * self.running_var + self.momentum * unbiased
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
        else:
            mean = self.running_mean
            var = self.running_var
        std_inv = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) * std_inv.reshape(1, -1, 1, 1)
        out = self.weight.data.reshape(1, -1, 1, 1) * x_hat + self.bias.data.reshape(1, -1, 1, 1)
        self._cache = (x_hat, std_inv, np.asarray(self.training))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BatchNorm2d.backward called before forward")
        x_hat, std_inv, was_training = self._cache
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        gamma = self.weight.data.reshape(1, -1, 1, 1)

        self.weight.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        self.bias.grad += grad_output.sum(axis=(0, 2, 3))

        grad_x_hat = grad_output * gamma
        if not bool(was_training):
            # In eval mode the normalization statistics are constants.
            return grad_x_hat * std_inv.reshape(1, -1, 1, 1)

        n, _, h, w = grad_output.shape
        count = n * h * w
        sum_grad = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_xhat = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_input = (
            std_inv.reshape(1, -1, 1, 1)
            / count
            * (count * grad_x_hat - sum_grad - x_hat * sum_grad_xhat)
        )
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchNorm2d({self.num_features})"


class GroupNorm(Module):
    """Group normalization over NCHW tensors.

    Unlike batch normalization it carries no running statistics and
    normalizes each sample independently, which makes it a natural candidate
    for federated training where aggregated BN statistics are the problem the
    paper highlights (Section 4.2).  ``num_groups == num_channels`` recovers
    instance normalization; ``num_groups == 1`` recovers layer normalization
    over (C, H, W).
    """

    def __init__(self, num_groups: int, num_channels: int):
        super().__init__()
        if num_groups <= 0 or num_channels <= 0:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels ({num_channels}) must be divisible by num_groups ({num_groups})"
            )
        self.num_groups = int(num_groups)
        self.num_channels = int(num_channels)
        self.eps = 1e-5
        self.weight = Parameter(np.ones(num_channels), name="weight")
        self.bias = Parameter(np.zeros(num_channels), name="bias")
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expected input of shape (N, {self.num_channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        grouped = x.reshape(n, self.num_groups, c // self.num_groups, h, w)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        std_inv = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * std_inv).reshape(n, c, h, w)
        out = self.weight.data.reshape(1, -1, 1, 1) * x_hat + self.bias.data.reshape(1, -1, 1, 1)
        self._cache = (x_hat, std_inv, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("GroupNorm.backward called before forward")
        x_hat, std_inv, shape = self._cache
        grad_output = np.asarray(grad_output, dtype=self.compute_dtype)
        n, c, h, w = shape
        group_channels = c // self.num_groups

        self.weight.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        self.bias.grad += grad_output.sum(axis=(0, 2, 3))

        grad_x_hat = grad_output * self.weight.data.reshape(1, -1, 1, 1)
        grad_grouped = grad_x_hat.reshape(n, self.num_groups, group_channels, h, w)
        x_hat_grouped = x_hat.reshape(n, self.num_groups, group_channels, h, w)
        count = group_channels * h * w
        sum_grad = grad_grouped.sum(axis=(2, 3, 4), keepdims=True)
        sum_grad_xhat = (grad_grouped * x_hat_grouped).sum(axis=(2, 3, 4), keepdims=True)
        grad_input = (
            std_inv / count * (count * grad_grouped - sum_grad - x_hat_grouped * sum_grad_xhat)
        )
        return grad_input.reshape(n, c, h, w)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupNorm({self.num_groups}, {self.num_channels})"
