"""PROS-style routability estimator (baseline).

PROS (Chen et al., ICCAD 2020) predicts routing congestion with a deeper
fully convolutional network built from strided downsampling, dilated
convolution blocks for a large receptive field, refinement blocks, and
sub-pixel (pixel-shuffle) upsampling, all with batch normalization.  The
paper uses it as the second baseline and observes that its higher complexity
makes it the most vulnerable model under decentralized training.

The implementation below keeps all of those structural elements at a width
appropriate for the reproduction's grid sizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import RoutabilityModel
from repro.nn.layers import BatchNorm2d, Conv2d, PixelShuffle, ReLU
from repro.nn.module import Sequential
from repro.utils.rng import new_rng


class PROS(RoutabilityModel):
    """Dilated-convolution FCN with sub-pixel upsampling and refinement blocks."""

    def __init__(
        self,
        in_channels: int,
        base_filters: int = 32,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(in_channels)
        if base_filters <= 0:
            raise ValueError(f"base_filters must be positive, got {base_filters}")
        rng = rng if rng is not None else new_rng(seed)
        f = int(base_filters)
        self.base_filters = f

        # Encoder: stem at full resolution, then a strided downsampling stage.
        self.body = Sequential(
            Conv2d(in_channels, f, 3, padding=1, rng=rng),
            BatchNorm2d(f),
            ReLU(),
            Conv2d(f, 2 * f, 3, stride=2, padding=1, rng=rng),
            BatchNorm2d(2 * f),
            ReLU(),
            # Dilated convolution block: growing dilation keeps resolution
            # while expanding the receptive field (Yu & Koltun, 2015).
            Conv2d(2 * f, 2 * f, 3, padding=2, dilation=2, rng=rng),
            BatchNorm2d(2 * f),
            ReLU(),
            Conv2d(2 * f, 2 * f, 3, padding=4, dilation=4, rng=rng),
            BatchNorm2d(2 * f),
            ReLU(),
            # Refinement block at reduced resolution.
            Conv2d(2 * f, 2 * f, 3, padding=1, rng=rng),
            BatchNorm2d(2 * f),
            ReLU(),
            # Sub-pixel upsampling back to full resolution.
            Conv2d(2 * f, 4 * f, 3, padding=1, rng=rng),
            PixelShuffle(2),
            ReLU(),
            # Refinement block at full resolution.
            Conv2d(f, f // 2, 3, padding=1, rng=rng),
            BatchNorm2d(f // 2),
            ReLU(),
        )
        self.output_conv = Conv2d(f // 2, 1, 3, padding=1, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise ValueError(
                f"PROS requires even spatial dimensions (stride-2 encoder), got {x.shape[2:]}"
            )
        return self.output_conv(self.body(x))

    def backward(self, grad_output: np.ndarray) -> None:
        grad = self.output_conv.backward(grad_output)
        for index in range(len(self.body) - 1, 0, -1):
            grad = self.body[index].backward(grad)
        self.body[0].accumulate_grads(grad)
