"""FLNet: the paper's federated-learning-friendly routability estimator.

Table 1 of the paper specifies the full architecture:

======================  ===========  ========  ==========
Layer                   Kernel size  #Filters  Activation
======================  ===========  ========  ==========
``input_conv``          9 x 9        64        ReLU
``output_conv``         9 x 9        1         None
======================  ===========  ========  ==========

The design rationale (Section 4.2): a 2-layer CNN without batch
normalization has few parameters and low non-linearity, which makes it robust
to the parameter fluctuation introduced by federated aggregation under
client-level data heterogeneity, while the large 9x9 kernels keep the output
receptive field large enough for routability patterns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import RoutabilityModel
from repro.nn.layers import Conv2d, ReLU
from repro.utils.rng import new_rng


class FLNet(RoutabilityModel):
    """The 2-layer, batch-norm-free CNN of Table 1."""

    #: Kernel size of both convolutions (Table 1).
    KERNEL_SIZE = 9
    #: Number of filters of the hidden layer (Table 1).
    HIDDEN_FILTERS = 64

    def __init__(
        self,
        in_channels: int,
        hidden_filters: Optional[int] = None,
        kernel_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(in_channels)
        rng = rng if rng is not None else new_rng(seed)
        filters = int(hidden_filters) if hidden_filters is not None else self.HIDDEN_FILTERS
        kernel = int(kernel_size) if kernel_size is not None else self.KERNEL_SIZE
        if kernel % 2 == 0:
            raise ValueError("kernel_size must be odd to preserve the grid size")
        padding = kernel // 2
        self.input_conv = Conv2d(in_channels, filters, kernel, padding=padding, rng=rng)
        self.relu = ReLU()
        self.output_conv = Conv2d(filters, 1, kernel, padding=padding, rng=rng)
        self.hidden_filters = filters
        self.kernel_size = kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        hidden = self.relu(self.input_conv(x))
        return self.output_conv(hidden)

    def backward(self, grad_output: np.ndarray) -> None:
        grad = self.output_conv.backward(grad_output)
        self.input_conv.accumulate_grads(self.relu.backward(grad))

    def architecture_table(self) -> list:
        """The rows of the paper's Table 1 for this instance."""
        return [
            {
                "layer": "input_conv",
                "kernel_size": f"{self.kernel_size} x {self.kernel_size}",
                "filters": self.hidden_filters,
                "activation": "ReLU",
            },
            {
                "layer": "output_conv",
                "kernel_size": f"{self.kernel_size} x {self.kernel_size}",
                "filters": 1,
                "activation": "None",
            },
        ]
