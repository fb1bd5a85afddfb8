"""Common interface of the routability estimators."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.module import Module


class RoutabilityModel(Module):
    """Base class of FLNet / RouteNet / PROS.

    A routability estimator maps a feature tensor ``(N, C, H, W)`` to a raw
    hotspot score map ``(N, 1, H, W)``.  Scores are uncalibrated; ROC AUC (the
    paper's metric) only depends on their ranking.

    Subclasses must expose the final layer as an attribute named
    ``output_conv`` — that layer is what FedProx-LG keeps local to each client
    (the paper sets "the output layers of the three models to be the local
    part").
    """

    def __init__(self, in_channels: int):
        super().__init__()
        if in_channels <= 0:
            raise ValueError(f"in_channels must be positive, got {in_channels}")
        self.in_channels = int(in_channels)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Run inference in evaluation mode and return ``(N, 1, H, W)`` scores.

        Scores come out in the model's compute dtype (float32 under the
        fast path); ROC AUC only depends on their ranking either way.
        """
        was_training = self.training
        self.eval()
        try:
            output = self.forward(np.asarray(features, dtype=self.compute_dtype))
        finally:
            self.train(was_training)
        return output

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate every parameter's gradient; the features' gradient is never formed
        (the first conv runs only ``Conv2d.accumulate_grads``)."""
        raise NotImplementedError

    def local_parameter_names(self) -> List[str]:
        """Parameter names of the output layer (the FedProx-LG local part)."""
        names = [name for name, _ in self.named_parameters() if name.startswith("output_conv")]
        if not names:
            raise RuntimeError(
                f"{self.__class__.__name__} does not expose an 'output_conv' layer; "
                "FedProx-LG partitioning is undefined"
            )
        return names

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.__class__.__name__} expected input of shape "
                f"(N, {self.in_channels}, H, W), got {x.shape}"
            )
        return x
