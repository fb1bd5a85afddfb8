"""RouteNet-style routability estimator (baseline).

RouteNet (Xie et al., ICCAD 2018) is a fully convolutional network for DRC
hotspot prediction built from plain convolutions, a pooled encoder, a
transposed-convolution decoder, and a shortcut connection from the
full-resolution encoder features to the decoder.  The paper uses it as the
representative "traditional" estimator: strong when trained centrally or
locally, but — because of its depth, its batch-normalization layers, and its
higher non-linearity — fragile under federated parameter aggregation.

The exact filter counts below are scaled to the reproduction's grid sizes but
keep RouteNet's structure: stem -> encoder -> pool -> middle -> transposed
conv -> (+ shortcut) -> decoder -> output.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import RoutabilityModel
from repro.nn.layers import BatchNorm2d, Conv2d, ConvTranspose2d, GroupNorm, MaxPool2d, ReLU
from repro.nn.module import Identity, Sequential
from repro.utils.rng import new_rng

#: Normalization choices for :class:`RouteNet` (`"batch"` is the original).
NORM_CHOICES = ("batch", "group", "none")


class RouteNet(RoutabilityModel):
    """Encoder/decoder FCN with a shortcut connection and batch normalization.

    ``norm`` selects the normalization used between convolutions: ``"batch"``
    is the original architecture, ``"group"`` swaps every BatchNorm for a
    GroupNorm (no running statistics, so nothing for federated aggregation to
    corrupt), and ``"none"`` removes normalization entirely.  The variants
    exist for the normalization ablation — the paper blames BatchNorm's
    aggregated running statistics for RouteNet's degradation under
    decentralized training, and the ``"group"`` variant tests exactly that
    attribution.
    """

    def __init__(
        self,
        in_channels: int,
        base_filters: int = 32,
        norm: str = "batch",
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(in_channels)
        if base_filters <= 0:
            raise ValueError(f"base_filters must be positive, got {base_filters}")
        if norm not in NORM_CHOICES:
            raise ValueError(f"norm must be one of {NORM_CHOICES}, got {norm!r}")
        rng = rng if rng is not None else new_rng(seed)
        f = int(base_filters)
        self.base_filters = f
        self.norm = norm

        def make_norm(channels: int):
            if norm == "batch":
                return BatchNorm2d(channels)
            if norm == "group":
                return GroupNorm(num_groups=min(4, channels), num_channels=channels)
            return Identity()

        self.stem = Sequential(
            Conv2d(in_channels, f, 9, padding=4, rng=rng),
            ReLU(),
        )
        self.encoder = Sequential(
            Conv2d(f, 2 * f, 7, padding=3, rng=rng),
            make_norm(2 * f),
            ReLU(),
        )
        self.pool = MaxPool2d(2)
        self.middle = Sequential(
            Conv2d(2 * f, f, 9, padding=4, rng=rng),
            make_norm(f),
            ReLU(),
            Conv2d(f, f, 7, padding=3, rng=rng),
            make_norm(f),
            ReLU(),
        )
        self.upsample = Sequential(
            ConvTranspose2d(f, f, 4, stride=2, padding=1, rng=rng),
            ReLU(),
        )
        self.shortcut = Conv2d(2 * f, f, 1, rng=rng)
        self.decoder = Sequential(
            Conv2d(f, f // 2, 5, padding=2, rng=rng),
            make_norm(f // 2),
            ReLU(),
        )
        self.output_conv = Conv2d(f // 2, 1, 3, padding=1, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise ValueError(
                f"RouteNet requires even spatial dimensions (pool/upsample by 2), got {x.shape[2:]}"
            )
        stem_out = self.stem(x)
        encoded = self.encoder(stem_out)
        pooled = self.pool(encoded)
        middle_out = self.middle(pooled)
        upsampled = self.upsample(middle_out)
        skip = self.shortcut(encoded)
        decoded = self.decoder(upsampled + skip)
        return self.output_conv(decoded)

    def backward(self, grad_output: np.ndarray) -> None:
        grad = self.output_conv.backward(grad_output)
        grad = self.decoder.backward(grad)
        # The decoder input was (upsampled + skip): the gradient flows into
        # both branches unchanged.
        grad_up = self.upsample.backward(grad)
        grad_skip = self.shortcut.backward(grad)
        grad_mid = self.middle.backward(grad_up)
        grad_encoded = self.pool.backward(grad_mid) + grad_skip
        grad_stem = self.encoder.backward(grad_encoded)
        self.stem[0].accumulate_grads(self.stem[1].backward(grad_stem))


def RouteNetGN(
    in_channels: int,
    base_filters: int = 32,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> RouteNet:
    """RouteNet with GroupNorm instead of BatchNorm (the normalization ablation)."""
    return RouteNet(in_channels, base_filters=base_filters, norm="group", rng=rng, seed=seed)
