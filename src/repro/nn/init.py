"""Weight-initialization schemes for the NumPy neural-network substrate."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in(shape: Tuple[int, ...]) -> int:
    """Fan-in of a convolutional weight shape.

    Convolutional weights are ``(out_channels, in_channels, kh, kw)`` and
    transposed-convolution weights are ``(in_channels, out_channels, kh, kw)``
    — for initialization purposes the distinction does not matter, only the
    receptive-field size.
    """
    if len(shape) != 4:
        raise ValueError(f"unsupported weight shape for fan computation: {shape}")
    return shape[1] * shape[2] * shape[3]


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He/Kaiming uniform initialization (default gain for ReLU networks)."""
    bound = gain * math.sqrt(3.0 / _fan_in(shape))
    return rng.uniform(-bound, bound, size=shape)


def uniform_bias(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias initialization: uniform in ``±1/sqrt(fan_in)``."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
