"""Neural-network layers (NumPy implementation)."""

from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d, ConvTranspose2d
from repro.nn.layers.norm import BatchNorm2d, GroupNorm
from repro.nn.layers.pooling import MaxPool2d, PixelShuffle

__all__ = [
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "GroupNorm",
    "ReLU",
    "MaxPool2d",
    "PixelShuffle",
]
