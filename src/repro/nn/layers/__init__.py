"""Neural-network layers (NumPy implementation)."""

from repro.nn.layers.activation import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.conv import Conv2d, ConvTranspose2d
from repro.nn.layers.linear import Flatten, Linear
from repro.nn.layers.norm import BatchNorm2d, GroupNorm, InstanceNorm2d
from repro.nn.layers.pooling import AvgPool2d, MaxPool2d
from repro.nn.layers.upsample import NearestUpsample2d, PixelShuffle

__all__ = [
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "GroupNorm",
    "InstanceNorm2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "PixelShuffle",
    "NearestUpsample2d",
    "Linear",
    "Flatten",
]
