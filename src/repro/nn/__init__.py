"""A from-scratch NumPy deep-learning substrate.

This subpackage replaces PyTorch for the purposes of the reproduction: it
provides exactly the operators the three routability estimators (FLNet,
RouteNet, PROS) need — 2-D convolutions with dilation, transposed
convolutions, batch and group normalization, pixel shuffle, max pooling —
together with losses, optimizers, initialization and state-dict
serialization.
"""

from repro.nn import functional, init
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    GroupNorm,
    MaxPool2d,
    PixelShuffle,
    ReLU,
)
from repro.nn.losses import Loss, make_loss
from repro.nn.module import Identity, Module, Sequential
from repro.nn.optim import make_optimizer
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.dtypes import COMPUTE_DTYPE_CHOICES, resolve_compute_dtype
from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace

__all__ = [
    "functional",
    "init",
    "COMPUTE_DTYPE_CHOICES",
    "resolve_compute_dtype",
    "Workspace",
    "Parameter",
    "Module",
    "Sequential",
    "Identity",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "GroupNorm",
    "ReLU",
    "MaxPool2d",
    "PixelShuffle",
    "Loss",
    "make_loss",
    "make_optimizer",
    "save_state_dict",
    "load_state_dict",
]
