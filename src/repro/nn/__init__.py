"""A from-scratch NumPy deep-learning substrate.

This subpackage replaces PyTorch for the purposes of the reproduction: it
provides exactly the operators the three routability estimators (FLNet,
RouteNet, PROS) need — 2-D convolutions with dilation, transposed
convolutions, batch normalization, pixel shuffle, pooling — together with
losses, optimizers, initialization, state-dict serialization and numerical
gradient checking.
"""

from repro.nn import functional, init
from repro.nn.gradcheck import (
    check_layer_input_gradient,
    check_layer_parameter_gradients,
    max_relative_error,
    numerical_gradient,
)
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Flatten,
    GroupNorm,
    InstanceNorm2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    NearestUpsample2d,
    PixelShuffle,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import (
    BCELoss,
    BCEWithLogitsLoss,
    DiceLoss,
    FocalLoss,
    Loss,
    MSELoss,
    WeightedMSELoss,
    make_loss,
)
from repro.nn.module import Identity, Module, Sequential
from repro.nn.optim import (
    SGD,
    Adam,
    Optimizer,
    clip_grad_norm,
    clip_grad_value,
    make_optimizer,
)
from repro.nn.serialization import load_state_dict, save_state_dict, state_dicts_allclose
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
    "Loss",
    "MSELoss",
    "BCELoss",
    "BCEWithLogitsLoss",
    "FocalLoss",
    "DiceLoss",
    "WeightedMSELoss",
    "make_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "make_optimizer",
    "clip_grad_norm",
    "clip_grad_value",
    "save_state_dict",
    "load_state_dict",
    "state_dicts_allclose",
    "numerical_gradient",
    "check_layer_input_gradient",
    "check_layer_parameter_gradients",
    "max_relative_error",
]
