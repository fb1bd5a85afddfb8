"""Numerical gradient checking utilities.

These are used by the test suite to verify every layer's analytic backward
pass against central finite differences, which is what makes the from-scratch
substrate trustworthy.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.nn.module import Module


def numerical_gradient(
    func: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = func(x)
        flat[index] = original - eps
        minus = func(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * eps)
    return grad


def check_layer_input_gradient(
    layer: Module,
    x: np.ndarray,
    eps: float = 1e-5,
    seed_grad: np.ndarray = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compare a layer's analytic input gradient with finite differences.

    The comparison scalarizes the layer output via a fixed random projection
    ``sum(output * seed_grad)``, whose gradient w.r.t. the output is exactly
    ``seed_grad``; the layer's ``backward(seed_grad)`` must then match the
    numerical gradient of the scalarized function.
    """
    x = np.asarray(x, dtype=np.float64)
    reference_output = layer.forward(x)
    if seed_grad is None:
        rng = np.random.default_rng(0)
        seed_grad = rng.normal(size=reference_output.shape)

    def scalarized(values: np.ndarray) -> float:
        return float(np.sum(layer.forward(values) * seed_grad))

    numeric = numerical_gradient(scalarized, x.copy(), eps=eps)
    layer.forward(x)
    analytic = layer.backward(seed_grad)
    return analytic, numeric


def check_layer_parameter_gradients(
    layer: Module,
    x: np.ndarray,
    eps: float = 1e-5,
) -> dict:
    """Compare analytic parameter gradients against finite differences.

    Returns a mapping ``parameter name -> (analytic, numeric)``.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(0)
    seed_grad = rng.normal(size=layer.forward(x).shape)

    layer.zero_grad()
    layer.forward(x)
    layer.backward(seed_grad)
    analytic_grads = {name: param.grad.copy() for name, param in layer.named_parameters()}

    results = {}
    for name, param in layer.named_parameters():
        def scalarized(values: np.ndarray, target_param=param) -> float:
            original = target_param.data.copy()
            target_param.data[...] = values.reshape(original.shape)
            out = float(np.sum(layer.forward(x) * seed_grad))
            target_param.data[...] = original
            return out

        numeric = numerical_gradient(scalarized, param.data.copy().reshape(-1), eps=eps)
        results[name] = (analytic_grads[name].reshape(-1), numeric)
    return results


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-7) -> float:
    """Maximum element-wise relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denominator = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denominator))
