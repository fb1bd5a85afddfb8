"""Loss functions.

Each loss exposes ``forward(prediction, target) -> float`` and ``backward() ->
gradient w.r.t. prediction``.  The paper's local objective (Equation 1) is a
squared error over the predicted hotspot map; binary cross-entropy variants
are provided as well because they are the conventional choice for hotspot
classification heads.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import log_sigmoid, sigmoid
from repro.nn.workspace import Workspace


def _as_float_pair(prediction: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cast ``(prediction, target)`` into the loss's compute dtype.

    Losses follow the *prediction's* dtype: a float32 model produces float32
    scores and the loss (and its gradient) stays float32; anything else —
    the historical behavior included — runs in float64.
    """
    prediction = np.asarray(prediction)
    if prediction.dtype not in (np.float32, np.float64):
        prediction = prediction.astype(np.float64)
    target = np.asarray(target, dtype=prediction.dtype)
    return prediction, target


class Loss:
    """Base class for losses with cached backward pass."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)

    @staticmethod
    def _validate(prediction: np.ndarray, target: np.ndarray) -> None:
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} does not match target shape {target.shape}"
            )


class MSELoss(Loss):
    """Mean squared error, the paper's per-sample training objective.

    The residual and its square are staged in the loss object's workspace
    (the batch shape is fixed across a run), so a training step allocates no
    loss temporaries; the returned gradient is always a fresh array.
    """

    def __init__(self):
        self._cache: Optional[tuple] = None
        self._ws = Workspace()

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction, target = _as_float_pair(prediction, target)
        self._validate(prediction, target)
        diff = self._ws.get("diff", prediction.shape, prediction.dtype)
        np.subtract(prediction, target, out=diff)
        self._cache = (diff,)
        square = self._ws.get("square", prediction.shape, prediction.dtype)
        # diff**2 with the integer exponent lowers to diff * diff, so the
        # staged form is bit-identical to np.mean((prediction - target) ** 2).
        np.multiply(diff, diff, out=square)
        return float(np.mean(square))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MSELoss.backward called before forward")
        (diff,) = self._cache
        return 2.0 * diff / diff.size


class BCELoss(Loss):
    """Binary cross-entropy on probabilities (inputs clipped for stability)."""

    def __init__(self):
        self.eps = 1e-7
        self._cache: Optional[tuple] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction, target = _as_float_pair(prediction, target)
        self._validate(prediction, target)
        clipped = np.clip(prediction, self.eps, 1.0 - self.eps)
        self._cache = (clipped, target)
        loss = -(target * np.log(clipped) + (1.0 - target) * np.log(1.0 - clipped))
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BCELoss.backward called before forward")
        clipped, target = self._cache
        grad = (clipped - target) / (clipped * (1.0 - clipped))
        return grad / clipped.size


class BCEWithLogitsLoss(Loss):
    """Numerically stable binary cross-entropy on raw logits."""

    def __init__(self):
        self._cache: Optional[tuple] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        logits, target = _as_float_pair(prediction, target)
        self._validate(logits, target)
        log_p = log_sigmoid(logits)
        log_not_p = log_sigmoid(-logits)
        loss = -(target * log_p + (1.0 - target) * log_not_p)
        self._cache = (logits, target)
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BCEWithLogitsLoss.backward called before forward")
        logits, target = self._cache
        probs = sigmoid(logits)
        return (probs - target) / logits.size


def make_loss(name: str) -> Loss:
    """Factory mapping configuration strings to loss instances."""
    registry = {
        "mse": MSELoss,
        "bce": BCELoss,
        "bce_logits": BCEWithLogitsLoss,
    }
    if name not in registry:
        raise ValueError(f"unknown loss {name!r}; expected one of {sorted(registry)}")
    return registry[name]()
