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

    def __init__(self, eps: float = 1e-7):
        self.eps = float(eps)
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
    """Numerically stable binary cross-entropy on raw logits.

    Supports an optional positive-class weight, useful because DRC hotspots
    are a heavily imbalanced label (hotspot cells are rare).
    """

    def __init__(self, pos_weight: Optional[float] = None):
        if pos_weight is not None and pos_weight <= 0:
            raise ValueError(f"pos_weight must be positive, got {pos_weight}")
        self.pos_weight = None if pos_weight is None else float(pos_weight)
        self._cache: Optional[tuple] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        logits, target = _as_float_pair(prediction, target)
        self._validate(logits, target)
        log_p = log_sigmoid(logits)
        log_not_p = log_sigmoid(-logits)
        if self.pos_weight is None:
            loss = -(target * log_p + (1.0 - target) * log_not_p)
        else:
            loss = -(self.pos_weight * target * log_p + (1.0 - target) * log_not_p)
        self._cache = (logits, target)
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BCEWithLogitsLoss.backward called before forward")
        logits, target = self._cache
        probs = sigmoid(logits)
        if self.pos_weight is None:
            grad = probs - target
        else:
            grad = (1.0 - target) * probs - self.pos_weight * target * (1.0 - probs)
        return grad / logits.size


class FocalLoss(Loss):
    """Focal loss on raw logits (Lin et al.), for heavily imbalanced hotspot maps.

    ``gamma`` down-weights easy examples; ``alpha`` is the weight of the
    positive class (``1 - alpha`` for the negative class).  ``gamma = 0`` and
    ``alpha = 0.5`` recovers half the plain binary cross-entropy.
    """

    def __init__(self, gamma: float = 2.0, alpha: float = 0.25):
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self._cache: Optional[tuple] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        logits, target = _as_float_pair(prediction, target)
        self._validate(logits, target)
        probs = sigmoid(logits)
        # p_t is the model's probability of the true class.
        p_t = target * probs + (1.0 - target) * (1.0 - probs)
        alpha_t = target * self.alpha + (1.0 - target) * (1.0 - self.alpha)
        log_p_t = target * log_sigmoid(logits) + (1.0 - target) * log_sigmoid(-logits)
        loss = -alpha_t * (1.0 - p_t) ** self.gamma * log_p_t
        self._cache = (probs, target, p_t, alpha_t, log_p_t)
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("FocalLoss.backward called before forward")
        probs, target, p_t, alpha_t, log_p_t = self._cache
        # d p_t / d logits = (2 * target - 1) * p * (1 - p)
        dpt_dlogit = (2.0 * target - 1.0) * probs * (1.0 - probs)
        focal = (1.0 - p_t) ** self.gamma
        # loss = -alpha_t * (1 - p_t)^gamma * log(p_t)
        dloss_dpt = -alpha_t * (
            -self.gamma * (1.0 - p_t) ** (self.gamma - 1.0) * log_p_t + focal / np.clip(p_t, 1e-12, None)
        )
        grad = dloss_dpt * dpt_dlogit
        return grad / probs.size


class DiceLoss(Loss):
    """Soft Dice loss on probabilities — an overlap objective for hotspot maps.

    ``1 - 2 |P ∩ Y| / (|P| + |Y|)`` with a smoothing constant; useful when the
    positive class is rare because the loss is scale-free in the class ratio.
    """

    def __init__(self, smooth: float = 1.0):
        if smooth <= 0:
            raise ValueError(f"smooth must be positive, got {smooth}")
        self.smooth = float(smooth)
        self._cache: Optional[tuple] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        probs, target = _as_float_pair(prediction, target)
        self._validate(probs, target)
        intersection = float((probs * target).sum())
        denominator = float(probs.sum() + target.sum())
        dice = (2.0 * intersection + self.smooth) / (denominator + self.smooth)
        self._cache = (probs, target, intersection, denominator)
        return float(1.0 - dice)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("DiceLoss.backward called before forward")
        probs, target, intersection, denominator = self._cache
        numerator = 2.0 * intersection + self.smooth
        denom = denominator + self.smooth
        # d dice / d p_i = (2 * y_i * denom - numerator) / denom^2
        ddice_dp = (2.0 * target * denom - numerator) / denom**2
        return -ddice_dp


class WeightedMSELoss(Loss):
    """MSE with a per-class weight, emphasizing the rare hotspot pixels.

    The paper's objective is plain MSE; this variant keeps the squared-error
    form (so FedProx's analysis still applies) while letting clients with
    extremely sparse hotspot maps up-weight the positive bins.
    """

    def __init__(self, pos_weight: float = 1.0):
        if pos_weight <= 0:
            raise ValueError(f"pos_weight must be positive, got {pos_weight}")
        self.pos_weight = float(pos_weight)
        self._cache: Optional[tuple] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction, target = _as_float_pair(prediction, target)
        self._validate(prediction, target)
        weights = np.where(target > 0.5, self.pos_weight, 1.0)
        diff = prediction - target
        self._cache = (diff, weights)
        return float(np.mean(weights * diff**2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("WeightedMSELoss.backward called before forward")
        diff, weights = self._cache
        return 2.0 * weights * diff / diff.size


def make_loss(name: str, **kwargs) -> Loss:
    """Factory mapping configuration strings to loss instances."""
    registry = {
        "mse": MSELoss,
        "bce": BCELoss,
        "bce_logits": BCEWithLogitsLoss,
        "focal": FocalLoss,
        "dice": DiceLoss,
        "weighted_mse": WeightedMSELoss,
    }
    if name not in registry:
        raise ValueError(f"unknown loss {name!r}; expected one of {sorted(registry)}")
    return registry[name](**kwargs)
