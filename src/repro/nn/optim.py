"""Optimizers: SGD (with momentum) and Adam, both with decoupled-from-loss
L2 regularization (weight decay), matching the paper's training setup
(Adam, learning rate 2e-4, L2 strength 1e-5).

Every ``step()`` updates in place (``np.multiply``/``np.add``/... with
``out=``) into the parameter buffers, the persistent moment buffers, and
one pair of scratch buffers per optimizer (each sized to the largest
parameter, viewed per parameter), so a training step allocates no
per-parameter temporaries after the first call.  The in-place formulations
apply the identical IEEE operations in the identical order as the original
expression forms, so the produced parameters are **bit-identical** (guarded
by the optimizer parity test and the pre-refactor seeded regression).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Optimizer:
    """Base optimizer over an explicit list of parameters."""

    def __init__(self, parameters: Sequence[Parameter], lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        #: The two work buffers every parameter's step shares, and each
        #: parameter's pair of views into them (built on first use).
        self._scratch: Tuple[np.ndarray, ...] = ()
        self._scratch_views: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _scratch_for(self, key: int, param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """Two work views shaped like ``param`` into the optimizer's shared pair."""
        views = self._scratch_views.get(key)
        data = param.data
        if views is None or views[0].shape != data.shape or views[0].dtype != data.dtype:
            if not self._scratch or self._scratch[0].dtype != data.dtype or self._scratch[0].size < data.size:
                size = max(p.data.size for p in self.parameters)
                self._scratch = (np.empty(size, dtype=data.dtype), np.empty(size, dtype=data.dtype))
                self._scratch_views.clear()
            views = tuple(buffer[: data.size].reshape(data.shape) for buffer in self._scratch)
            self._scratch_views[key] = views
        return views

    def _regularized_grad(self, param: Parameter, out: np.ndarray) -> np.ndarray:
        """``grad + weight_decay * data`` without temporaries.

        Writes into ``out`` and returns it when weight decay applies;
        returns ``param.grad`` untouched otherwise.  Same operations (and
        the same values, bit for bit) as the expression form.
        """
        if self.weight_decay:
            np.multiply(param.data, self.weight_decay, out=out)
            np.add(param.grad, out, out=out)
            return out
        return param.grad


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            scratch, _ = self._scratch_for(index, param)
            grad = self._regularized_grad(param, out=scratch)
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                    self._velocity[index] = velocity
                # velocity = momentum * velocity + grad, in place.
                np.multiply(velocity, self.momentum, out=velocity)
                np.add(velocity, grad, out=velocity)
                update = velocity
            else:
                update = grad
            # data -= lr * update, staged through the scratch buffer (the
            # update may be the raw gradient, which must stay untouched).
            np.multiply(update, self.lr, out=scratch)
            np.subtract(param.data, scratch, out=param.data)


class Adam(Optimizer):
    """Adam optimizer with bias correction."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for index, param in enumerate(self.parameters):
            work, work2 = self._scratch_for(index, param)
            grad = self._regularized_grad(param, out=work)
            m = self._first_moment.get(index)
            v = self._second_moment.get(index)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
                self._first_moment[index] = m
                self._second_moment[index] = v
            # m = beta1 * m + (1 - beta1) * grad, in place.
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1.0 - self.beta1, out=work2)
            np.add(m, work2, out=m)
            # v = beta2 * v + (1 - beta2) * grad**2, in place (grad**2 with
            # an integer exponent is exactly grad * grad).
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, grad, out=work2)
            np.multiply(work2, 1.0 - self.beta2, out=work2)
            np.add(v, work2, out=v)
            # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps), staged
            # exactly as the expression evaluates.
            np.divide(m, bias1, out=work)
            np.multiply(work, self.lr, out=work)
            np.divide(v, bias2, out=work2)
            np.sqrt(work2, out=work2)
            np.add(work2, self.eps, out=work2)
            np.divide(work, work2, out=work)
            np.subtract(param.data, work, out=param.data)


def make_optimizer(
    name: str,
    parameters: Sequence[Parameter],
    lr: float,
    weight_decay: float = 0.0,
) -> Optimizer:
    """Factory mapping configuration strings to optimizer instances (SGD with momentum 0.9)."""
    name = name.lower()
    if name == "sgd":
        return SGD(parameters, lr=lr, momentum=0.9, weight_decay=weight_decay)
    if name == "adam":
        return Adam(parameters, lr=lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")
