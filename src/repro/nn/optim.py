"""Optimizers: SGD (with momentum) and Adam, both with decoupled-from-loss
L2 regularization (weight decay), matching the paper's training setup
(Adam, learning rate 2e-4, L2 strength 1e-5).

An optimizer allocates nothing itself: its state is lent from the calling
thread's scratch pool (:mod:`repro.nn.workspace`) the way a layer's scratch
is.  Its :class:`~repro.nn.workspace.Workspace` holds one zero-filled
buffer per parameter for each moment (Adam's two, SGD's velocity) and one
pair of work buffers sized to the largest parameter, viewed per parameter;
``release_scratch(optimizer)``, wherever its run ends
(``LocalTrainer.train_steps``), hands them back for the next client on the
thread, so an optimizer is built per run and not stepped after its release.

Every ``step()`` updates in place (``np.multiply``/``np.add``/... with
``out=``) into the parameter buffers, the moment buffers and the work
pair.  The in-place formulations apply the identical IEEE operations in
the identical order as the original expression forms, so the produced
parameters are **bit-identical** (guarded by the optimizer parity test and
the pre-refactor seeded regression).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace


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
        #: The lent state: per-parameter moments and the shared work pair.
        self._ws = Workspace()
        self._largest = max(param.data.size for param in self.parameters)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def work_views(self, param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """Two work views shaped like ``param`` into the optimizer's lent pair.

        Each buffer of the pair is sized to the largest parameter.  Between
        steps the first holds nothing: a value consumed before ``step()``
        (FedProx's proximal term) may be staged in it.
        """
        data = param.data
        size, shape = data.size, data.shape
        return (
            self._ws.get("work", (self._largest,), data.dtype)[:size].reshape(shape),
            self._ws.get("work2", (self._largest,), data.dtype)[:size].reshape(shape),
        )

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

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            scratch, _ = self.work_views(param)
            grad = self._regularized_grad(param, out=scratch)
            if self.momentum:
                velocity = self._ws.zeros(f"velocity{index}", param.data.shape, param.data.dtype)
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

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        ws = self._ws
        for index, param in enumerate(self.parameters):
            work, work2 = self.work_views(param)
            grad = self._regularized_grad(param, out=work)
            shape, dtype = param.data.shape, param.data.dtype
            m = ws.zeros(f"m{index}", shape, dtype)
            v = ws.zeros(f"v{index}", shape, dtype)
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
