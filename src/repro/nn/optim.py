"""Optimizers: SGD (with momentum) and Adam, both with decoupled-from-loss
L2 regularization (weight decay), matching the paper's training setup
(Adam, learning rate 2e-4, L2 strength 1e-5).

An optimizer steps one vector.  A packed model's parameters are one run of
its vector, and their gradients its gradient vector (:mod:`repro.nn.module`);
parameters built one by one are packed by the optimizer itself
(:func:`repro.nn.parameter.parameter_run`).  ``step()`` walks that run in
blocks of :data:`BLOCK` elements, so each block's data, gradient, moments
and work pair stay in the core's L2 cache across the update's dozen
elementwise passes.

An optimizer allocates nothing itself: its state is lent from the calling
thread's scratch pool (:mod:`repro.nn.workspace`) the way a layer's scratch
is.  Its :class:`~repro.nn.workspace.Workspace` holds one run-sized buffer
per moment (Adam's two, SGD's velocity) and a work pair of one block each.
A moment starts at zero: the first step writes each block whole with the
value a zeroed moment would take, bit for bit, instead of filling it with
zeros and updating it (``0 * beta + x`` is ``x + 0``, which differs from
``x`` only in turning ``-0`` into ``+0``).  ``release_scratch(optimizer)``,
wherever its run ends (``LocalTrainer.train_steps``), hands them back for
the next client on the thread, so an optimizer is built per run and not
stepped after its release.

Every operation is elementwise and runs in place (``np.multiply`` /
``np.add`` / ... with ``out=``), applying the identical IEEE operations in
the identical order as the original per-parameter expression forms, so the
produced parameters are **bit-identical** to them whatever the blocking
(guarded by ``tests/nn/test_losses_optim.py`` and the packed-vs-unpacked
parity test against the per-parameter oracles of ``tests/nn/oracles.py``).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter, parameter_run
from repro.nn.workspace import Workspace

#: Elements per block of a step: 128 KiB of float64 per operand, so a
#: block's six operands fit a 2 MB L2 (16-32 k measured best; see
#: docs/performance.md).
BLOCK = 16384


class Optimizer:
    """Base optimizer over an explicit list of parameters."""

    def __init__(self, parameters: Sequence[Parameter], lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        parameters = list(parameters)
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        #: The parameter run and its gradient run, stepped as one vector.
        self.data, self.grad = parameter_run(parameters)
        #: The lent state: the run-sized moments and the block-sized work pair.
        self._ws = Workspace()

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        raise NotImplementedError

    def blocks(self) -> Iterator[Tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(span, data, grad, work, work2)`` per block of the parameter run.

        ``data`` and ``grad`` are the block's views of the run, ``work`` and
        ``work2`` the lent work pair cut to the block's length.  Between
        steps the pair holds nothing: a value consumed before ``step()``
        (FedProx's proximal term) may be staged in it.
        """
        size = self.data.size
        length = min(size, BLOCK)
        work = self._ws.get("work", (length,), self.data.dtype)
        work2 = self._ws.get("work2", (length,), self.data.dtype)
        for start in range(0, size, BLOCK):
            span = slice(start, min(start + BLOCK, size))
            count = span.stop - start
            yield span, self.data[span], self.grad[span], work[:count], work2[:count]

    def _moment(self, tag: str) -> np.ndarray:
        """A run-sized lent moment buffer; the first step writes it whole."""
        return self._ws.get(tag, self.data.shape, self.data.dtype)

    def _regularized_grad(self, data: np.ndarray, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``grad + weight_decay * data`` without temporaries.

        Writes into ``out`` and returns it when weight decay applies;
        returns ``grad`` untouched otherwise.  Same operations (and the same
        values, bit for bit) as the expression form.
        """
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=out)
            np.add(grad, out, out=out)
            return out
        return grad


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
        self._started = False

    def step(self) -> None:
        velocity = self._moment("velocity") if self.momentum else None
        first, self._started = not self._started, True
        for span, data, grad, scratch, _ in self.blocks():
            grad = self._regularized_grad(data, grad, out=scratch)
            if velocity is not None:
                update = velocity[span]
                if first:
                    # From a zero velocity: 0 + grad (adding +0 turns -0 into +0).
                    np.add(grad, 0.0, out=update)
                else:
                    # velocity = momentum * velocity + grad, in place.
                    np.multiply(update, self.momentum, out=update)
                    np.add(update, grad, out=update)
            else:
                update = grad
            # data -= lr * update, staged through the scratch buffer (the
            # update may be the raw gradient, which must stay untouched).
            np.multiply(update, self.lr, out=scratch)
            np.subtract(data, scratch, out=data)


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
        # Two buffers, not one (2, P): a RouteNet's pair would pass the
        # 4 MiB at which NumPy asks for huge pages (docs/performance.md).
        first_moment, second_moment = self._moment("m"), self._moment("v")
        for span, data, grad, work, work2 in self.blocks():
            grad = self._regularized_grad(data, grad, out=work)
            m, v = first_moment[span], second_moment[span]
            if t == 1:
                # From zero moments: m = 0 + (1 - beta1) * grad, where adding
                # +0 only turns -0 into +0; v's product is never -0.
                np.multiply(grad, 1.0 - self.beta1, out=m)
                np.add(m, 0.0, out=m)
                np.multiply(grad, grad, out=work2)
                np.multiply(work2, 1.0 - self.beta2, out=v)
            else:
                # m = beta1 * m + (1 - beta1) * grad, in place.
                np.multiply(m, self.beta1, out=m)
                np.multiply(grad, 1.0 - self.beta1, out=work2)
                np.add(m, work2, out=m)
                # v = beta2 * v + (1 - beta2) * grad**2, in place (grad**2
                # with an integer exponent is exactly grad * grad).
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
            np.subtract(data, work, out=data)


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
