"""Trainable parameters for the NumPy neural-network substrate."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Attributes
    ----------
    data:
        The parameter values.  Parameters are born ``float64`` (matching
        initialization, states, and checkpoints); a model switched to the
        float32 compute dtype (:meth:`repro.nn.Module.set_compute_dtype`)
        carries them — and the matching ``grad`` buffers — as ``float32``
        for the duration of local training.
    grad:
        Accumulated gradient of the loss with respect to ``data``, of the
        same shape and dtype.  Layers accumulate into it in place.
    name:
        Optional dotted name assigned when the parameter is registered in a
        module hierarchy; used for state dicts and per-parameter policies
        (e.g. FedProx-LG global/local partitioning).

    Inside a model, ``data`` and ``grad`` are views into the model's packed
    vectors (:meth:`repro.nn.Module.pack`): write them in place, never
    rebind them.  A parameter built on its own holds arrays of its own until
    an optimizer or a module packs it.
    """

    def __init__(self, data: np.ndarray, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def packed(self) -> bool:
        """Whether ``data`` and ``grad`` are views into packed vectors."""
        return self.grad.base is not None

    # -- pickling: a packed parameter's values travel in its model's vectors ----
    def __getstate__(self) -> Dict[str, object]:
        """Everything but a packed parameter's views, which its model rebinds on load.

        So a packed parameter is pickled (or deep-copied) with its model,
        never on its own.
        """
        if not self.packed:
            return self.__dict__.copy()
        return {key: value for key, value in self.__dict__.items() if key not in ("data", "grad")}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


def parameter_run(parameters: Sequence[Parameter]) -> Tuple[np.ndarray, np.ndarray]:
    """``(data, grad)``: the 1-D runs that ``parameters`` are the slots of.

    A packed model's parameters (in any order) are the whole parameter run
    of its vectors, which is returned as it is.  Parameters that own their
    values (built one by one) are packed here into a fresh pair of vectors,
    in the given order.  Anything else — a subset of a model's parameters,
    or parameters of two models — is refused: packing those anew would cut
    them off from their model.
    """
    params = list(parameters)
    dtype = params[0].data.dtype
    total = sum(param.size for param in params)
    if all(param.packed for param in params):
        grad_base = params[0].grad.base
        data_base = params[0].data.base
        whole = (
            grad_base.ndim == 1
            and grad_base.size == total
            and len({id(param) for param in params}) == len(params)
            and all(param.grad.base is grad_base and param.data.base is data_base for param in params)
        )
        if whole:
            return data_base[:total], grad_base
    if any(param.packed for param in params):
        raise ValueError("parameters are views of a packed model but not all of its parameters")
    data = np.empty(total, dtype=dtype)
    grad = np.empty(total, dtype=dtype)
    offset = 0
    for param in params:
        values, gradient, end = param.data, param.grad, offset + param.size
        param.data = data[offset:end].reshape(values.shape)
        param.grad = grad[offset:end].reshape(values.shape)
        np.copyto(param.data, values)
        np.copyto(param.grad, gradient)
        offset = end
    return data, grad
