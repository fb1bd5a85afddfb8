"""Trainable parameters for the NumPy neural-network substrate."""

from __future__ import annotations

from typing import Optional

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
        Accumulated gradient of the loss with respect to ``data``.  It is
        always allocated with the same shape and dtype as ``data`` and reset
        to zero by :meth:`zero_grad` (called by optimizers / modules between
        steps).
    name:
        Optional dotted name assigned when the parameter is registered in a
        module hierarchy; used for state dicts and per-parameter policies
        (e.g. FedProx-LG global/local partitioning).
    """

    def __init__(self, data: np.ndarray, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def to_dtype(self, dtype) -> None:
        """Cast ``data`` and ``grad`` to ``dtype`` in place (no-op when equal)."""
        dtype = np.dtype(dtype)
        if self.data.dtype != dtype:
            self.data = self.data.astype(dtype)
            self.grad = self.grad.astype(dtype)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros in place."""
        self.grad.fill(0.0)

    def copy_(self, values: np.ndarray) -> None:
        """Copy ``values`` into the parameter in place (shape-checked).

        Values are cast to the parameter's own dtype: this is the single
        downcast a float32 model performs when loading a float64 state
        (``load_state_dict`` is the compute-dtype boundary).
        """
        values = np.asarray(values)
        if values.shape != self.data.shape:
            raise ValueError(
                f"cannot copy array of shape {values.shape} into parameter "
                f"{self.name or '<unnamed>'} of shape {self.data.shape}"
            )
        np.copyto(self.data, values, casting="same_kind")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
