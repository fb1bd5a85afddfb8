"""The compute-dtype contract of the NumPy substrate.

Training arithmetic runs in a single configurable floating dtype — the
**compute dtype** — threaded through every layer, loss, and optimizer via
:meth:`repro.nn.Module.set_compute_dtype`.

``float64`` is the default and is bit-identical to the historical behavior
(every cast it implies was already there).  ``float32`` is the opt-in fast
path: it halves the memory bandwidth of the im2col/GEMM hot loop, which is
where the memory-bound client step spends its time.

The dtype is a property of *local computation only*.  Everything that
crosses the client boundary — the parameter states of
:meth:`~repro.nn.Module.state_dict`, a model's one export, server
aggregation, wire codecs, checkpoints — stays ``float64``: a float32 model
loads a float64 state by casting down once at ``load_state_dict`` time and
exports by casting up once into a ``float64``
:class:`~repro.nn.state.FlatState` in the model's own
:class:`~repro.nn.state.StateLayout`.  See ``docs/performance.md``.
"""

from __future__ import annotations

import numpy as np

#: Compute dtypes accepted by configs / CLI, in preference order.
COMPUTE_DTYPE_CHOICES = ("float64", "float32")

_ALLOWED = tuple(np.dtype(name) for name in COMPUTE_DTYPE_CHOICES)


def resolve_compute_dtype(dtype) -> np.dtype:
    """Normalize a compute-dtype spec (name, dtype, or ``None``) to a dtype.

    ``None`` means the default (``float64``).  Anything outside
    :data:`COMPUTE_DTYPE_CHOICES` is rejected — the substrate's numerics
    (stable sigmoids, loss reductions, optimizer moments) are only
    validated for these two dtypes.
    """
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError as error:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; expected one of {COMPUTE_DTYPE_CHOICES}"
        ) from error
    if resolved not in _ALLOWED:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; expected one of {COMPUTE_DTYPE_CHOICES}"
        )
    return resolved
