"""Operations on model parameter states used by federated aggregation.

A "state" is the one export of a model, :meth:`repro.nn.Module.state_dict`:
a :class:`FlatState` in the model's own interned :class:`StateLayout` (both
live in :mod:`repro.nn.state` and are re-exported here).  Everything the
developer ever sees in the decentralized setting is one of these states —
never raw data — so all server-side algorithms (FedAvg/FedProx averaging,
FedProx-LG partial aggregation, IFCA per-cluster aggregation, alpha-portion
sync) are expressed as arithmetic over states.

One representation
------------------
Every function here, in :mod:`repro.fl.privacy`, :mod:`repro.fl.server`,
:mod:`repro.fl.aggregation` and the wire codecs takes any ``name ->
ndarray`` mapping, packs it once at the door (:func:`as_flat_state`, a
pass-through for a state that already is flat) and has one body, over the
vector: :func:`weighted_average` is one ``(K, P) @ (K,)`` GEMV, delta
encode/decode, error-feedback folds and
:meth:`~repro.fl.FederatedServer.alpha_portion_sync` are whole-model vector
ops.  Whatever it returns is a :class:`FlatState`.

Bit-parity rules
----------------
Everything elementwise (clone, deltas, folds, noise, clipping scale) is
**bit-identical** to a per-name loop over the tensors by construction: the
flat vector stores each tensor's elements contiguously in state order, so
the same IEEE operations run on the same values in the same order.
:func:`weighted_average` is the one deliberate exception: the single GEMV
may differ from a per-name ``np.tensordot`` loop at the last ulp (BLAS
kernel tails).  The per-name loops are the test-side oracles in
``tests/fl/oracles.py``; ``tests/fl/test_state_door.py`` holds every
function to them for dict, flat, mixed and entry-permuted inputs (``1e-12``
for the GEMV, bit for bit for the rest).  States in *sorted* (wire) name
order align to model order through :meth:`StateLayout.gather_from`.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.state import FlatState, State, StateLayout, as_flat_state


def flat_model_state(model) -> FlatState:
    """``model.state_dict()``: kept for callers that import it from here."""
    return model.state_dict()


def state_vector(state: State, layout: Optional[StateLayout] = None) -> np.ndarray:
    """``state``'s values as one float64 vector in ``layout`` order.

    Zero-copy for a state already in that layout, a cached gather for one
    in a different entry order.  Callers must treat the result as read-only.
    """
    state = as_flat_state(state)
    if layout is None or layout is state.layout:
        return state.vector
    return state.vector[layout.gather_from(state.layout)]


def sorted_state_vector(state: State) -> np.ndarray:
    """The flat vector in sorted name order (the wire order).

    A codec-decoded state is already in sorted order, so its buffer is
    returned as-is (read-only).
    """
    state = as_flat_state(state)
    perm = state.layout.sorted_permutation()
    return state.vector if perm is None else state.vector[perm]


def flat_pair(state_a: State, state_b: State) -> Tuple[StateLayout, np.ndarray, np.ndarray]:
    """``(layout, vector_a, vector_b)`` of two compatible states.

    The vectors are aligned to ``state_a``'s layout; states with different
    names or shapes raise the ``ValueError`` of :func:`check_compatible`.
    """
    state_a, state_b = as_flat_state(state_a), as_flat_state(state_b)
    check_compatible([state_a, state_b])
    return state_a.layout, state_a.vector, state_vector(state_b, state_a.layout)


# -- state arithmetic ------------------------------------------------------------


def clone_state(state: State) -> FlatState:
    """Deep-copy a state."""
    return FlatState.from_state(state)


def zeros_like_state(state: State) -> FlatState:
    """A state with the same keys/shapes but all zeros."""
    layout = as_flat_state(state).layout
    return FlatState(layout, np.zeros(layout.total_size, dtype=np.float64))


def check_compatible(states: Sequence[State]) -> None:
    """Validate that all states share keys and shapes.

    Validation runs against the first state's frozen layout: states sharing
    that (interned) layout pass with an identity check, others with one
    cached set comparison.
    """
    if not states:
        raise ValueError("no states provided")
    reference = as_flat_state(states[0]).layout
    for index, state in enumerate(states[1:], start=1):
        layout = as_flat_state(state).layout
        if reference.compatible_with(layout):
            continue
        if set(layout.names) != set(reference.names):
            raise ValueError(f"state {index} has different keys than state 0")
        shapes = dict(layout.entries)
        for name, shape in reference.entries:
            if shapes[name] != shape:
                raise ValueError(
                    f"state {index} entry {name!r} has shape {shapes[name]}, expected {shape}"
                )


# The (K, P) aggregation matrices are lent from one free list: the server
# aggregates the same cohort-size/model-size shape every round, and
# re-touching a freshly allocated multi-megabyte buffer each round costs
# more in page faults than the GEMV itself.  A matrix is either in exactly
# one holder's hands (a ``weighted_average`` call, or a streaming
# accumulator between its first fold and its result or spill) or parked
# here.  Handing one back drops the parked matrices of the same width and
# another row count, so a pool never stays pinned at a stale cohort size.
_FREE_MATRICES: List[np.ndarray] = []
_FREE_MATRICES_LOCK = threading.Lock()


def lend_matrix(rows: int, columns: int) -> np.ndarray:
    """A (rows, columns) float64 matrix the caller holds alone until it
    calls :func:`hand_back_matrix`; its contents are undefined."""
    with _FREE_MATRICES_LOCK:
        for index, matrix in enumerate(_FREE_MATRICES):
            if matrix.shape == (rows, columns):
                return _FREE_MATRICES.pop(index)
    return np.empty((rows, columns), dtype=np.float64)


def hand_back_matrix(matrix: np.ndarray) -> None:
    """Park a lent matrix for the next :func:`lend_matrix` of its shape."""
    rows, columns = matrix.shape
    with _FREE_MATRICES_LOCK:
        _FREE_MATRICES[:] = [
            parked for parked in _FREE_MATRICES if parked.shape[1] != columns or parked.shape[0] == rows
        ]
        _FREE_MATRICES.append(matrix)


def empty_matrix_pool() -> None:
    """Drop every parked matrix, so a memory measurement sees its lends allocated."""
    with _FREE_MATRICES_LOCK:
        _FREE_MATRICES.clear()


def check_weight(weight: float) -> float:
    """``weight`` as a float; anything but a finite, non-negative number is rejected.

    One NaN or infinite aggregation weight turns every entry of the average
    into NaN, so it must not get as far as the arithmetic.
    """
    weight = float(weight)
    if not (math.isfinite(weight) and weight >= 0):
        raise ValueError(f"weights must be finite and non-negative, got {weight}")
    return weight


def normalized_weights(weights: np.ndarray) -> np.ndarray:
    """``weights / weights.sum()``, after rejecting any weight
    :func:`check_weight` refuses and an all-zero total."""
    for weight in weights:
        check_weight(weight)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return weights / total


def weighted_average(states: Sequence[State], weights: Sequence[float]) -> FlatState:
    """Weighted average of states (weights are normalized internally).

    This is the server's parameter-aggregation step
    ``W^{r+1} = sum_k (n_k / n) w_k^r`` from Figure 1 of the paper,
    computed as one ``(K,) @ (K, P)`` GEMV over the flat buffers — BLAS
    speed instead of a per-name Python loop, over a lent matrix.  The result
    is in the first state's entry order.
    """
    states = [as_flat_state(state) for state in states]
    weights = np.asarray(list(weights), dtype=np.float64)
    if len(states) != weights.size:
        raise ValueError(f"got {len(states)} states but {weights.size} weights")
    normalized = normalized_weights(weights)
    check_compatible(states)
    layout = states[0].layout
    matrix = lend_matrix(len(states), layout.total_size)
    for row, state in enumerate(states):
        matrix[row] = state_vector(state, layout)
    average = normalized @ matrix
    hand_back_matrix(matrix)
    return FlatState(layout, average)


def merge_partition(global_state: State, local_state: State, local_names: Iterable[str]) -> FlatState:
    """Overlay the ``local_names`` entries of ``local_state`` onto ``global_state``.

    Used by FedProx-LG: the developer's aggregate supplies the global part,
    the client's private copy supplies the local part.
    """
    local_names = set(local_names)
    unknown = local_names - set(global_state)
    if unknown:
        raise ValueError(f"local parameter names not present in state: {sorted(unknown)}")
    merged = clone_state(global_state)
    for name in local_names:
        merged[name] = local_state[name]  # write-through into the buffer
    return merged


def filter_state(state: State, names: Iterable[str]) -> FlatState:
    """A new state containing only the requested entries."""
    names = list(names)
    missing = [name for name in names if name not in state]
    if missing:
        raise ValueError(f"state does not contain {missing}")
    return FlatState.from_items((name, state[name]) for name in names)


def state_distance(state_a: State, state_b: State) -> float:
    """Euclidean distance between two states (used in tests and diagnostics)."""
    check_compatible([state_a, state_b])
    total = 0.0
    for name in state_a:
        diff = state_a[name] - state_b[name]
        total += float(np.sum(diff * diff))
    return float(np.sqrt(total))


def state_norm(state: State) -> float:
    """Euclidean norm of a state.

    Deliberately accumulated per tensor, not over the whole flat vector:
    DP clipping scales depend on it, and they feed the run digests.
    """
    return float(np.sqrt(sum(float(np.sum(values**2)) for values in state.values())))


def flatten_state(state: State) -> np.ndarray:
    """Concatenate all entries into one vector (deterministic key order)."""
    state = as_flat_state(state)
    flat = sorted_state_vector(state)
    return flat.copy() if flat is state.vector else flat


def state_digest(state: State) -> str:
    """A hex SHA-256 digest of a state's exact bits (names, shapes, values).

    The bit-for-bit identity witness the wire-smoke CI job diffs: two runs
    produce the same digest iff every parameter tensor is byte-identical
    (values are hashed as contiguous float64 buffers in sorted name order,
    so flat and dict states of the same values agree).
    """
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(state):
        values = np.ascontiguousarray(np.asarray(state[name], dtype=np.float64))
        digest.update(name.encode("utf-8"))
        digest.update(str(values.shape).encode("ascii"))
        digest.update(values.tobytes())
    return digest.hexdigest()

