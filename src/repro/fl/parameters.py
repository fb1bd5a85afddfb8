"""Operations on model parameter states used by federated aggregation.

A "state" is the ``name -> ndarray`` mapping of
:meth:`repro.nn.Module.state_dict`, held as a :class:`FlatState`.  Everything
the developer ever sees in the decentralized setting is one of these states —
never raw data — so all server-side algorithms (FedAvg/FedProx averaging,
FedProx-LG partial aggregation, IFCA per-cluster aggregation, alpha-portion
sync) are expressed as arithmetic over states.

One representation
------------------
:class:`StateLayout`
    A frozen layout — ordered names, shapes, per-entry offsets into one
    flat float64 vector — derived once per distinct architecture and
    interned, so two states of the same model share one layout *object*.
:class:`FlatState`
    A ``dict`` subclass whose values are **zero-copy views** into one
    contiguous 1-D ``vector``.  Algorithms keep indexing ``state[name]``
    (the dict API is the thin view), while the arithmetic below reaches
    straight for ``state.vector``: :func:`weighted_average` is one
    ``(K, P) @ (K,)`` GEMV, delta encode/decode, error-feedback folds and
    :meth:`~repro.fl.FederatedServer.alpha_portion_sync` are whole-model
    vector ops, and pickling (:meth:`FlatState.__reduce__`) ships the one
    buffer across process boundaries instead of a dict of arrays.

Every function here, in :mod:`repro.fl.privacy`, :mod:`repro.fl.server`,
:mod:`repro.fl.aggregation` and the wire codecs takes any ``name ->
ndarray`` mapping, packs it once at the door (:func:`as_flat_state`, a
pass-through for a state that already is flat) and has one body, over the
vector; whatever it returns is a :class:`FlatState`.

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
for the GEMV, bit for bit for the rest).

``sorted`` vs. state order
--------------------------
A layout preserves its source state's key order (the model's
``state_dict`` insertion order) so per-name RNG consumption — e.g. DP noise
draws — is unchanged.  The wire codecs flatten in *sorted* name order (the
PR 2 wire format); :meth:`StateLayout.sorted_permutation` provides the
cached gather indices between the two orders.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

State = Dict[str, np.ndarray]

#: One layout entry: ``(name, shape)``.
LayoutEntry = Tuple[str, Tuple[int, ...]]

# -- the frozen layout -----------------------------------------------------------


class StateLayout:
    """Frozen description of a model state: ordered names, shapes, offsets.

    Layouts are derived once per distinct ``(name, shape)`` sequence and
    interned (:meth:`of`), so every state of the same architecture shares
    one layout object and compatibility checks reduce to an identity (or
    cached set-equality) test instead of rebuilding ``set(state)`` per call.
    The intern table holds its layouts weakly: a layout lives as long as a
    state (or a caller) uses it, so a peer sending states with ever-new
    tensor names cannot grow the table without bound.
    """

    __slots__ = (
        "entries",
        "names",
        "shapes",
        "sizes",
        "offsets",
        "total_size",
        "entry_set",
        "_sorted_perm",
        "_sorted_schema",
        "_gather_cache",
        "_hash",
        "__weakref__",
    )

    _interned: "weakref.WeakValueDictionary[Tuple[LayoutEntry, ...], StateLayout]" = (
        weakref.WeakValueDictionary()
    )
    _intern_lock = threading.Lock()

    def __init__(self, entries: Tuple[LayoutEntry, ...]):
        names = tuple(name for name, _ in entries)
        if len(set(names)) != len(names):
            raise ValueError("layout entries contain duplicate names")
        self.entries = entries
        self.names = names
        self.shapes = tuple(shape for _, shape in entries)
        self.sizes = tuple(
            int(np.prod(shape, dtype=np.int64)) if shape else 1 for shape in self.shapes
        )
        offsets = [0]
        for size in self.sizes:
            offsets.append(offsets[-1] + size)
        self.total_size = offsets.pop()
        self.offsets = tuple(offsets)
        self.entry_set = frozenset(entries)
        self._sorted_perm: Optional[np.ndarray] = None
        self._sorted_schema: Optional[Tuple[LayoutEntry, ...]] = None
        # Keyed weakly by the source layout, which may die before this one.
        self._gather_cache: "weakref.WeakKeyDictionary[StateLayout, np.ndarray]" = (
            weakref.WeakKeyDictionary()
        )
        self._hash = hash(entries)

    # -- construction -----------------------------------------------------------
    @classmethod
    def of(cls, entries: Iterable[Tuple[str, Iterable[int]]]) -> "StateLayout":
        """The interned layout for an ``(name, shape)`` sequence."""
        key = tuple((str(name), tuple(int(dim) for dim in shape)) for name, shape in entries)
        layout = cls._interned.get(key)
        if layout is None:
            # The lock keeps interning atomic under the thread-pool execution
            # backend: two clients racing to intern the same architecture
            # agree on a single canonical layout object.
            with cls._intern_lock:
                layout = cls._interned.get(key)
                if layout is None:
                    layout = cls._interned[key] = cls(key)
        return layout

    @classmethod
    def from_state(cls, state: State) -> "StateLayout":
        """The layout of a state mapping, preserving its key order."""
        return cls.of((name, np.asarray(values).shape) for name, values in state.items())

    # -- iteration ----------------------------------------------------------------
    def iter_slots(self) -> Iterator[Tuple[str, Tuple[int, ...], int, int]]:
        """Yield ``(name, shape, offset, size)`` per entry, in layout order."""
        return zip(self.names, self.shapes, self.offsets, self.sizes)

    # -- sorted (wire) order ------------------------------------------------------
    def sorted_schema(self) -> Tuple[LayoutEntry, ...]:
        """The ``(name, shape)`` entries in sorted name order (wire schema)."""
        if self._sorted_schema is None:
            self._sorted_schema = tuple(sorted(self.entries))
        return self._sorted_schema

    def sorted_permutation(self) -> Optional[np.ndarray]:
        """Gather indices mapping this layout's vector to sorted name order.

        ``None`` when the layout already is in sorted order (the common case
        for codec-decoded states).  The returned array is cached and
        read-only.
        """
        if self.names == tuple(sorted(self.names)):
            return None
        if self._sorted_perm is None:
            index = {name: position for position, name in enumerate(self.names)}
            chunks = []
            for name in sorted(self.names):
                position = index[name]
                offset = self.offsets[position]
                chunks.append(np.arange(offset, offset + self.sizes[position], dtype=np.int64))
            perm = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            perm.setflags(write=False)
            self._sorted_perm = perm
        return self._sorted_perm

    # -- alignment with other layouts ---------------------------------------------
    def compatible_with(self, other: "StateLayout") -> bool:
        """Same names and shapes (order may differ)."""
        return self is other or self.entry_set == other.entry_set

    def gather_from(self, other: "StateLayout") -> np.ndarray:
        """Indices ``p`` such that ``other_vector[p]`` is in *this* order.

        Requires :meth:`compatible_with`; the permutation is cached per
        source layout for as long as that layout lives.
        """
        cached = self._gather_cache.get(other)
        if cached is not None:
            return cached
        if not self.compatible_with(other):
            raise ValueError("cannot align states with different names/shapes")
        position = {name: index for index, name in enumerate(other.names)}
        chunks = []
        for name, _, _, size in self.iter_slots():
            source = position[name]
            offset = other.offsets[source]
            chunks.append(np.arange(offset, offset + size, dtype=np.int64))
        perm = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        perm.setflags(write=False)
        self._gather_cache[other] = perm
        return perm

    # -- views --------------------------------------------------------------------
    def view_dict(self, vector: np.ndarray) -> State:
        """A plain dict of zero-copy views into ``vector`` (layout order)."""
        return {
            name: vector[offset : offset + size].reshape(shape)
            for name, shape, offset, size in self.iter_slots()
        }

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, StateLayout) and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Re-interned on the receiving side; the caches are not shipped.
        return (StateLayout.of, (self.entries,))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateLayout({len(self.entries)} tensors, {self.total_size} values)"


# -- the flat state --------------------------------------------------------------


class FlatState(dict):
    """A model state backed by one contiguous float64 buffer.

    Behaves exactly like the ``name -> ndarray`` dicts the algorithms have
    always consumed — every value is a zero-copy view into :attr:`vector`,
    so reading is free and assigning to an existing name writes through to
    the buffer.  The key set is frozen (adding/removing entries would desync
    the views from the buffer and raises ``ValueError``).
    """

    __slots__ = ("layout", "vector")

    def __init__(self, layout: StateLayout, vector: np.ndarray):
        vector = np.asarray(vector)
        if vector.dtype != np.float64:
            vector = vector.astype(np.float64)
        if vector.ndim != 1 or vector.size != layout.total_size:
            raise ValueError(
                f"vector of size {vector.size} does not match layout "
                f"({layout.total_size} values)"
            )
        if not vector.flags.c_contiguous:
            vector = np.ascontiguousarray(vector)
        self.layout = layout
        self.vector = vector
        dict.__init__(self, layout.view_dict(vector))

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_items(cls, items: Iterable[Tuple[str, np.ndarray]]) -> "FlatState":
        """Pack ``(name, array)`` pairs into a fresh flat state (one copy)."""
        pairs = [(name, np.asarray(values)) for name, values in items]
        layout = StateLayout.of((name, values.shape) for name, values in pairs)
        flat = cls(layout, np.empty(layout.total_size, dtype=np.float64))
        for name, values in pairs:
            np.copyto(dict.__getitem__(flat, name), values)
        return flat

    @classmethod
    def from_state(cls, state: State) -> "FlatState":
        """Pack an existing state mapping (key order preserved)."""
        if isinstance(state, FlatState):
            return FlatState(state.layout, state.vector.copy())
        return cls.from_items(state.items())

    # -- mutation guard rails ----------------------------------------------------
    def __setitem__(self, name: str, value) -> None:
        view = dict.get(self, name)
        if view is None:
            raise ValueError(
                f"cannot add entry {name!r}: a FlatState's key set is frozen by its layout"
            )
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(
                f"cannot assign shape {value.shape} to entry {name!r} of shape {view.shape}"
            )
        np.copyto(view, value)

    def update(self, other=(), **kwargs) -> None:  # type: ignore[override]
        items = other.items() if isinstance(other, dict) else other
        for name, value in items:
            self[name] = value
        for name, value in kwargs.items():
            self[name] = value

    def _frozen(self, *_args, **_kwargs):
        raise ValueError("a FlatState's key set is frozen by its layout")

    __delitem__ = _frozen
    pop = _frozen
    popitem = _frozen
    clear = _frozen
    setdefault = _frozen

    # -- process-boundary hand-off ----------------------------------------------
    def __reduce__(self):
        # Ship the one contiguous buffer plus the tiny (name, shape) key —
        # not a dict of per-tensor arrays.  The layout is re-interned on the
        # receiving side, so all states of one architecture share it there
        # too.
        return (_restore_flat_state, (self.layout.entries, self.vector))


def _restore_flat_state(entries: Tuple[LayoutEntry, ...], vector: np.ndarray) -> FlatState:
    return FlatState(StateLayout.of(entries), vector)


# -- conversion points -----------------------------------------------------------


def as_flat_state(state: State) -> FlatState:
    """``state`` itself when already flat, else packed into a :class:`FlatState`."""
    if isinstance(state, FlatState):
        return state
    return FlatState.from_state(state)


def flat_model_state(model) -> FlatState:
    """A model's state as a flat state: one (cast) copy of its packed vector.

    The model's ``[parameters | buffers]`` vector (:attr:`repro.nn.Module.flat`)
    is laid out in ``state_dict`` order, so this is value-identical to
    :meth:`repro.nn.Module.state_dict` (same names, same order, same
    float64 values).
    """
    return FlatState(model_layout(model), model.flat.vector.astype(np.float64))


#: packed vectors -> their layout, held as long as the model's packing lives.
_MODEL_LAYOUTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def model_layout(model) -> StateLayout:
    """The layout of ``model``'s packed vector, ``state_dict`` order.

    The model's packing holds it, so a lent model's layout (and the gather
    caches it carries) outlives the states it exports.
    """
    flat = model.flat
    layout = _MODEL_LAYOUTS.get(flat)
    if layout is None:
        layout = _MODEL_LAYOUTS[flat] = StateLayout.of(flat.entries)
    return layout


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

