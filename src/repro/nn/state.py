"""A model state: the one thing a client ever shares.

A "state" is the ``name -> ndarray`` mapping :meth:`repro.nn.Module.state_dict`
exports, held as a :class:`FlatState`.  Its layout is the model's own: a
packed model's vectors (:attr:`repro.nn.Module.flat`) are laid out by the
same interned :class:`StateLayout` its exported states carry.

:class:`StateLayout`
    A frozen layout — ordered names, shapes, per-entry offsets into one
    flat vector — derived once per distinct architecture and interned, so
    every state of a model, and the model itself, share one layout
    *object*.
:class:`FlatState`
    A ``dict`` subclass whose values are **zero-copy views** into one
    contiguous float64 ``vector``.  Code keeps indexing ``state[name]``
    (the dict API is the thin view), while whole-state arithmetic
    (:mod:`repro.fl.parameters`) reaches straight for ``state.vector``, and
    pickling (:meth:`FlatState.__reduce__`) ships the one buffer instead of
    a dict of arrays.

``sorted`` vs. state order
--------------------------
A layout preserves its source state's key order (the model's ``state_dict``
order) so per-name RNG consumption — e.g. DP noise draws — is unchanged.
The wire codecs flatten in *sorted* name order (the wire format);
:meth:`StateLayout.sorted_permutation` provides the cached gather indices
between the two orders.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, Iterator, Optional, Tuple

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


def as_flat_state(state: State) -> FlatState:
    """``state`` itself when already flat, else packed into a :class:`FlatState`."""
    if isinstance(state, FlatState):
        return state
    return FlatState.from_state(state)
