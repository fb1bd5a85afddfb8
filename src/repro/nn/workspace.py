"""Layer workspaces for the training hot path, lent from one scratch pool per thread.

Every training step used to reallocate the same large temporaries — the
padded input, the im2col ``cols`` matrix, the input gradient's
channels-last tap product and accumulator, matmul staging buffers — once
per layer per step.  For the model sizes of the paper those
allocations dominate the step wall-clock (fresh multi-megabyte buffers are
served by the allocator as new pages, so the first write of every step pays
page faults).

A :class:`Workspace` is a layer's (or loss's) set of named scratch buffers
keyed by ``(tag, shape, dtype)``.  Because the batch shape is fixed across
a training run, every step after the first reuses the same warm pages via
``out=`` kwargs instead of reallocating.

Lend and release
----------------
Scratch belongs to whoever is computing, not to a client.  Each thread has
one **free pool** of buffers keyed by ``(shape, dtype)``; a workspace miss
takes a matching buffer from the calling thread's pool and allocates only
when there is none, and :meth:`repro.nn.Module.release_workspaces` — called
wherever local computation ends (``LocalTrainer.train_steps`` /
``evaluate_loss``, ``predict_dataset``) — hands every buffer back.  Nine
clients trained one after another therefore share one client's worth of
warm pages instead of keeping nine.  The pool is thread-local state of this
module: one per worker thread on the thread backend, one per joiner
process on the process backend.  It holds at most one buffer per distinct
``(shape, dtype)`` per simultaneous holder, and is never trimmed.

Aliasing rules (see ``docs/performance.md``)
--------------------------------------------
* A workspace buffer is **internal scratch**: it may be handed out only for
  values that are consumed before the owning layer's next ``forward`` /
  ``backward`` call (the im2col cache consumed by ``backward``, matmul
  staging, the padded input).
* Arrays **returned** from a layer (outputs, input gradients) are always
  freshly allocated — callers may keep them across steps (e.g.
  ``predict_dataset`` collects per-batch outputs), so they must never alias
  a workspace.
* Between two release points a layer owns its buffers exclusively: a buffer
  is either in exactly one workspace or in exactly one thread's pool, and a
  release also forgets the owner's backward cache, so nothing keeps reading
  a buffer that has been lent on.

Buffer reuse never changes an IEEE operation, only where the result lands:
``tests/nn`` compares a warm, recycled layer bit for bit with a cold copy —
the same weights on an emptied pool, where every buffer is a first
allocation.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

import numpy as np


class _FreePool(threading.local):
    """Per-thread free lists of released buffers, by ``(shape, dtype)``."""

    def __init__(self):
        self.free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}


_POOL = _FreePool()


def _nbytes(buffers: Iterable[np.ndarray]) -> int:
    return sum(buffer.nbytes for buffer in buffers)


def pool_nbytes() -> int:
    """Bytes parked in the calling thread's free pool."""
    return _nbytes(buffer for free in _POOL.free.values() for buffer in free)


def release_scratch(owner, pool: bool = True) -> None:
    """End ``owner``'s hold on its scratch: buffers pooled (or dropped), cache reset.

    ``owner`` is a module; one without a ``_ws`` workspace is left alone.
    Its ``_cache`` may reference the buffers just given away, so it
    is reset: a ``backward`` without a new ``forward`` raises the usual
    "called before forward" error instead of reading lent-on memory.
    """
    workspace = getattr(owner, "_ws", None)
    if workspace is not None:
        workspace.clear(pool=pool)
        owner._cache = None


class Workspace:
    """The scratch buffers one layer (or loss) holds between two release points.

    ``get`` returns the buffer for ``(tag, shape, dtype)``, on a miss taking
    one of that ``(shape, dtype)`` from the thread's free pool or, failing
    that, allocating it; ``zeros`` additionally guarantees the buffer was
    zero-filled **when it was acquired** (callers rely on untouched regions
    staying zero — e.g. the padding border of a padded-input buffer, whose
    interior is rewritten every step while the border is written only
    once).  A recycled buffer is therefore re-zeroed: it may come from a
    layer with a different border.

    A workspace intentionally does not survive pickling or copying: a
    client's model template travels to forked or spawned joiners with the
    roster, and each thread deep-copies the template into the model
    it lends (see :mod:`repro.fl.client`); warm scratch would only bloat
    both.  The receiving side re-grows its own buffers on first use.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: Dict[Tuple[str, Tuple[int, ...], np.dtype], np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The held buffer for ``(tag, shape, dtype)`` (acquired lazily, reused)."""
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._acquire(key, zeroed=False)
        return buffer

    def zeros(self, tag: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Like :meth:`get`, but the buffer is zero-filled when first acquired."""
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._acquire(key, zeroed=True)
        return buffer

    def _acquire(self, key, zeroed: bool) -> np.ndarray:
        """The miss path: recycle from the thread's pool, else allocate."""
        _, shape, dtype = key
        free = _POOL.free.get((shape, dtype))
        if free:
            buffer = free.pop()
            if zeroed:
                buffer.fill(0)
        else:
            buffer = (np.zeros if zeroed else np.empty)(shape, dtype=dtype)
        self._buffers[key] = buffer
        return buffer

    def clear(self, pool: bool = False) -> None:
        """Give up every buffer: dropped (a dtype switch), or parked in the thread's pool."""
        if pool:
            free = _POOL.free
            for (_, shape, dtype), buffer in self._buffers.items():
                free.setdefault((shape, dtype), []).append(buffer)
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Bytes of scratch currently held."""
        return _nbytes(self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    # -- pickling: never ship scratch across process boundaries -----------------
    def __reduce__(self):
        # A workspace unpickles empty: the receiving process re-grows its own
        # buffers on first use instead of shipping warm scratch around.
        return (Workspace, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workspace({len(self._buffers)} buffers, {self.nbytes} bytes)"
