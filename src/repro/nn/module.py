"""Module base class and containers for the NumPy neural-network substrate.

The substrate uses explicit layer-wise backpropagation rather than a tape
based autograd: every :class:`Module` implements ``forward`` (caching what it
needs) and ``backward`` (consuming the cache, accumulating parameter
gradients, and returning the gradient with respect to its input).  This keeps
the implementation small, easy to audit, and fast enough in NumPy for the
model sizes used by the paper.

A model is one vector
---------------------
Every module is **packed** as its constructor returns (:meth:`Module.pack`;
the layers a model builds in its own constructor are packed with it):
its parameters and buffers are copied into one contiguous
``[parameters | buffers]`` vector of the compute dtype, in ``state_dict``
order (the order of :func:`repro.fl.parameters.flat_model_state`), and the
gradients into one matching ``(P,)`` vector.  Every ``Parameter.data``,
every ``.grad`` and every buffer is a view into these two vectors
(:attr:`Module.flat`), so a client task's per-model bookkeeping is a few
passes over them: ``zero_grad`` is one fill, ``load_state_dict`` one copy
(entry by entry for a state in another order), the exported state one
cast copy, and an optimizer steps the parameter run in cache-sized blocks
(:mod:`repro.nn.optim`).  An enclosing module packs its children anew, so
only the outermost module (the model) holds vectors; a layer of it has
none and refuses the whole-model operations.

Layers write parameters, gradients and buffers in place (``+=``,
``set_buffer``), never rebind them.  The packing survives
``copy.deepcopy``, pickling (the vectors travel once, and the views are
rebuilt on load) and :meth:`Module.set_compute_dtype` (which packs anew in
the new dtype).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.dtypes import resolve_compute_dtype
from repro.nn.parameter import Parameter, bind_parameter
from repro.nn.workspace import release_scratch

#: One packed entry: ``(name, shape)``.
Entry = Tuple[str, Tuple[int, ...]]


class FlatModel:
    """A packed model's two vectors.

    ``vector`` holds the parameters then the buffers, one entry after the
    other in ``entries`` order; ``grad`` holds the parameters' gradients
    (its size is the parameter count ``P``, and ``vector[:P]`` is the
    parameter run).  ``views`` are the entries' views into ``vector``.
    Pickling ships the entries and the two vectors; the model that holds
    them rebuilds the views.
    """

    __slots__ = ("entries", "vector", "grad", "views", "__weakref__")

    def __init__(self, entries: Tuple[Entry, ...], vector: np.ndarray, grad: np.ndarray, views=()):
        self.entries = entries
        self.vector = vector
        self.grad = grad
        self.views = tuple(views)

    def __reduce__(self):
        return (FlatModel, (self.entries, self.vector, self.grad))


class _Builds(threading.local):
    """How deep the calling thread is in nested module constructors."""

    depth = 0


_BUILDS = _Builds()


class _PackedOnBuild(type):
    """Packs a module as the outermost constructor returns (see :meth:`Module.pack`).

    The layers a model builds in its constructor are packed once, with the
    model, rather than once per level of nesting.
    """

    def __call__(cls, *args, **kwargs):
        depth = _BUILDS.depth
        _BUILDS.depth = depth + 1
        try:
            module = super().__call__(*args, **kwargs)
        finally:
            _BUILDS.depth = depth
        if depth == 0:
            module.pack()
        return module


class Module(metaclass=_PackedOnBuild):
    """Base class for all neural-network layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; the base class intercepts those assignments and registers them
    so that ``parameters()``, ``state_dict()`` and friends can traverse the
    full hierarchy without any bookkeeping in the subclasses.

    Every module carries a **compute dtype** (default ``float64``): the
    floating dtype its forward/backward arithmetic runs in.
    :meth:`set_compute_dtype` switches the whole hierarchy — parameters,
    gradients, and buffers included — by packing it anew; the
    ``state_dict`` / ``load_state_dict`` boundary always speaks ``float64``
    regardless (see :mod:`repro.nn.dtypes`).
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_compute_dtype", np.dtype(np.float64))
        object.__setattr__(self, "_flat", None)

    # -- registration -----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register a non-trainable persistent array (e.g. BatchNorm running stats)."""
        array = np.asarray(array, dtype=self.compute_dtype)
        self._buffers[name] = array
        object.__setattr__(self, name, array)
        return array

    def set_buffer(self, name: str, array: np.ndarray) -> None:
        """Overwrite a registered buffer's contents in place (it is a view of the model's vector).

        Contents are cast to the buffer's dtype, the module's compute dtype,
        so a float32 model's running statistics never creep back up to
        float64 (which would silently upcast every downstream activation).
        """
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        np.copyto(self._buffers[name], array, casting="same_kind")

    def add_module(self, name: str, module: "Module") -> "Module":
        """Explicitly register a child module."""
        self._modules[name] = module
        object.__setattr__(self, name, module)
        return module

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- traversal ----------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            full_name = f"{prefix}.{name}" if prefix else name
            yield full_name, param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self) -> Iterator[Tuple[str, np.ndarray]]:
        for owner, local, name in self._buffer_slots():
            yield name, owner._buffers[local]

    def buffers(self) -> List[np.ndarray]:
        return [buf for _, buf in self.named_buffers()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(param.size for param in self.parameters())

    # -- compute dtype --------------------------------------------------------
    @property
    def compute_dtype(self) -> np.dtype:
        """The floating dtype this module's arithmetic runs in."""
        return getattr(self, "_compute_dtype", np.dtype(np.float64))

    def set_compute_dtype(self, dtype) -> "Module":
        """Switch the whole hierarchy to ``dtype`` (float64 / float32).

        Packs the model anew in ``dtype`` (parameters, gradients and
        buffers cast once, into new vectors) and drops the old-dtype scratch
        (it is not pooled: nothing would take it again).  A no-op when the
        hierarchy is already in ``dtype``, so callers may invoke it
        unconditionally on a hot path.
        """
        dtype = resolve_compute_dtype(dtype)
        changed = [module for _, module in self.named_modules() if module.compute_dtype != dtype]
        if not changed:
            return self
        self.flat  # a layer of a packed model would be cut off from it
        for module in changed:
            object.__setattr__(module, "_compute_dtype", dtype)
            release_scratch(module, pool=False)
        return self.pack()

    # -- the packed vectors -------------------------------------------------------
    @property
    def flat(self) -> FlatModel:
        """This model's packed vectors (see the module docstring)."""
        flat = self._flat
        if flat is None:
            raise RuntimeError(
                f"{type(self).__name__} is a layer of a packed model: "
                "whole-model operations belong to the model"
            )
        return flat

    def pack(self) -> "Module":
        """Copy the hierarchy into fresh ``[parameters | buffers]`` and gradient vectors.

        The vectors take the compute dtype; afterwards every parameter,
        gradient and buffer is a view into them, and no module below this
        one holds vectors of its own.  Called as every module's constructor
        returns, and by :meth:`set_compute_dtype`.
        """
        named = list(self.named_parameters())
        slots = list(self._buffer_slots())
        buffers = [owner._buffers[local] for owner, local, _ in slots]
        entries = tuple((name, param.data.shape) for name, param in named) + tuple(
            (name, buffer.shape) for (_, _, name), buffer in zip(slots, buffers)
        )
        values = [param.data for _, param in named] + buffers
        grads = [param.grad for _, param in named]
        num_params = sum(param.size for _, param in named)
        total = num_params + sum(buffer.size for buffer in buffers)
        dtype = self.compute_dtype
        self._bind(entries, np.empty(total, dtype=dtype), np.zeros(num_params, dtype=dtype))
        for view, old in zip(self._flat.views, values):
            np.copyto(view, old, casting="same_kind")
        for (_, param), old in zip(named, grads):
            if old.any():  # a new model's zero gradients need no copy (nor its page faults)
                np.copyto(param.grad, old, casting="same_kind")
        return self

    def _bind(self, entries: Tuple[Entry, ...], vector: np.ndarray, grad: np.ndarray) -> None:
        """Point every parameter, gradient and buffer at its slot of ``vector`` / ``grad``."""
        named = list(self.named_parameters())
        views = []
        offset = 0
        for (_, param), (_, shape) in zip(named, entries):
            offset = bind_parameter(param, vector, grad, offset, shape)
            views.append(param.data)
        for (owner, local, _), (_, shape) in zip(self._buffer_slots(), entries[len(named) :]):
            end = offset + int(np.prod(shape, dtype=np.int64))
            view = vector[offset:end].reshape(shape)
            owner._buffers[local] = view
            object.__setattr__(owner, local, view)
            views.append(view)
            offset = end
        for _, module in self.named_modules():
            object.__setattr__(module, "_flat", None)
        object.__setattr__(self, "_flat", FlatModel(entries, vector, grad, views))

    def release_workspaces(self) -> None:
        """Hand every layer's scratch back to the calling thread's pool.

        Called where local computation ends, so the next model to train on
        this thread reuses the same warm buffers (see
        :mod:`repro.nn.workspace`).  Each releasing layer also forgets its
        backward cache: ``backward`` needs a new ``forward`` first.
        """
        for _, module in self.named_modules():
            release_scratch(module)

    # -- pickling ---------------------------------------------------------------
    #: What a ``forward`` leaves behind for its ``backward``.
    _ACTIVATIONS = ("_cache", "_mask", "_output", "_input", "_input_shape")

    def __getstate__(self) -> Dict[str, object]:
        """Pickle parameters and configuration, never a step's activations.

        A packed buffer travels in its model's vector, not here.
        """
        state = self.__dict__.copy()
        state.update((name, None) for name in self._ACTIVATIONS if name in state)
        packed = [name for name, buffer in self._buffers.items() if buffer.base is not None]
        if packed:
            state["_buffers"] = OrderedDict(self._buffers)
            for name in packed:
                state["_buffers"][name] = state[name] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore; a model rebuilds its views into the vectors it arrived with."""
        self.__dict__.update(state)
        flat = self._flat
        if flat is not None:
            self._bind(flat.entries, flat.vector, flat.grad)

    # -- training state ------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set the module (and all children) to training or evaluation mode."""
        object.__setattr__(self, "training", bool(mode))
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set the module (and all children) to evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset all parameter gradients to zero: one fill of the gradient vector."""
        self.flat.grad.fill(0.0)

    # -- state dict -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``name -> array copy`` mapping of parameters and buffers.

        States are always ``float64``, whatever the module's compute dtype:
        everything that leaves the model — aggregation, wire codecs,
        checkpoints — speaks float64, and a float32 model casts up exactly
        once here (and back down once in :meth:`load_state_dict`).
        """
        flat = self.flat
        return OrderedDict(
            (name, np.array(view, dtype=np.float64)) for (name, _), view in zip(flat.entries, flat.views)
        )

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load every parameter and buffer from a mapping with exactly these names and shapes.

        The mapping is checked in full before anything is written: a missing
        or unexpected name raises ``KeyError``, a wrong shape ``ValueError``,
        and the model is left as it was.  A flat state in this model's own
        layout (a :class:`repro.fl.parameters.FlatState` carries ``layout``
        and ``vector``) loads with one copy of its vector; any other mapping
        — a flat state in sorted (wire) order, a plain dict — entry by entry,
        with no state-sized temporary.  Values are cast to the compute dtype.
        """
        flat = self.flat
        layout = getattr(state, "layout", None)
        if layout is not None and layout.entries == flat.entries:
            np.copyto(flat.vector, state.vector, casting="same_kind")
            return
        expected = dict(flat.entries)
        missing = [name for name in expected if name not in state]
        unexpected = [name for name in state if name not in expected]
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing keys {missing}, unexpected keys {unexpected}")
        wrong = [
            f"{name} {np.shape(state[name])} != {shape}"
            for name, shape in flat.entries
            if np.shape(state[name]) != shape
        ]
        if wrong:
            raise ValueError(f"state dict shape mismatch: {', '.join(wrong)}")
        for (name, _), view in zip(flat.entries, flat.views):
            np.copyto(view, state[name], casting="same_kind")

    def _buffer_slots(self, prefix: str = "") -> Iterator[Tuple["Module", str, str]]:
        """``(owner, local name, full name)`` per buffer, in ``named_buffers`` order."""
        for name in self._buffers:
            yield self, name, f"{prefix}.{name}" if prefix else name
        for name, child in self._modules.items():
            yield from child._buffer_slots(f"{prefix}.{name}" if prefix else name)

    # -- introspection ---------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_lines = [f"  ({name}): {child!r}" for name, child in self._modules.items()]
        body = "\n".join(child_lines)
        header = self.__class__.__name__
        return f"{header}(\n{body}\n)" if body else f"{header}()"


class Sequential(Module):
    """A container that chains modules in order.

    ``backward`` propagates gradients through the children in reverse order.
    """

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        """Add ``module`` at the end and pack anew (call it on a container being built)."""
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self.pack()

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for name in reversed(self._order):
            grad_output = self._modules[name].backward(grad_output)
        return grad_output


class Identity(Module):
    """A no-op module, occasionally useful as a placeholder branch."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
