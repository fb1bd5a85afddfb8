"""Module base class and containers for the NumPy neural-network substrate.

The substrate uses explicit layer-wise backpropagation rather than a tape
based autograd: every :class:`Module` implements ``forward`` (caching what it
needs) and ``backward`` (consuming the cache, accumulating parameter
gradients, and returning the gradient with respect to its input).  This keeps
the implementation small, easy to audit, and fast enough in NumPy for the
model sizes used by the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.dtypes import resolve_compute_dtype
from repro.nn.parameter import Parameter
from repro.nn.workspace import release_scratch


class Module:
    """Base class for all neural-network layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; the base class intercepts those assignments and registers them
    so that ``parameters()``, ``state_dict()`` and friends can traverse the
    full hierarchy without any bookkeeping in the subclasses.

    Every module carries a **compute dtype** (default ``float64``): the
    floating dtype its forward/backward arithmetic runs in.
    :meth:`set_compute_dtype` switches the whole hierarchy — parameters,
    gradients, and buffers included — in place; the ``state_dict`` /
    ``load_state_dict`` boundary always speaks ``float64`` regardless (see
    :mod:`repro.nn.dtypes`).
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_compute_dtype", np.dtype(np.float64))

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
        """Replace a registered buffer's contents (keeps registration in sync).

        Contents are kept in the module's compute dtype, so a float32
        model's running statistics never creep back up to float64 (which
        would silently upcast every downstream activation).
        """
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        array = np.asarray(array, dtype=self.compute_dtype)
        self._buffers[name] = array
        object.__setattr__(self, name, array)

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

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            full_name = f"{prefix}.{name}" if prefix else name
            yield full_name, buf
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_buffers(child_prefix)

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
        """Switch the whole hierarchy to ``dtype`` (float64 / float32), in place.

        Casts every parameter (with its gradient buffer) and every
        registered buffer, and drops the old-dtype scratch (it is not pooled:
        nothing would take it again).  A no-op when the hierarchy is already
        in ``dtype``, so callers may invoke it unconditionally on a hot path.
        """
        dtype = resolve_compute_dtype(dtype)
        for _, module in self.named_modules():
            if module.compute_dtype == dtype:
                continue
            object.__setattr__(module, "_compute_dtype", dtype)
            for param in module._parameters.values():
                param.to_dtype(dtype)
            for name in list(module._buffers):
                buffer = module._buffers[name]
                if buffer.dtype != dtype:
                    cast = buffer.astype(dtype)
                    module._buffers[name] = cast
                    object.__setattr__(module, name, cast)
            release_scratch(module, pool=False)
        return self

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
        """Pickle parameters and configuration, never a step's activations."""
        state = self.__dict__.copy()
        state.update((name, None) for name in self._ACTIVATIONS if name in state)
        return state

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
        """Reset all parameter gradients to zero."""
        for param in self.parameters():
            param.zero_grad()

    # -- state dict -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``name -> array copy`` mapping of parameters and buffers.

        States are always ``float64``, whatever the module's compute dtype:
        everything that leaves the model — aggregation, wire codecs,
        checkpoints — speaks float64, and a float32 model casts up exactly
        once here (and back down once in :meth:`load_state_dict`).
        """
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.astype(np.float64, copy=True)
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, dtype=np.float64, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter and buffer values from a flat mapping with exactly these keys."""
        own_params = dict(self.named_parameters())
        own_buffer_owners = self._buffer_owners()
        missing = []
        for name, param in own_params.items():
            if name in state:
                param.copy_(state[name])
            else:
                missing.append(name)
        for name, (owner, local_name) in own_buffer_owners.items():
            if name in state:
                owner.set_buffer(local_name, state[name])
            else:
                missing.append(name)
        unexpected = [key for key in state if key not in own_params and key not in own_buffer_owners]
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing keys {missing}, unexpected keys {unexpected}"
            )

    def _buffer_owners(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for name in self._buffers:
            full_name = f"{prefix}.{name}" if prefix else name
            owners[full_name] = (self, name)
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            owners.update(child._buffer_owners(child_prefix))
        return owners

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
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

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
