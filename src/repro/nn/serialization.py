"""Saving and loading model state dictionaries.

State dictionaries are flat ``name -> ndarray`` mappings (see
:meth:`repro.nn.Module.state_dict`), stored as ``.npz`` archives so they stay
portable and dependency-free.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.utils.files import atomic_write

PathLike = Union[str, Path]


def save_state_dict(state: Dict[str, np.ndarray], path: PathLike) -> Path:
    """Write a state dictionary to ``path`` (``.npz`` appended if missing).

    The write is **atomic** (:func:`repro.utils.files.atomic_write`): a
    crash mid-save leaves either the previous complete archive or the new
    one, never a partial write.  This is what makes checkpoint directories
    safe to resume from after a hard kill.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as handle:
        np.savez(handle, **{key: np.asarray(value) for key, value in state.items()})
    return path


def load_state_dict(path: PathLike) -> Dict[str, np.ndarray]:
    """Read a state dictionary previously written by :func:`save_state_dict`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no state dict found at {path}")
    with np.load(path) as archive:
        return {key: archive[key].copy() for key in archive.files}

