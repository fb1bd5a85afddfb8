"""Random-number-generator helpers.

Every stochastic component of the library (netlist generators, placers,
model initialization, data shuffling, federated client sampling) receives an
explicit :class:`numpy.random.Generator`.  Nothing in the library touches the
global NumPy random state, which keeps experiments reproducible and lets
tests construct independent streams cheaply.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from a flexible seed.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def hash_str(text: str) -> int:
    """A stable (process-independent) string hash based on FNV-1a."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) % (2**64)
    return value

