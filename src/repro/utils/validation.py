"""Small argument-validation helpers used across the library.

These helpers raise ``ValueError`` with consistent, descriptive messages so
call sites stay one line long and error messages stay uniform.
"""

from __future__ import annotations

from typing import Sequence, Union

Number = Union[int, float]


def check_positive(name: str, value: Number, allow_zero: bool = False) -> Number:
    """Validate ``value > 0`` (``>= 0`` if ``allow_zero``); like every check here, NaN fails."""
    if allow_zero:
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_probability(name: str, value: Number) -> Number:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: Number, low: Number, high: Number, ends: str = "[]") -> Number:
    """Validate that ``value`` lies between ``low`` and ``high``; ``ends`` is interval
    notation (``"(]"`` excludes ``low``; ``"[)"`` up to ``math.inf`` means finite)."""
    above = value > low if ends[0] == "(" else value >= low
    below = value < high if ends[1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{name} must be in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return value


def check_choice(name: str, value: str, choices: Sequence[str]) -> str:
    """Validate that ``value`` is one of ``choices`` (list ``None`` there to allow it)."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {list(choices)}, got {value!r}")
    return value
