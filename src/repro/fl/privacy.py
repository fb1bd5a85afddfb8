"""Privacy mechanisms for decentralized training.

The paper's footnote points at the standard federated-learning privacy
toolbox (differential privacy and secure aggregation) as orthogonal,
well-studied machinery.  This module implements that machinery so the
framework can be exercised end-to-end under a quantified privacy budget:

* **client-level differential privacy**: every model update a client sends
  is clipped to a maximum L2 norm and perturbed with Gaussian noise
  calibrated to that clip norm, the classic DP-FedAvg recipe;
* a **privacy accountant** that composes the per-round Gaussian mechanism
  through zero-concentrated differential privacy (zCDP) and converts the
  accumulated budget to an (epsilon, delta) guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    as_flat_state,
    clone_state,
    flat_pair,
    state_norm,
)


@dataclass(frozen=True)
class PrivacyConfig:
    """Client-level differential-privacy settings.

    Attributes
    ----------
    clip_norm:
        Maximum L2 norm of a client's per-round model update (its sensitivity).
    noise_multiplier:
        Standard deviation of the Gaussian noise divided by ``clip_norm``.
        Zero disables noise (clipping still applies).
    delta:
        Target delta of the reported (epsilon, delta) guarantee.
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 0.0
    delta: float = 1e-5

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.noise_multiplier < 0:
            raise ValueError(f"noise_multiplier must be non-negative, got {self.noise_multiplier}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def enabled(self) -> bool:
        """Whether the mechanism adds noise (clipping alone is not DP)."""
        return self.noise_multiplier > 0


def state_update(reference: State, new_state: State) -> FlatState:
    """The model update ``new_state - reference`` a client would transmit.

    One subtraction over the contiguous buffers — the hot path of
    delta-encoded uploads.
    """
    layout, reference_vector, new_vector = flat_pair(reference, new_state)
    return FlatState(layout, new_vector - reference_vector)


def apply_update(reference: State, update: State) -> FlatState:
    """Re-apply a (possibly clipped / noisy) update onto the reference state."""
    layout, reference_vector, update_vector = flat_pair(reference, update)
    return FlatState(layout, reference_vector + update_vector)


def clip_update(update: State, clip_norm: float) -> Tuple[FlatState, float]:
    """Scale ``update`` so its global L2 norm is at most ``clip_norm``.

    Returns the clipped update and the pre-clipping norm.
    """
    if clip_norm <= 0:
        raise ValueError(f"clip_norm must be positive, got {clip_norm}")
    update = as_flat_state(update)
    norm = state_norm(update)
    if norm <= clip_norm or norm == 0.0:
        return clone_state(update), norm
    scale = clip_norm / norm
    return FlatState(update.layout, update.vector * scale), norm


def add_gaussian_noise(state: State, sigma: float, rng: np.random.Generator) -> FlatState:
    """Add element-wise Gaussian noise of standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        return clone_state(state)
    state = as_flat_state(state)
    # One draw over the contiguous buffer.  ``Generator.normal`` fills its
    # output sequentially, so this consumes the identical stream as one draw
    # per tensor in state order would (guarded by a test).
    noise = rng.normal(0.0, sigma, size=state.layout.total_size)
    return FlatState(state.layout, state.vector + noise)


def privatize_update(
    reference: State,
    new_state: State,
    config: PrivacyConfig,
    rng: np.random.Generator,
) -> Tuple[State, float]:
    """Clip and noise a client's update before it leaves the client.

    Returns the privatized *state* (reference + noisy clipped update) and the
    norm of the raw update (a useful diagnostic for choosing ``clip_norm``).
    """
    update = state_update(reference, new_state)
    clipped, raw_norm = clip_update(update, config.clip_norm)
    sigma = config.noise_multiplier * config.clip_norm
    noisy = add_gaussian_noise(clipped, sigma, rng)
    return apply_update(reference, noisy), raw_norm


class GaussianAccountant:
    """zCDP accountant for repeated applications of the Gaussian mechanism.

    One application of the Gaussian mechanism with noise multiplier ``z``
    satisfies ``rho = 1 / (2 z^2)`` zCDP; ``T`` compositions add their
    ``rho``.  The (epsilon, delta) conversion is
    ``epsilon = rho + 2 sqrt(rho ln(1 / delta))``.
    """

    def __init__(self, config: PrivacyConfig):
        self.config = config
        self.rho = 0.0
        self.steps = 0

    def record_round(self, rounds: int = 1) -> None:
        """Account for ``rounds`` further applications of the mechanism."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not self.config.enabled:
            self.steps += rounds
            return
        z = self.config.noise_multiplier
        self.rho += rounds * 1.0 / (2.0 * z * z)
        self.steps += rounds

    def epsilon(self) -> float:
        """Epsilon at the configured delta after the recorded rounds (``inf`` when noise is disabled)."""
        if self.steps == 0:
            return 0.0
        if not self.config.enabled:
            return float("inf")
        return self.rho + 2.0 * math.sqrt(self.rho * math.log(1.0 / self.config.delta))

    def summary(self) -> Dict[str, float]:
        return {
            "rounds": float(self.steps),
            "rho": float(self.rho),
            "epsilon": float(self.epsilon()),
            "delta": float(self.config.delta),
            "noise_multiplier": float(self.config.noise_multiplier),
            "clip_norm": float(self.config.clip_norm),
        }


@dataclass
class PrivateUpdateLog:
    """Bookkeeping of privatized updates over a training run (for reports)."""

    raw_norms: List[float] = field(default_factory=list)
    clipped_fraction_hits: int = 0

    def record(self, raw_norm: float, clip_norm: float) -> None:
        self.raw_norms.append(float(raw_norm))
        if raw_norm > clip_norm:
            self.clipped_fraction_hits += 1

    @property
    def clipped_fraction(self) -> float:
        if not self.raw_norms:
            return 0.0
        return self.clipped_fraction_hits / len(self.raw_norms)
