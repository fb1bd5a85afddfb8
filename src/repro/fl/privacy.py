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
  accumulated budget to an (epsilon, delta) guarantee;
* a **secure-aggregation simulation**: pairwise additive masks that cancel
  in the server's sum, so the developer only ever observes the aggregate of
  the clients' (weighted) updates, never an individual update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    check_compatible,
    clone_state,
    flat_pair,
    state_norm,
    zeros_like_state,
)
from repro.utils.rng import new_rng


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


def state_update(reference: State, new_state: State) -> State:
    """The model update ``new_state - reference`` a client would transmit.

    Flat states subtract their contiguous buffers in one pass — the hot
    path of delta-encoded uploads — and are bit-identical to the per-name
    dict loop (same elementwise operations, same element order).
    """
    check_compatible([reference, new_state])
    pair = flat_pair(reference, new_state)
    if pair is not None:
        layout, reference_vector, new_vector = pair
        return FlatState(layout, new_vector - reference_vector)
    return {name: new_state[name] - reference[name] for name in reference}


def apply_update(reference: State, update: State) -> State:
    """Re-apply a (possibly clipped / noisy) update onto the reference state."""
    check_compatible([reference, update])
    pair = flat_pair(reference, update)
    if pair is not None:
        layout, reference_vector, update_vector = pair
        return FlatState(layout, reference_vector + update_vector)
    return {name: reference[name] + update[name] for name in reference}


def clip_update(update: State, clip_norm: float) -> Tuple[State, float]:
    """Scale ``update`` so its global L2 norm is at most ``clip_norm``.

    Returns the clipped update and the pre-clipping norm.
    """
    if clip_norm <= 0:
        raise ValueError(f"clip_norm must be positive, got {clip_norm}")
    norm = state_norm(update)
    if norm <= clip_norm or norm == 0.0:
        return clone_state(update), norm
    scale = clip_norm / norm
    if isinstance(update, FlatState):
        return FlatState(update.layout, update.vector * scale), norm
    return {name: values * scale for name, values in update.items()}, norm


def add_gaussian_noise(state: State, sigma: float, rng: np.random.Generator) -> State:
    """Add element-wise Gaussian noise of standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        return clone_state(state)
    if isinstance(state, FlatState):
        # One draw over the contiguous buffer.  ``Generator.normal`` fills
        # its output sequentially, so this consumes the identical stream as
        # per-name draws in state order — the dict path below — and the two
        # stay bit-identical (guarded by a test).
        noise = rng.normal(0.0, sigma, size=state.layout.total_size)
        return FlatState(state.layout, state.vector + noise)
    return {name: values + rng.normal(0.0, sigma, size=values.shape) for name, values in state.items()}


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

    def epsilon(self, delta: Optional[float] = None) -> float:
        """Epsilon after the recorded rounds (``inf`` when noise is disabled)."""
        delta = delta if delta is not None else self.config.delta
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if self.steps == 0:
            return 0.0
        if not self.config.enabled:
            return float("inf")
        return self.rho + 2.0 * math.sqrt(self.rho * math.log(1.0 / delta))

    def summary(self) -> Dict[str, float]:
        return {
            "rounds": float(self.steps),
            "rho": float(self.rho),
            "epsilon": float(self.epsilon()),
            "delta": float(self.config.delta),
            "noise_multiplier": float(self.config.noise_multiplier),
            "clip_norm": float(self.config.clip_norm),
        }


class SecureAggregationSession:
    """Pairwise-mask secure aggregation (simulation).

    Every ordered client pair ``(i, j)`` with ``i < j`` derives a shared mask
    from a common seed; client ``i`` adds the mask to its weighted update and
    client ``j`` subtracts it.  Individual masked updates look like noise to
    the server, but their sum equals the sum of the weighted updates exactly,
    so the aggregate (and only the aggregate) is recoverable.
    """

    def __init__(self, client_ids: Sequence[int], template: State, seed: int = 0):
        if len(set(client_ids)) != len(client_ids):
            raise ValueError("client ids must be unique")
        if len(client_ids) < 2:
            raise ValueError("secure aggregation needs at least two clients")
        self.client_ids = list(client_ids)
        self.template = zeros_like_state(template)
        self.seed = int(seed)
        self._submitted: Dict[int, State] = {}
        self._weights: Dict[int, float] = {}

    def _pair_mask(self, low: int, high: int) -> State:
        rng = new_rng(np.random.SeedSequence([self.seed, low, high, 0x5EC]))
        return {
            name: rng.normal(0.0, 1.0, size=values.shape)
            for name, values in self.template.items()
        }

    def masked_update(self, client_id: int, update: State, weight: float = 1.0) -> State:
        """What ``client_id`` sends: its weighted update plus pairwise masks."""
        if client_id not in self.client_ids:
            raise ValueError(f"unknown client id {client_id}")
        if weight <= 0:
            raise ValueError("weight must be positive")
        check_compatible([self.template, update])
        masked = {name: weight * values for name, values in update.items()}
        for other in self.client_ids:
            if other == client_id:
                continue
            low, high = min(client_id, other), max(client_id, other)
            mask = self._pair_mask(low, high)
            sign = 1.0 if client_id == low else -1.0
            for name in masked:
                masked[name] = masked[name] + sign * mask[name]
        return masked

    def submit(self, client_id: int, update: State, weight: float = 1.0) -> State:
        """Mask, record, and return the client's contribution."""
        masked = self.masked_update(client_id, update, weight)
        self._submitted[client_id] = masked
        self._weights[client_id] = float(weight)
        return masked

    def aggregate(self) -> State:
        """The weighted-average update recovered from all masked contributions."""
        missing = [cid for cid in self.client_ids if cid not in self._submitted]
        if missing:
            raise RuntimeError(f"clients {missing} have not submitted; masks would not cancel")
        total_weight = sum(self._weights.values())
        summed = zeros_like_state(self.template)
        for masked in self._submitted.values():
            for name in summed:
                summed[name] = summed[name] + masked[name]
        return {name: values / total_weight for name, values in summed.items()}


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
    def num_updates(self) -> int:
        return len(self.raw_norms)

    @property
    def clipped_fraction(self) -> float:
        if not self.raw_norms:
            return 0.0
        return self.clipped_fraction_hits / len(self.raw_norms)

    def median_norm(self) -> float:
        if not self.raw_norms:
            return 0.0
        return float(np.median(self.raw_norms))
