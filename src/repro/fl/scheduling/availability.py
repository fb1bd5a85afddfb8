"""Per-client availability models driven by the virtual clock.

Cross-device clients come and go: phones charge at night, edge boxes reboot,
networks drop.  An :class:`AvailabilityModel` answers one question — *is this
client reachable right now?* — as a deterministic function of the client,
the virtual-clock time, and (for the stochastic model) a seeded private RNG
whose state is checkpointable.

Queries are made once per scheduling decision, in roster order, in the
coordinating process, so availability is bit-reproducible across execution
backends and across checkpoint resume.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

#: Seed-stream tag reserved for availability RNGs (mixed into the run seed).
AVAILABILITY_SEED_TAG = 0xA7B1

#: Availability model names understood by :func:`create_availability`.
AVAILABILITY_CHOICES = ("always", "bernoulli", "daynight")

#: Fractional part of the golden ratio; spreads per-client phases evenly.
_GOLDEN = 0.6180339887498949


class AvailabilityModel:
    """Interface of every availability model."""

    #: Registry / CLI name, overridden by subclasses.
    name: str = "base"

    def available(self, client_index: int, client_id: int, now: float) -> bool:
        """Whether the client can be dispatched at virtual time ``now``."""
        raise NotImplementedError

    def state(self) -> Dict[str, object]:
        """JSON-serializable snapshot for checkpointing (RNG state, if any)."""
        return {}

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state`."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}({self.describe()})"


class AlwaysAvailable(AvailabilityModel):
    """Every client is reachable at every instant (the default)."""

    name = "always"

    def available(self, client_index: int, client_id: int, now: float) -> bool:
        return True


class BernoulliAvailability(AvailabilityModel):
    """Each availability query succeeds independently with probability ``rate``.

    Models sporadic, memoryless dropout (flaky links, devices wandering in
    and out of charge).  Draws come from a private seeded RNG, one draw per
    query, so the sequence is deterministic given the query order.
    """

    name = "bernoulli"

    def __init__(self, rate: float = 0.9, seed: int = 0):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"availability rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self._rng = np.random.default_rng(np.random.SeedSequence([self.seed, AVAILABILITY_SEED_TAG]))

    def available(self, client_index: int, client_id: int, now: float) -> bool:
        return bool(self._rng.random() < self.rate)

    def state(self) -> Dict[str, object]:
        return {"rng": self._rng.bit_generator.state}

    def set_state(self, state: Dict[str, object]) -> None:
        if "rng" in state:
            self._rng.bit_generator.state = state["rng"]

    def describe(self) -> str:
        return f"{self.name}({self.rate:g})"


class DayNightAvailability(AvailabilityModel):
    """Deterministic day/night duty cycle with a per-client phase offset.

    Client ``k`` is available while
    ``(now + phase_k) mod period < duty_fraction * period``.  Phases are
    spread with the golden-ratio sequence so cohorts rotate through the
    population as the virtual clock advances instead of all clients
    appearing and vanishing together.
    """

    name = "daynight"

    def __init__(self, duty_fraction: float = 0.5, period: float = 86_400.0):
        if not 0.0 < duty_fraction <= 1.0:
            raise ValueError(f"duty_fraction must be in (0, 1], got {duty_fraction}")
        if period <= 0.0:
            raise ValueError(f"period must be positive, got {period}")
        self.duty_fraction = float(duty_fraction)
        self.period = float(period)

    def phase(self, client_index: int) -> float:
        return ((client_index * _GOLDEN) % 1.0) * self.period

    def available(self, client_index: int, client_id: int, now: float) -> bool:
        position = (now + self.phase(client_index)) % self.period
        return position < self.duty_fraction * self.period

    def describe(self) -> str:
        return f"{self.name}(duty={self.duty_fraction:g}, period={self.period:g})"


def create_availability(
    name: Optional[str],
    rate: float = 0.9,
    seed: int = 0,
) -> AvailabilityModel:
    """Instantiate an availability model by name (``None`` = always on)."""
    key = (name or "always").lower()
    if key == "always":
        return AlwaysAvailable()
    if key == "bernoulli":
        return BernoulliAvailability(rate=rate, seed=seed)
    if key == "daynight":
        return DayNightAvailability(duty_fraction=rate)
    raise ValueError(f"unknown availability model {name!r}; available: {AVAILABILITY_CHOICES}")
