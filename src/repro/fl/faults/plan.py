"""Deterministic, checkpointable fault injection.

A :class:`FaultPlan` decides — reproducibly — whether a given client task
fails this attempt, and how.  Each decision is drawn from a counter-based
RNG keyed ``[seed, FAULT_SEED_TAG, client_id, per-client draw counter]``,
the :class:`numpy.random.SeedSequence` idiom of the retry jitter (the
latency, availability and sampler models each draw from one sequential
stream instead):

* **order-independent** — the decision for client ``c``'s ``n``-th draw is
  the same no matter which backend ran the round or how tasks interleaved,
  so chaos runs are bit-reproducible across serial/thread/process;
* **checkpointable** — the per-client draw counters are the whole mutable
  state; :meth:`state`/:meth:`set_state` round-trip them so a resumed run
  replays exactly the faults the uninterrupted run would have seen.

Four fault kinds are supported, matching the injected-fault exception
vocabulary: ``crash``, ``exception``, ``timeout`` (all three strike
*before* the task runs, leaving the client's RNG untouched) and
``corruption`` (the task runs, then its upload bytes are flipped so the
CRC framing check rejects the payload at decode).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.utils.validation import check_probability

#: Domain-separation tag for fault draws (keeps fault randomness disjoint
#: from model init, sampling, availability, latency, and retry jitter).
FAULT_SEED_TAG = 0x4FA7

#: Fault kinds in cumulative-threshold order (the draw walks this order).
FAULT_KINDS = ("crash", "exception", "timeout", "corruption")


def check_rates(label: str, rates: Mapping[str, float]) -> None:
    """Validate ``{name: rate}``: each a probability, together at most 1.

    One draw injects at most one fault, so the rates share the unit interval.
    """
    for name, rate in rates.items():
        check_probability(name, rate)
    if sum(rates.values()) > 1.0 + 1e-12:
        raise ValueError(f"{label} rates must sum to at most 1, got {sum(rates.values()):g}")


@dataclass(frozen=True)
class FaultDecision:
    """One fault draw: the kind to inject (``None`` = healthy) and a salt.

    ``salt`` parameterizes the fault deterministically — for corruption it
    picks which byte of the payload (or wire frame) is flipped, for a wire
    ``delay`` it scales the hold time.
    """

    kind: Optional[str]
    salt: int = 0


class FaultPlan:
    """Seeded per-client fault probabilities with checkpointable counters.

    Parameters
    ----------
    crash_rate / exception_rate / timeout_rate / corruption_rate:
        Per-attempt probabilities, each in ``[0, 1]`` with a sum ≤ 1.
    seed:
        Base seed; combined with :data:`FAULT_SEED_TAG`, the client id, and
        a per-client draw counter for every decision.

    The draw itself is parameterised by four class attributes, which is all
    a subclass (the wire plan) overrides: the fault ``kinds`` in
    cumulative-threshold order, the domain-separation ``seed_tag``, the
    ``salted_kinds`` whose decisions carry a salt, and the ``label`` used
    in error messages.
    """

    kinds = FAULT_KINDS
    seed_tag = FAULT_SEED_TAG
    salted_kinds = ("corruption",)
    label = "fault"

    def __init__(
        self,
        crash_rate: float = 0.0,
        exception_rate: float = 0.0,
        timeout_rate: float = 0.0,
        corruption_rate: float = 0.0,
        seed: int = 0,
    ):
        self._configure((crash_rate, exception_rate, timeout_rate, corruption_rate), seed)

    def _configure(self, rates, seed: int) -> None:
        """Validate one rate per kind (in ``kinds`` order) and zero the counters."""
        self.rates = {kind: float(rate) for kind, rate in zip(self.kinds, rates)}
        check_rates(
            self.label, {f"{self.label} {kind} rate": rate for kind, rate in self.rates.items()}
        )
        self.seed = int(seed)
        #: Per-client draw counters (the mutable, checkpointable state).
        self._draws: Dict[str, int] = {}
        #: Per-kind injected-fault counts (diagnostics, also checkpointed).
        self._injected: Dict[str, int] = {kind: 0 for kind in self.kinds}

    @property
    def any_faults(self) -> bool:
        """Whether any fault kind has a nonzero probability."""
        return any(rate > 0.0 for rate in self.rates.values())

    def injected_counts(self) -> Dict[str, int]:
        """Per-kind counts of faults injected so far (a copy)."""
        return dict(self._injected)

    def draw(self, client_id) -> FaultDecision:
        """The next fault decision for ``client_id``.

        Each call advances that client's draw counter, so retries of the
        same client re-roll (a retried task can fail again, or heal).  The
        n-th draw for a client is a pure function of ``(seed, client_id,
        n)``, independent of backend or connection interleaving.
        """
        if not self.any_faults:
            return FaultDecision(kind=None)
        # Counters are keyed by the *string* form of the id so they survive
        # any checkpoint serialization (JSON meta stringifies dict keys) and
        # so set_state's normalization always finds them again.
        key = str(client_id)
        counter = self._draws.get(key, 0)
        self._draws[key] = counter + 1
        entropy = [self.seed, self.seed_tag, _client_key(client_id), counter]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        uniform = float(rng.uniform())
        threshold = 0.0
        for kind in self.kinds:
            threshold += self.rates[kind]
            if uniform < threshold:
                self._injected[kind] += 1
                salt = int(rng.integers(0, 2**31 - 1)) if kind in self.salted_kinds else 0
                return FaultDecision(kind=kind, salt=salt)
        return FaultDecision(kind=None)

    def describe(self) -> Dict[str, float]:
        """Static identity of the plan (rates + seed); goes into checkpoint
        fingerprints so a resume cannot silently change the fault model."""
        summary: Dict[str, float] = {f"{kind}_rate": rate for kind, rate in self.rates.items()}
        summary["seed"] = self.seed
        return summary

    def state(self) -> Dict[str, object]:
        """Mutable counters for checkpointing."""
        return {
            "draws": dict(self._draws),
            "injected": dict(self._injected),
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore counters captured by :meth:`state`."""
        self._draws = {str(key): int(value) for key, value in dict(state["draws"]).items()}
        injected = dict(state.get("injected", {}))
        self._injected = {kind: int(injected.get(kind, 0)) for kind in self.kinds}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {kind: rate for kind, rate in self.rates.items() if rate > 0.0}
        return f"{self.__class__.__name__}(seed={self.seed}, rates={active})"


def _client_key(client_id) -> int:
    """A stable non-negative integer key for a client id.

    ``hash`` is salted per interpreter run, so derive the key from the
    id's bytes (CRC-32 is stable across processes and platforms).
    """
    return zlib.crc32(str(client_id).encode("utf-8"))


__all__ = ["FAULT_KINDS", "FAULT_SEED_TAG", "FaultDecision", "FaultPlan", "check_rates"]
