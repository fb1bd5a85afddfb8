"""Client samplers: who participates in a communication round.

Real cross-device federated deployments never run a round over the full
client population; the server selects a *cohort* from the clients that are
currently available.  A :class:`ClientSampler` owns that selection.  All
samplers operate on **roster indices** (positions in the algorithm's client
list), never on client ids, so the selection logic is independent of how
ids are assigned.

Determinism contract
--------------------
Samplers draw from a private :class:`numpy.random.Generator` seeded from the
run seed.  Selection happens exactly once per round in the coordinating
process, so the cohort sequence is bit-reproducible across execution
backends (serial vs. local joiners) and across checkpoint resume — the
sampler's full RNG state is exposed via :meth:`ClientSampler.state` and
restored via :meth:`ClientSampler.set_state`.  Returned cohorts are sorted
by roster index so the order in which client tasks are dispatched (and
their RNG hand-off) never depends on the draw order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Seed-stream tag reserved for sampler RNGs (mixed into the run seed).
SAMPLER_SEED_TAG = 0x5C40

#: Sampler names understood by :func:`create_sampler` (and the CLI).
SAMPLER_CHOICES = ("full", "uniform", "weighted")


class ClientSampler:
    """Interface of every cohort sampler."""

    #: Registry / CLI name, overridden by subclasses.
    name: str = "base"

    def bind(self, num_clients: int, weights: Optional[Sequence[float]] = None) -> None:
        """Attach the roster size (and per-client weights, if any)."""
        self._num_clients = int(num_clients)
        self._weights = [float(w) for w in weights] if weights is not None else None

    def select(
        self,
        round_index: int,
        available: Sequence[int],
        size: Optional[int] = None,
        multiplier: float = 1.0,
    ) -> List[int]:
        """Pick this round's cohort from the available roster indices.

        ``size`` overrides the sampler's own cohort-size rule (used by the
        buffered-asynchronous loop to refill exactly the freed slots);
        ``multiplier`` inflates the size for over-selection (deadline rounds
        select extra clients expecting some to be dropped).  The returned
        list is sorted and never larger than ``available``.
        """
        raise NotImplementedError

    def cohort_size(self, num_available: int) -> int:
        """The target cohort size for ``num_available`` ready clients."""
        return num_available

    def state(self) -> Dict[str, object]:
        """JSON-serializable snapshot (RNG state) for checkpointing."""
        return {}

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state`."""

    def describe(self) -> str:
        """Stable human/fingerprint description of this sampler."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}({self.describe()})"


def _inflated(size: int, multiplier: float, num_available: int) -> int:
    """Over-selection: inflate ``size`` by ``multiplier``, capped at availability."""
    if multiplier < 1.0:
        raise ValueError(f"over-selection multiplier must be >= 1, got {multiplier}")
    return max(1, min(num_available, int(math.ceil(size * multiplier))))


class FullParticipation(ClientSampler):
    """Every available client participates (the default cohort rule).

    When a caller constrains the cohort size (the buffered-asynchronous
    loop refilling freed slots), clients are taken round-robin from the
    available list — a rotating cursor, not always the lowest roster
    indices — so no client is systematically starved.  The cursor is part
    of the checkpointed state.
    """

    name = "full"

    def __init__(self):
        self._cursor = 0

    def select(
        self,
        round_index: int,
        available: Sequence[int],
        size: Optional[int] = None,
        multiplier: float = 1.0,
    ) -> List[int]:
        chosen = sorted(int(index) for index in available)
        if size is None:
            return chosen
        size = int(size)
        if size <= 0:
            return []
        if size >= len(chosen):
            return chosen
        start = self._cursor % len(chosen)
        picked = [chosen[(start + offset) % len(chosen)] for offset in range(size)]
        self._cursor += size
        return sorted(picked)

    def state(self) -> Dict[str, object]:
        return {"cursor": self._cursor}

    def set_state(self, state: Dict[str, object]) -> None:
        self._cursor = int(state.get("cursor", 0))


class _RandomSampler(ClientSampler):
    """Shared machinery of the RNG-driven samplers."""

    def __init__(
        self,
        fraction: Optional[float] = None,
        clients_per_round: Optional[int] = None,
        seed: int = 0,
    ):
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"participation fraction must be in (0, 1], got {fraction}")
        if clients_per_round is not None and clients_per_round < 1:
            raise ValueError(f"clients_per_round must be positive, got {clients_per_round}")
        self.fraction = float(fraction) if fraction is not None else None
        self.clients_per_round = int(clients_per_round) if clients_per_round is not None else None
        self.seed = int(seed)
        self._rng = np.random.default_rng(np.random.SeedSequence([self.seed, SAMPLER_SEED_TAG]))

    def cohort_size(self, num_available: int) -> int:
        if self.clients_per_round is not None:
            return min(self.clients_per_round, num_available)
        fraction = self.fraction if self.fraction is not None else 1.0
        return max(1, min(num_available, int(round(fraction * num_available))))

    def _probabilities(self, available: Sequence[int]) -> Optional[np.ndarray]:
        """Per-available-client selection probabilities (None = uniform)."""
        return None

    def select(
        self,
        round_index: int,
        available: Sequence[int],
        size: Optional[int] = None,
        multiplier: float = 1.0,
    ) -> List[int]:
        available = sorted(int(index) for index in available)
        if not available:
            return []
        if size is not None and int(size) <= 0:
            return []
        count = int(size) if size is not None else self.cohort_size(len(available))
        count = _inflated(count, multiplier, len(available))
        if count >= len(available):
            return list(available)
        picked = self._rng.choice(
            len(available), size=count, replace=False, p=self._probabilities(available)
        )
        return sorted(available[position] for position in picked)

    def state(self) -> Dict[str, object]:
        return {"rng": self._rng.bit_generator.state}

    def set_state(self, state: Dict[str, object]) -> None:
        if "rng" in state:
            self._rng.bit_generator.state = state["rng"]

    def describe(self) -> str:
        if self.clients_per_round is not None:
            return f"{self.name}(k={self.clients_per_round})"
        fraction = self.fraction if self.fraction is not None else 1.0
        return f"{self.name}({fraction:g})"


class UniformSampler(_RandomSampler):
    """Uniform sampling without replacement (the FedAvg ``C``-fraction rule)."""

    name = "uniform"


class WeightedSampler(_RandomSampler):
    """Importance sampling proportional to client weight (sample count).

    Clients holding more training data are proportionally more likely to be
    selected, which reduces the variance of the sample-weighted aggregate
    under partial participation.  Weights come from the scheduler's
    :meth:`ClientSampler.bind` call (the roster's ``num_samples``).
    """

    name = "weighted"

    def _probabilities(self, available: Sequence[int]) -> Optional[np.ndarray]:
        weights = getattr(self, "_weights", None)
        if weights is None:
            return None
        raw = np.asarray([weights[index] for index in available], dtype=np.float64)
        total = float(raw.sum())
        if total <= 0.0:
            return None
        return raw / total


def create_sampler(
    name: Optional[str],
    fraction: Optional[float] = None,
    clients_per_round: Optional[int] = None,
    seed: int = 0,
) -> ClientSampler:
    """Instantiate a sampler by name.

    ``name=None`` infers the sampler: :class:`UniformSampler` when a
    fraction or per-round count is requested, :class:`FullParticipation`
    otherwise.
    """
    if name is None:
        name = "full" if fraction is None and clients_per_round is None else "uniform"
    key = name.lower()
    if key == "full":
        return FullParticipation()
    if key == "uniform":
        return UniformSampler(fraction=fraction, clients_per_round=clients_per_round, seed=seed)
    if key == "weighted":
        return WeightedSampler(fraction=fraction, clients_per_round=clients_per_round, seed=seed)
    raise ValueError(f"unknown client sampler {name!r}; available: {SAMPLER_CHOICES}")
