"""Lazy client virtualization for population-scale federation.

Cross-device federated settings assume populations of tens of thousands of
clients, of which a sampler selects a small cohort each round.  A
:class:`~repro.fl.client.FederatedClient` holds no model and no scratch
(both are lent per thread), yet 1e5 eager clients' RNG streams and trainers
still measured ~106 MB under ``tracemalloc`` and ~7.6 s to build on a
2-vCPU box, plus one factory call each.  A client that is never sampled
never computes anything, so the directory stays lazy.

:class:`ClientDirectory` therefore holds only per-client *specs*
(:class:`VirtualClientSpec`: id, data partition, sample counts) and hands
out :class:`ClientHandle` proxies.  A handle satisfies everything the
roster machinery reads eagerly — ``client_id``, ``num_samples``,
``rng_state`` — without building anything; the real client is materialized
on the first training call (i.e. only when the sampler actually selected
it) and released as soon as its update has been folded.

Bit-parity with an eager roster rests on two invariants:

* A handle's pre-materialization RNG state is exactly
  :func:`~repro.fl.client.initial_rng_state` — what an eagerly built
  client starts with — and the state is persisted across
  materialize/release cycles.  The RNG stream is the *only* cross-round
  client state (trainers build fresh optimizer/loader state per call), so
  a released-and-rebuilt client continues bit-identically.
* Population client ``k`` (0-based) reuses the data partition of base
  client ``k % B``; for ``k < B`` a handle therefore wraps the identical
  datasets, factory, and config an eager roster would, making
  population runs directly comparable against the eager K=9 goldens.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.data.clients import ClientData
from repro.fl.client import FederatedClient, initial_rng_state
from repro.fl.config import FLConfig

ModelFactory = Callable[[], object]


class VirtualClientSpec:
    """What the directory knows about one population member without building it."""

    __slots__ = ("client_id", "base_index", "num_samples", "num_test_samples")

    def __init__(self, client_id: int, base_index: int, num_samples: int, num_test_samples: int):
        self.client_id = int(client_id)
        self.base_index = int(base_index)
        self.num_samples = int(num_samples)
        self.num_test_samples = int(num_test_samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualClientSpec(client_id={self.client_id}, base_index={self.base_index}, "
            f"num_samples={self.num_samples})"
        )


class ClientHandle:
    """A lazily materialized :class:`FederatedClient`.

    Quacks like a client for every eager read (``client_id``,
    ``num_samples``, ``rng_state``) and materializes the real thing on the
    first training call.  ``release()`` captures the client's RNG state and
    drops the client, so a handle cycles between a ~100-byte spec and a
    full client without ever forking the RNG stream.
    """

    def __init__(self, directory: "ClientDirectory", spec: VirtualClientSpec):
        self._directory = directory
        self.spec = spec
        self._client: Optional[FederatedClient] = None
        self._pending_rng: Optional[dict] = None

    # -- eager reads (no materialization) ---------------------------------------
    @property
    def client_id(self) -> int:
        return self.spec.client_id

    @property
    def num_samples(self) -> int:
        return self.spec.num_samples

    @property
    def rng_state(self) -> dict:
        if self._client is not None:
            return self._client.rng_state
        if self._pending_rng is None:
            self._pending_rng = initial_rng_state(self.client_id)
        return self._pending_rng

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        if self._client is not None:
            self._client.rng_state = state
        else:
            self._pending_rng = state

    # -- lifecycle ----------------------------------------------------------------
    def materialize(self) -> FederatedClient:
        """Build (or return) the real client, restoring any persisted RNG state."""
        if self._client is None:
            self._client = self._directory._build(self.spec)
            if self._pending_rng is not None:
                self._client.rng_state = self._pending_rng
                self._pending_rng = None
            self._directory._note_materialized()
        return self._client

    def release(self) -> None:
        """Capture the RNG stream and drop the materialized client."""
        if self._client is not None:
            self._pending_rng = self._client.rng_state
            self._client = None
            self._directory._note_released()

    # -- client protocol (materializing proxies) ----------------------------------
    def local_train(self, *args, **kwargs):
        return self.materialize().local_train(*args, **kwargs)

    def fine_tune(self, *args, **kwargs):
        return self.materialize().fine_tune(*args, **kwargs)

    def training_loss(self, *args, **kwargs):
        return self.materialize().training_loss(*args, **kwargs)

    def evaluate_auc(self, *args, **kwargs):
        return self.materialize().evaluate_auc(*args, **kwargs)

    # -- pickling (spawned local joiners) -------------------------------------------
    def __getstate__(self):
        # A handle crosses the process boundary (a spawned joiner's roster)
        # as its spec + RNG stream only; the joiner materializes on demand.
        return {
            "directory": self._directory,
            "spec": self.spec,
            "pending_rng": self.rng_state,
        }

    def __setstate__(self, state):
        self._directory = state["directory"]
        self.spec = state["spec"]
        self._client = None
        self._pending_rng = state["pending_rng"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "materialized" if self._client is not None else "virtual"
        return f"ClientHandle(client_id={self.client_id}, {status})"


class ClientDirectory:
    """The population roster: per-client specs, clients built only on demand.

    ``base`` supplies the data partitions; population client ``k`` (0-based
    position) gets ``client_id = k + 1`` and the partition of base client
    ``k % len(base)``.  Materialization counters cover *this process only*
    (joiner processes track their own); ``eager_clients`` is the number of
    clients currently materialized, the quantity the population smoke test
    asserts is zero before sampling.
    """

    def __init__(
        self,
        base: Sequence[ClientData],
        model_factory: ModelFactory,
        config: FLConfig,
        population: int,
    ):
        if population < 1:
            raise ValueError(f"population must be positive, got {population}")
        if not base:
            raise ValueError("at least one base client partition is required")
        self._base = list(base)
        self._model_factory = model_factory
        self._config = config
        self.population = int(population)
        self.materialized_count = 0
        self.peak_materialized = 0
        self.total_materializations = 0
        self.total_releases = 0
        self.handles: List[ClientHandle] = [
            ClientHandle(
                self,
                VirtualClientSpec(
                    client_id=index + 1,
                    base_index=index % len(self._base),
                    num_samples=len(self._base[index % len(self._base)].train),
                    num_test_samples=len(self._base[index % len(self._base)].test),
                ),
            )
            for index in range(self.population)
        ]

    def __len__(self) -> int:
        return self.population

    def __iter__(self):
        return iter(self.handles)

    def __getitem__(self, index: int) -> ClientHandle:
        return self.handles[index]

    @property
    def eager_clients(self) -> int:
        """Clients currently materialized in this process."""
        return self.materialized_count

    def base_size(self) -> int:
        return len(self._base)

    def _build(self, spec: VirtualClientSpec) -> FederatedClient:
        data = self._base[spec.base_index]
        return FederatedClient(
            client_id=spec.client_id,
            train_dataset=data.train,
            test_dataset=data.test,
            model_factory=self._model_factory,
            config=self._config,
        )

    def _note_materialized(self) -> None:
        self.materialized_count += 1
        self.total_materializations += 1
        self.peak_materialized = max(self.peak_materialized, self.materialized_count)

    def _note_released(self) -> None:
        self.materialized_count -= 1
        self.total_releases += 1

    def __getstate__(self):
        # The directory rides along with every pickled handle; ship the
        # construction inputs, not the counters (joiners count their own).
        return {
            "base": self._base,
            "model_factory": self._model_factory,
            "config": self._config,
            "population": self.population,
        }

    def __setstate__(self, state):
        self._base = state["base"]
        self._model_factory = state["model_factory"]
        self._config = state["config"]
        self.population = state["population"]
        self.materialized_count = 0
        self.peak_materialized = 0
        self.total_materializations = 0
        self.total_releases = 0
        # Handles are rebuilt lazily only if someone iterates a deserialized
        # directory; pickled handles carry their own spec and RNG state.
        self.handles = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientDirectory(population={self.population}, base={len(self._base)}, "
            f"materialized={self.materialized_count})"
        )
