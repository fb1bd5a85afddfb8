"""Experiment runner: from a configuration to the rows of a results table."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.clients import ClientData, CorpusBuilder
from repro.fl import (
    Channel,
    ChannelSummary,
    CheckpointManager,
    ClientDirectory,
    EvaluationRow,
    ExecutionBackend,
    FederatedClient,
    ResilienceManager,
    ResilienceSummary,
    RoundAlgorithm,
    RoundScheduler,
    SchedulingSummary,
    SeededModelFactory,
    TrainingResult,
    WireBackend,
    create_algorithm,
    create_backend,
    create_channel,
    create_resilience,
    create_scheduler,
    evaluate_result,
)
from repro.experiments.config import ExperimentConfig
from repro.models.registry import create_model

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ModelBuilder:
    """Builds one registry model from a seed.

    A module-level class (rather than a closure) so model factories — and the
    federated clients holding them — stay picklable, which the process
    backend's joiners require under the ``spawn`` start method.
    """

    model: str
    channels: int
    kwargs: Tuple[Tuple[str, object], ...] = ()

    def __call__(self, seed: int):
        return create_model(self.model, self.channels, seed=seed, **dict(self.kwargs))


@dataclass
class AlgorithmOutcome:
    """Everything recorded about one algorithm run inside an experiment."""

    algorithm: str
    evaluation: EvaluationRow
    training: TrainingResult
    runtime_seconds: float
    #: Measured transport bytes (None when no compression channel was used).
    communication: Optional[ChannelSummary] = None
    #: Participation / simulated-time / staleness totals (None unless
    #: scheduling was requested and the algorithm trains in rounds).
    scheduling: Optional[SchedulingSummary] = None
    #: Population-scale accounting (None without a virtualized population):
    #: eager clients before sampling, peak concurrently materialized
    #: clients, total materializations/releases, folded updates.
    population: Optional[Dict[str, object]] = None
    #: Fault-tolerance accounting (None unless fault tolerance was requested
    #: or the run is on the wire, and the algorithm trains in rounds):
    #: retries, give-ups, pool respawns, dropped clients, injected fault
    #: counts.
    resilience: Optional[ResilienceSummary] = None


@dataclass
class ExperimentResult:
    """The outcome of one experiment (one table of the paper)."""

    config: ExperimentConfig
    outcomes: List[AlgorithmOutcome] = field(default_factory=list)

    @property
    def rows(self) -> List[EvaluationRow]:
        return [outcome.evaluation for outcome in self.outcomes]

    def row(self, algorithm: str) -> EvaluationRow:
        for outcome in self.outcomes:
            if outcome.algorithm == algorithm:
                return outcome.evaluation
        raise KeyError(f"no outcome recorded for algorithm {algorithm!r}")

    def average_auc(self, algorithm: str) -> float:
        return self.row(algorithm).average_auc

    def as_table(self) -> List[Dict[str, object]]:
        """Printable list of row dictionaries (method, per-client AUC, average)."""
        table = []
        for outcome in self.outcomes:
            entry: Dict[str, object] = {"method": outcome.algorithm}
            entry.update({k: round(v, 4) for k, v in outcome.evaluation.as_dict().items()})
            entry["runtime_s"] = round(outcome.runtime_seconds, 2)
            if outcome.communication is not None:
                entry["uplink_bytes"] = outcome.communication.total_uplink_bytes
                entry["downlink_bytes"] = outcome.communication.total_downlink_bytes
            if outcome.scheduling is not None:
                entry["dropped"] = outcome.scheduling.total_dropped
                entry["simulated_s"] = round(outcome.scheduling.simulated_seconds, 1)
            table.append(entry)
        return table


class ExperimentRunner:
    """Builds the corpus, wires up clients, and runs every requested algorithm."""

    def __init__(self, config: ExperimentConfig, cache_dir: Optional[PathLike] = None):
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._client_data: Optional[List[ClientData]] = None
        self._directory: Optional[ClientDirectory] = None

    # -- corpus / clients ------------------------------------------------------
    def client_data(self) -> List[ClientData]:
        """Synthesize (or load) the per-client datasets."""
        if self._client_data is None:
            builder = CorpusBuilder(self.config.corpus)
            self._client_data = builder.build_all(self.config.client_specs, self.cache_dir)
        return self._client_data

    def num_feature_channels(self) -> int:
        return len(self.config.corpus.features)

    def model_factory(self) -> SeededModelFactory:
        """A fresh, deterministic model factory for one algorithm run."""
        builder = ModelBuilder(
            model=self.config.model,
            channels=self.num_feature_channels(),
            kwargs=tuple(sorted(self.config.model_kwargs.items())),
        )
        return SeededModelFactory(builder, base_seed=self.config.seed)

    def client_directory(self) -> Optional[ClientDirectory]:
        """The lazy population roster (``None`` without ``config.population``).

        Cached: every algorithm of an experiment trains over the same
        directory, so the materialization counters accumulate run-wide.
        """
        if self.config.population is None:
            return None
        if self._directory is None:
            self._directory = ClientDirectory(
                self.client_data(),
                self.model_factory(),
                self.config.fl,
                population=self.config.population,
            )
        return self._directory

    def federated_clients(self) -> List:
        """The client roster: eager clients, or lazy handles under a population."""
        directory = self.client_directory()
        if directory is not None:
            return list(directory.handles)
        factory = self.model_factory()
        return [
            FederatedClient.from_client_data(data, factory, self.config.fl)
            for data in self.client_data()
        ]

    # -- execution ----------------------------------------------------------------
    def wire_fingerprint(self) -> Dict[str, object]:
        """The run-identity fingerprint a wire joiner must match at handshake.

        Every field that shapes the client-side computation is included, so
        a joiner built from a different preset / seed / corpus / dtype is
        rejected before it can silently poison a run.  Both `repro serve`
        and `repro join` derive it from the same configuration code path.
        """
        return {
            "model": self.config.model,
            "model_kwargs": tuple(sorted(self.config.model_kwargs.items())),
            "seed": self.config.seed,
            "corpus": self.config.corpus.cache_key(),
            "clients": tuple(spec.client_id for spec in self.config.client_specs),
            "compute_dtype": self.config.fl.compute_dtype,
            "learning_rate": self.config.fl.learning_rate,
            "batch_size": self.config.fl.batch_size,
            "local_steps": self.config.fl.local_steps,
        }

    def execution_backend(self) -> ExecutionBackend:
        """The execution backend requested by the configuration.

        The caller owns the returned backend and should ``close()`` it (or
        use it as a context manager) once training is done; the serial
        backend holds no resources, and the wire and process backends hold
        the federation server (listening socket, journal, client sessions) —
        the process backend its local joiner processes too.
        """
        execution = self.config.execution
        if execution.backend == "wire":
            return WireBackend.from_options(
                self.config.wire,
                seed=self.config.seed,
                fingerprint=self.wire_fingerprint(),
                blas_threads=execution.blas_threads,
            )
        return create_backend(
            execution.backend, workers=execution.workers, blas_threads=execution.blas_threads
        )

    def transport_channel(self) -> Optional[Channel]:
        """A fresh transport channel for one algorithm run (or ``None``).

        Channels are stateful (per-client delta references, error-feedback
        residuals, and the measured byte totals), so every algorithm run
        gets its own.
        """
        transport = self.config.transport
        return create_channel(
            transport.compression,
            compression_bits=transport.compression_bits,
            topk_fraction=transport.topk_fraction,
        )

    def round_scheduler(self) -> RoundScheduler:
        """A fresh round scheduler for one algorithm run.

        Schedulers are stateful (sampler / availability / latency RNGs and
        the virtual clock), so every algorithm run
        gets its own — seeded from the run seed, which makes cohorts
        identical across algorithms, execution backends, and checkpoint
        resume.
        """
        return create_scheduler(self.config.scheduling, seed=self.config.seed)

    def resilience_manager(self) -> ResilienceManager:
        """A fresh resilience manager for one algorithm run.

        Managers are stateful (the fault plan's per-client draw counters,
        retry/backoff accounting, and the permanent-failure set), so every
        algorithm run gets its own — seeded from the run seed, which makes
        injected faults identical across algorithms, execution backends,
        and checkpoint resume.
        """
        if not self.config.resilience.requested and self.config.execution.backend == "wire":
            # A wire run retries by default: network faults (socket death,
            # heartbeat loss, decode failure) are TaskFailures that should
            # retry from pre-captured RNG snapshots, not abort the run.
            return ResilienceManager()
        return create_resilience(self.config.resilience, seed=self.config.seed)

    def _checkpoint_manager(self, algorithm: str) -> Optional[CheckpointManager]:
        """Per-algorithm checkpoint manager under the configured directory."""
        directory = self.config.execution.checkpoint_dir
        return CheckpointManager(Path(directory) / algorithm) if directory is not None else None

    def run_algorithm(
        self,
        name: str,
        clients: Optional[Sequence[FederatedClient]] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> AlgorithmOutcome:
        """Train with one algorithm and evaluate it on every client.

        When ``backend`` is ``None``, one is created from the configuration
        for this run and closed afterwards; a provided backend is left open
        so callers can reuse its workers across algorithms.
        """
        clients = list(clients) if clients is not None else self.federated_clients()
        owns_backend = backend is None
        backend = backend if backend is not None else self.execution_backend()
        channel = self.transport_channel()
        scheduler = self.round_scheduler()
        directory = self.client_directory()
        # The witness the population smoke test asserts: nothing has been
        # built before the sampler selected anything.
        eager_before = directory.eager_clients if directory is not None else None
        try:
            algorithm = create_algorithm(
                name,
                clients,
                self.model_factory(),
                self.config.fl,
                backend=backend,
                checkpoint=self._checkpoint_manager(name),
                channel=channel,
                scheduler=scheduler,
                resilience=self.resilience_manager(),
            )
            start = time.perf_counter()
            training = algorithm.run()
            runtime = time.perf_counter() - start
        finally:
            if owns_backend:
                backend.close()
        if directory is not None:
            # Evaluating all 1e4+ population members would materialize every
            # one; the first base-partition's worth of handles covers each
            # distinct dataset exactly once (population client k reuses
            # partition k % B), so they are the evaluation representatives.
            representatives = clients[: directory.base_size()]
            evaluation = evaluate_result(training, representatives)
            for handle in representatives:
                handle.release()
        else:
            evaluation = evaluate_result(training, clients)
        # The round-less baselines hold the inert defaults whatever was
        # requested; report only what drove the run.
        rounds = isinstance(algorithm, RoundAlgorithm)
        wire = self.config.execution.backend == "wire"
        population_summary = None
        if directory is not None:
            population_summary = {
                "population": directory.population,
                "eager_clients_before_sampling": eager_before,
                "peak_materialized": directory.peak_materialized,
                "total_materializations": directory.total_materializations,
                "total_releases": directory.total_releases,
                "folded_updates": algorithm.ledger.folded,
            }
        return AlgorithmOutcome(
            algorithm=name,
            evaluation=evaluation,
            training=training,
            runtime_seconds=runtime,
            communication=channel.summary() if channel is not None else None,
            scheduling=(
                algorithm.ledger.scheduling_summary()
                if rounds and self.config.scheduling.requested
                else None
            ),
            population=population_summary,
            resilience=(
                algorithm.ledger.resilience_summary(backend)
                if rounds and (self.config.resilience.requested or wire)
                else None
            ),
        )

    def run(self, algorithms: Optional[Sequence[str]] = None) -> ExperimentResult:
        """Run every algorithm of the configuration and collect the table.

        One execution backend (and, for the process backend, one set of joiners)
        is shared by every algorithm of the experiment.
        """
        names = tuple(algorithms) if algorithms is not None else self.config.algorithms
        result = ExperimentResult(config=self.config)
        clients = self.federated_clients()
        with self.execution_backend() as backend:
            for name in names:
                result.outcomes.append(self.run_algorithm(name, clients, backend=backend))
        return result


def run_experiment(
    config: ExperimentConfig,
    algorithms: Optional[Sequence[str]] = None,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentResult:
    """One-call convenience wrapper around :class:`ExperimentRunner`."""
    return ExperimentRunner(config, cache_dir=cache_dir).run(algorithms)
