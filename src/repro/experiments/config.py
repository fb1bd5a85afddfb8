"""Experiment configurations and presets.

An :class:`ExperimentConfig` bundles everything needed to regenerate one of
the paper's result tables: the corpus configuration (Table 2), the
decentralized-training hyper-parameters (Section 5.1), the model under test
(FLNet / RouteNet / PROS), and the list of training algorithms (the rows of
Tables 3-5).

Three presets are provided:

``paper``
    The paper's exact hyper-parameters and corpus scale.  Running this in
    NumPy takes many hours; it exists to document the target configuration.
``default``
    A scaled-down configuration that regenerates every table in minutes on a
    laptop while preserving the comparative structure of the results.
``smoke``
    A seconds-scale configuration for integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.data.clients import ClientSpec, CorpusConfig, TABLE2_CLIENTS
from repro.fl.config import FLConfig
from repro.fl.execution import BACKENDS as EXECUTION_BACKENDS
from repro.fl.scheduling import (
    AVAILABILITY_CHOICES,
    ROUND_POLICY_CHOICES,
    SAMPLER_CHOICES,
    STRAGGLER_CHOICES,
    scheduling_requested,
)
from repro.fl.faults import resilience_requested as _resilience_requested
from repro.fl.transport import COMPRESSION_CHOICES
from repro.models.registry import available_models
from repro.utils.threadpools import check_blas_policy

#: The options each ``ExperimentConfig.with_<group>`` builder may set.  All
#: are fields of the configuration itself except ``compute_dtype``, which
#: lives on the nested :class:`~repro.fl.FLConfig`.
_BUILDER_OPTIONS: Dict[str, Tuple[str, ...]] = {
    "execution": ("backend", "workers", "blas_threads", "checkpoint_dir", "compute_dtype"),
    "transport": ("compression", "compression_bits", "topk_fraction"),
    "scheduling": (
        "participation",
        "clients_per_round",
        "sampler",
        "availability",
        "availability_rate",
        "straggler_model",
        "round_policy",
        "deadline",
        "over_selection",
        "buffer_size",
    ),
    "population": ("population",),
    "resilience": (
        "quorum",
        "max_retries",
        "task_timeout",
        "fault_crash_rate",
        "fault_exception_rate",
        "fault_timeout_rate",
        "fault_corruption_rate",
    ),
    "wire": (
        "wire_host",
        "wire_port",
        "heartbeat_interval",
        "client_timeout",
        "wire_journal_dir",
        "wire_fault_disconnect_rate",
        "wire_fault_delay_rate",
        "wire_fault_corrupt_rate",
        "wire_delay_seconds",
    ),
}

#: Global-state algorithms that can train over a virtualized population
#: (lazy client construction; one shared global model, no per-client state).
POPULATION_ALGORITHMS: Tuple[str, ...] = ("fedavg", "fedprox", "fedavgm", "dp_fedprox")

#: The algorithm rows of Tables 3-5, in the paper's order.
TABLE_ALGORITHMS: Tuple[str, ...] = (
    "local",
    "centralized",
    "fedprox",
    "fedprox_lg",
    "ifca",
    "fedprox_finetune",
    "assigned_clustering",
    "fedprox_alpha",
)


@dataclass
class ExperimentConfig:
    """Everything needed to run one table-style experiment.

    Execution options
    -----------------
    ``backend`` selects where each round's client updates run: ``"serial"``
    (in-process, the default), ``"process"`` (a warm pool of ``workers``
    processes, spawned once per run), ``"thread"`` (a warm thread pool —
    NumPy releases the GIL inside the conv/GEMM kernels, so client steps
    overlap with zero pickling), or ``None`` / ``"auto"`` to infer from
    ``workers``.  Any backend produces bit-identical results for the same
    seed.  The local-training arithmetic dtype is ``fl.compute_dtype``
    (``with_execution(compute_dtype="float32")`` opts into the fast path).
    ``checkpoint_dir`` enables per-round checkpoint/resume for the
    global-state algorithms (one subdirectory per algorithm).

    Transport options
    -----------------
    ``compression`` routes every broadcast and upload through a wire-codec
    channel with measured byte accounting: ``None`` (raw in-process states,
    no accounting), ``"none"`` (bit-exact float64 identity, measured),
    ``"float32"`` / ``"float16"`` (cast), ``"quantize"``
    (``compression_bits``-bit packed quantization + DEFLATE, delta-encoded
    uploads), or ``"topk"`` (top-``topk_fraction`` sparsified delta uploads
    with error feedback).  Serial and process execution stay bit-identical
    under every setting.

    Scheduling options
    ------------------
    ``participation`` / ``clients_per_round`` select a per-round cohort
    (``sampler`` picks the rule: uniform or sample-count-weighted);
    ``availability`` models which clients are reachable (``always``,
    ``bernoulli``, day/night cycles at ``availability_rate`` duty);
    ``straggler_model`` assigns simulated round-trip latencies; and
    ``round_policy`` decides what the server does with them: ``sync``
    (barrier), ``deadline`` (drop updates later than ``deadline`` virtual
    seconds, over-selecting the cohort by ``over_selection``), or
    ``fedbuff`` (buffered-asynchronous aggregation with ``buffer_size``
    staleness-weighted updates per model version).  All defaults off: the
    default configuration runs the full cohort synchronously and is
    bit-identical to pre-scheduling behavior.

    Fault-tolerance options
    -----------------------
    ``quorum`` commits each round once that fraction of the cohort has
    delivered an update (clients that exhaust their retries are dropped
    permanently with the aggregation weights renormalized; a sub-quorum
    round checkpoints and raises :class:`repro.fl.faults.QuorumFailure`).
    ``max_retries`` / ``task_timeout`` shape the supervised retry loop, and
    the ``fault_*_rate`` knobs inject deterministic seeded faults
    (crash / exception / timeout / payload corruption) for chaos testing.
    All defaults off: quorum 1 with no faults runs the pre-resilience code
    path bit-identically.
    """

    name: str
    model: str = "flnet"
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    fl: FLConfig = field(default_factory=FLConfig)
    algorithms: Tuple[str, ...] = TABLE_ALGORITHMS
    client_specs: Tuple[ClientSpec, ...] = TABLE2_CLIENTS
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    backend: Optional[str] = None
    workers: Optional[int] = None
    blas_threads: object = "auto"
    checkpoint_dir: Optional[str] = None
    compression: Optional[str] = None
    compression_bits: int = 8
    topk_fraction: float = 0.1
    participation: Optional[float] = None
    clients_per_round: Optional[int] = None
    sampler: Optional[str] = None
    availability: Optional[str] = None
    availability_rate: float = 0.9
    straggler_model: Optional[str] = None
    round_policy: str = "sync"
    deadline: Optional[float] = None
    over_selection: float = 1.0
    buffer_size: int = 2
    population: Optional[int] = None
    quorum: float = 1.0
    max_retries: Optional[int] = None
    task_timeout: Optional[float] = None
    fault_crash_rate: float = 0.0
    fault_exception_rate: float = 0.0
    fault_timeout_rate: float = 0.0
    fault_corruption_rate: float = 0.0
    # Wire-backend options (used only when backend == "wire"; see
    # repro.fl.net and the `repro serve` / `repro join` commands).
    wire_host: str = "127.0.0.1"
    wire_port: int = 0
    heartbeat_interval: float = 2.0
    client_timeout: float = 10.0
    wire_journal_dir: Optional[str] = None
    wire_fault_disconnect_rate: float = 0.0
    wire_fault_delay_rate: float = 0.0
    wire_fault_corrupt_rate: float = 0.0
    wire_delay_seconds: float = 0.05

    def __post_init__(self):
        if self.model.lower() not in available_models():
            raise ValueError(
                f"unknown model {self.model!r}; available: {available_models()}"
            )
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if self.backend is not None and self.backend not in ("auto",) + tuple(EXECUTION_BACKENDS):
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"available: {sorted(EXECUTION_BACKENDS)} (or 'auto')"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        check_blas_policy(self.blas_threads)
        if self.backend == "serial" and self.workers is not None and self.workers > 1:
            raise ValueError(
                f"backend 'serial' cannot use {self.workers} workers; "
                "drop the workers option or choose the 'process' backend"
            )
        if self.compression is not None and self.compression not in COMPRESSION_CHOICES:
            raise ValueError(
                f"unknown compression {self.compression!r}; "
                f"available: {COMPRESSION_CHOICES}"
            )
        if not 1 <= self.compression_bits <= 16:
            raise ValueError(
                f"compression_bits must be between 1 and 16, got {self.compression_bits}"
            )
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValueError(
                f"topk_fraction must be in (0, 1], got {self.topk_fraction}"
            )
        if self.participation is not None and not 0.0 < self.participation <= 1.0:
            raise ValueError(
                f"participation must be in (0, 1], got {self.participation}"
            )
        if self.clients_per_round is not None and self.clients_per_round < 1:
            raise ValueError(
                f"clients_per_round must be positive, got {self.clients_per_round}"
            )
        if self.sampler is not None and self.sampler not in SAMPLER_CHOICES:
            raise ValueError(
                f"unknown client sampler {self.sampler!r}; available: {SAMPLER_CHOICES}"
            )
        if self.availability is not None and self.availability not in AVAILABILITY_CHOICES:
            raise ValueError(
                f"unknown availability model {self.availability!r}; "
                f"available: {AVAILABILITY_CHOICES}"
            )
        if not 0.0 < self.availability_rate <= 1.0:
            raise ValueError(
                f"availability_rate must be in (0, 1], got {self.availability_rate}"
            )
        if self.straggler_model is not None and self.straggler_model not in STRAGGLER_CHOICES:
            raise ValueError(
                f"unknown straggler model {self.straggler_model!r}; "
                f"available: {STRAGGLER_CHOICES}"
            )
        if self.round_policy not in ROUND_POLICY_CHOICES:
            raise ValueError(
                f"unknown round policy {self.round_policy!r}; "
                f"available: {ROUND_POLICY_CHOICES}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.round_policy == "deadline" and self.deadline is None:
            raise ValueError(
                "the deadline round policy needs a positive deadline (virtual seconds)"
            )
        if self.round_policy == "fedbuff":
            # Fail at configuration time, not after earlier algorithms of the
            # experiment have already trained for minutes.
            from repro.fl import ALGORITHMS

            blocked = [
                name
                for name in self.algorithms
                if name in ALGORITHMS
                and ALGORITHMS[name].supports_scheduling
                and not ALGORITHMS[name].supports_fedbuff
            ]
            if blocked:
                raise ValueError(
                    f"round policy 'fedbuff' is not supported by {blocked}; "
                    "choose sync or deadline, or drop those algorithms "
                    "(fedbuff needs delta-style aggregation: fedavg / fedprox / "
                    "fedprox_finetune)"
                )
        if self.over_selection < 1.0:
            raise ValueError(
                f"over_selection must be >= 1, got {self.over_selection}"
            )
        if self.buffer_size < 1:
            raise ValueError(f"buffer_size must be positive, got {self.buffer_size}")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError(f"quorum must be in (0, 1], got {self.quorum}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        fault_rates = {
            "fault_crash_rate": self.fault_crash_rate,
            "fault_exception_rate": self.fault_exception_rate,
            "fault_timeout_rate": self.fault_timeout_rate,
            "fault_corruption_rate": self.fault_corruption_rate,
        }
        for label, rate in fault_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if sum(fault_rates.values()) > 1.0 + 1e-12:
            raise ValueError(
                f"fault rates must sum to at most 1, got {sum(fault_rates.values())}"
            )
        if not 0 <= self.wire_port <= 65535:
            raise ValueError(f"wire_port must be in [0, 65535], got {self.wire_port}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.client_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"client_timeout ({self.client_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}); liveness needs "
                "at least one missed probe"
            )
        if self.wire_delay_seconds < 0:
            raise ValueError(
                f"wire_delay_seconds must be >= 0, got {self.wire_delay_seconds}"
            )
        wire_rates = {
            "wire_fault_disconnect_rate": self.wire_fault_disconnect_rate,
            "wire_fault_delay_rate": self.wire_fault_delay_rate,
            "wire_fault_corrupt_rate": self.wire_fault_corrupt_rate,
        }
        for label, rate in wire_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if sum(wire_rates.values()) > 1.0 + 1e-12:
            raise ValueError(
                f"wire fault rates must sum to at most 1, got {sum(wire_rates.values())}"
            )
        if self.backend == "wire":
            if self.workers is not None and self.workers > 1:
                raise ValueError(
                    "backend 'wire' runs client tasks in remote joiner processes; "
                    "drop the workers option"
                )
            if self.population is not None:
                raise ValueError(
                    "backend 'wire' needs an eager client roster; population "
                    "virtualization is not supported over the wire"
                )
        if self.resilience_requested and self.round_policy == "fedbuff":
            raise ValueError(
                "fault tolerance (quorum / fault injection / retries) is not "
                "supported with the fedbuff round policy; choose sync or deadline"
            )
        if self.population is not None:
            if self.population < 1:
                raise ValueError(f"population must be positive, got {self.population}")
            if self.participation is None and self.clients_per_round is None:
                raise ValueError(
                    "a population needs partial participation; set clients_per_round "
                    "(or participation) so the sampler selects a per-round cohort"
                )
            unsupported = [
                name for name in self.algorithms if name not in POPULATION_ALGORITHMS
            ]
            if unsupported:
                raise ValueError(
                    f"population runs support only the global-state algorithms "
                    f"{sorted(POPULATION_ALGORITHMS)}; drop {unsupported}"
                )

    @property
    def scheduling_requested(self) -> bool:
        """Whether any scheduling option departs from the defaults.

        Delegates to :func:`repro.fl.scheduling.scheduling_requested` — the
        same predicate :func:`~repro.fl.scheduling.create_scheduler` uses —
        so "a scheduler will exist" and "scheduling is reported" agree by
        construction.
        """
        return scheduling_requested(
            participation=self.participation,
            clients_per_round=self.clients_per_round,
            sampler=self.sampler,
            availability=self.availability,
            straggler=self.straggler_model,
            round_policy=self.round_policy,
        )

    @property
    def resilience_requested(self) -> bool:
        """Whether any fault-tolerance option departs from the defaults.

        Delegates to :func:`repro.fl.faults.resilience_requested` — the same
        predicate :func:`~repro.fl.faults.create_resilience` uses — so "a
        resilience manager will exist" and "resilience is reported" agree by
        construction.
        """
        return _resilience_requested(
            quorum=self.quorum,
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
            crash_rate=self.fault_crash_rate,
            exception_rate=self.fault_exception_rate,
            timeout_rate=self.fault_timeout_rate,
            corruption_rate=self.fault_corruption_rate,
        )

    def _with(self, group: str, options: Dict[str, object]) -> "ExperimentConfig":
        """A copy with ``options`` replaced — the body of every ``with_<group>``.

        Only the options passed are touched, so an omitted one keeps its
        current value and an explicit ``None`` resets it; a keyword outside
        the group raises ``TypeError`` like any unexpected argument.
        """
        unknown = sorted(set(options) - set(_BUILDER_OPTIONS[group]))
        if unknown:
            raise TypeError(
                f"with_{group}() got an unexpected keyword argument {unknown[0]!r}"
            )
        if "compute_dtype" in options:
            dtype = options.pop("compute_dtype")
            options["fl"] = replace(
                self.fl, compute_dtype=dtype if dtype is not None else "float64"
            )
        return replace(self, **options)

    def with_resilience(self, **options) -> "ExperimentConfig":
        """A copy of this configuration with different fault-tolerance options.

        ``quorum`` is the fraction of the per-round cohort that must deliver
        an update before the round commits (permanently failed clients are
        dropped and the aggregation weights renormalized); the
        ``fault_crash_rate`` / ``fault_exception_rate`` / ``fault_timeout_rate``
        / ``fault_corruption_rate`` knobs inject deterministic seeded faults
        for chaos testing; and ``max_retries`` / ``task_timeout`` control
        the supervised retry loop.  Omitted options keep their current
        value; the all-defaults configuration (quorum 1, no faults, no retry
        overrides) runs the pre-resilience code path bit-identically.
        """
        return self._with("resilience", options)

    def with_wire(self, **options) -> "ExperimentConfig":
        """A copy of this configuration with different wire-backend options.

        These only take effect when ``backend == "wire"`` (set it via
        :meth:`with_execution`): the bind address (``wire_host`` /
        ``wire_port``), heartbeat cadence and liveness deadline
        (``heartbeat_interval`` / ``client_timeout``), the on-disk journal
        directory backing reconnect-with-resume (``wire_journal_dir``; a
        temporary directory when ``None``), and the seeded frame-level fault
        rates for chaos runs (``wire_fault_disconnect_rate`` /
        ``wire_fault_delay_rate`` / ``wire_fault_corrupt_rate``, with
        ``wire_delay_seconds`` per injected delay).  Omitted options keep
        their current value.
        """
        return self._with("wire", options)

    def with_execution(self, **options) -> "ExperimentConfig":
        """A copy of this configuration with different execution options.

        Accepts ``backend``, ``workers``, ``blas_threads``,
        ``checkpoint_dir`` and ``compute_dtype``.  Omitted options keep
        their current value; pass ``None`` explicitly to reset one (e.g.
        ``with_execution(checkpoint_dir=None)`` disables checkpointing
        without touching the backend choice).  ``compute_dtype`` selects the
        local-training arithmetic dtype and lives on the nested
        :class:`~repro.fl.FLConfig` (``None`` resets to float64).
        ``blas_threads`` is the BLAS thread policy handed to the execution
        backend (``"auto"``, an exact count, or ``None`` to leave the BLAS
        pool unmanaged).
        """
        return self._with("execution", options)

    def with_transport(self, **options) -> "ExperimentConfig":
        """A copy of this configuration with different transport options.

        Accepts ``compression``, ``compression_bits`` and ``topk_fraction``.
        Omitted options keep their current value; pass ``None`` explicitly
        as ``compression`` to disable the transport layer.
        """
        return self._with("transport", options)

    def with_scheduling(self, **options) -> "ExperimentConfig":
        """A copy of this configuration with different scheduling options.

        Accepts ``participation``, ``clients_per_round``, ``sampler``,
        ``availability``, ``availability_rate``, ``straggler_model``,
        ``round_policy``, ``deadline``, ``over_selection`` and
        ``buffer_size``.  Omitted options keep their current value; pass
        ``None`` explicitly to reset one (e.g.
        ``with_scheduling(participation=None)`` restores full
        participation).
        """
        return self._with("scheduling", options)

    def with_population(self, **options) -> "ExperimentConfig":
        """A copy of this configuration with a different ``population``.

        ``population`` virtualizes the client roster to that many lazily
        constructed clients (each reusing one of the base data partitions
        round-robin); pass ``None`` to restore the eager roster.
        """
        return self._with("population", options)

    def with_model(self, model: str, **model_kwargs) -> "ExperimentConfig":
        """A copy of this configuration targeting a different estimator."""
        return replace(
            self,
            name=f"{self.name.split(':')[0]}:{model}",
            model=model,
            model_kwargs=dict(model_kwargs) if model_kwargs else dict(self.model_kwargs),
        )

    def with_algorithms(self, algorithms: Sequence[str]) -> "ExperimentConfig":
        """A copy of this configuration running only the given algorithms."""
        return replace(self, algorithms=tuple(algorithms))


def paper(model: str = "flnet", seed: int = 0) -> ExperimentConfig:
    """The paper's full-scale configuration (Section 5.1 hyper-parameters)."""
    return ExperimentConfig(
        name=f"paper:{model}",
        model=model,
        corpus=CorpusConfig(
            grid_width=32,
            grid_height=32,
            placement_scale=1.0,
            min_placements_per_design=4,
            base_seed=2022,
        ),
        fl=FLConfig(seed=seed),
        seed=seed,
    )


def default(model: str = "flnet", seed: int = 0) -> ExperimentConfig:
    """The laptop-scale configuration used by the benchmark harness.

    Rounds, steps, and dataset size are reduced by roughly two orders of
    magnitude relative to the paper; the learning rate is raised accordingly
    and the centralized baseline receives a proportionally larger step budget
    so it remains the empirical upper bound it is meant to be.
    """
    fl = FLConfig(
        rounds=3,
        local_steps=6,
        finetune_steps=30,
        learning_rate=2e-3,
        batch_size=4,
        centralized_steps=72,
        local_steps_total=24,
        ifca_eval_batches=1,
        seed=seed,
    )
    corpus = CorpusConfig(
        grid_width=16,
        grid_height=16,
        placement_scale=0.02,
        min_placements_per_design=2,
        base_seed=2022,
    )
    return ExperimentConfig(name=f"default:{model}", model=model, corpus=corpus, fl=fl, seed=seed)


def smoke(model: str = "flnet", seed: int = 0) -> ExperimentConfig:
    """A seconds-scale configuration for integration tests.

    Uses a reduced client roster (one client per benchmark suite) and very
    small training budgets; it exercises every code path without trying to
    produce meaningful accuracy numbers.
    """
    specs = (
        ClientSpec(1, "itc99", 2, 1, 8, 4),
        ClientSpec(2, "iscas89", 2, 1, 8, 4),
        ClientSpec(3, "iwls05", 2, 1, 8, 4),
    )
    fl = FLConfig(
        rounds=2,
        local_steps=2,
        finetune_steps=4,
        learning_rate=5e-3,
        batch_size=2,
        num_clusters=2,
        assigned_clusters=((1, 0), (2, 1), (3, 1)),
        ifca_eval_batches=1,
        seed=seed,
    )
    corpus = CorpusConfig(
        grid_width=16,
        grid_height=16,
        placement_scale=0.01,
        min_placements_per_design=2,
        base_seed=7,
    )
    return ExperimentConfig(
        name=f"smoke:{model}",
        model=model,
        corpus=corpus,
        fl=fl,
        client_specs=specs,
        seed=seed,
    )


PRESETS = {"paper": paper, "default": default, "smoke": smoke}


def preset(name: str, model: str = "flnet", seed: int = 0) -> ExperimentConfig:
    """Look up a preset by name (``paper``, ``default``, or ``smoke``)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](model=model, seed=seed)
