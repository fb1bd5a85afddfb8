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
from repro.fl.execution import ExecutionOptions
from repro.fl.faults import ResilienceOptions
from repro.fl.net import WireOptions
from repro.fl.scheduling import SchedulingOptions
from repro.fl.transport import TransportOptions
from repro.models.registry import available_models
from repro.utils.validation import check_positive

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

    Beside the experiment itself (model, corpus, ``fl`` hyper-parameters,
    algorithms, roster, seed) it composes one frozen option group per
    subsystem — ``execution``, ``transport``, ``scheduling``, ``resilience``,
    ``wire`` — each declared (fields, defaults, ranges, CLI help) next to
    the code that consumes it; see ``docs/architecture.md``, "Configuration
    plumbing".  Read an option as ``config.scheduling.deadline``; change one
    with the matching ``with_<group>(**options)`` builder, whose keywords
    are the group's field names.  All groups default to "off": the default
    configuration runs the full cohort synchronously, in-process and
    unsupervised.  The groups validate their own fields; only the rules
    that span groups live here.  The local-training arithmetic dtype is
    ``fl.compute_dtype`` (``with_execution(compute_dtype="float32")`` opts
    into the fast path).
    """

    name: str
    model: str = "flnet"
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    fl: FLConfig = field(default_factory=FLConfig)
    algorithms: Tuple[str, ...] = TABLE_ALGORITHMS
    client_specs: Tuple[ClientSpec, ...] = TABLE2_CLIENTS
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    execution: ExecutionOptions = ExecutionOptions()
    transport: TransportOptions = TransportOptions()
    scheduling: SchedulingOptions = SchedulingOptions()
    population: Optional[int] = field(default=None, metadata={
        "help": "virtualize the roster to this many lazily constructed clients "
        "(each reusing one base data partition round-robin); requires "
        "--clients-per-round or --participation so only the sampled cohort "
        "is ever built",
    })
    resilience: ResilienceOptions = ResilienceOptions()
    wire: WireOptions = WireOptions()

    def __post_init__(self):
        if self.model.lower() not in available_models():
            raise ValueError(
                f"unknown model {self.model!r}; available: {available_models()}"
            )
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if self.scheduling.round_policy == "fedbuff":
            # Fail at configuration time, not after earlier algorithms of the
            # experiment have already trained for minutes.
            from repro.fl import ALGORITHMS, GlobalModelAlgorithm

            blocked = [
                name
                for name in self.algorithms
                if name in ALGORITHMS
                and issubclass(ALGORITHMS[name], GlobalModelAlgorithm)
                and not ALGORITHMS[name].supports_fedbuff
            ]
            if blocked:
                raise ValueError(
                    f"round policy 'fedbuff' is not supported by {blocked}; "
                    "choose sync or deadline, or drop those algorithms "
                    "(fedbuff needs delta-style aggregation: fedavg / fedprox / "
                    "fedprox_finetune)"
                )
            if self.resilience.requested:
                raise ValueError(
                    "fault tolerance (quorum / fault injection / retries) is not "
                    "supported with the fedbuff round policy; choose sync or deadline"
                )
        if self.population is not None:
            check_positive("population", self.population)
            if self.execution.backend == "wire":
                raise ValueError(
                    "backend 'wire' needs an eager client roster; population "
                    "virtualization is not supported over the wire"
                )
            if self.scheduling.participation is None and self.scheduling.clients_per_round is None:
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

    def _with(self, group: str, options: Dict[str, object]) -> "ExperimentConfig":
        """A copy with ``options`` replaced inside one group — every ``with_<group>``.

        ``dataclasses.replace`` gives the builder contract: an omitted option
        keeps its value, ``None`` resets it, a keyword that is not a field of
        the group raises ``TypeError``, and the group's and the cross-group
        rules are re-checked.
        """
        return replace(self, **{group: replace(getattr(self, group), **options)})

    def with_execution(self, **options) -> "ExperimentConfig":
        """A copy with different :class:`~repro.fl.ExecutionOptions`.

        Also accepts ``compute_dtype``, the local-training arithmetic dtype,
        which lives on the nested :class:`~repro.fl.FLConfig` (``None``
        resets it to float64).
        """
        config = self
        if "compute_dtype" in options:
            dtype = options.pop("compute_dtype") or "float64"
            config = replace(self, fl=replace(self.fl, compute_dtype=dtype))
        return config._with("execution", options)

    def with_transport(self, **options) -> "ExperimentConfig":
        """A copy with different :class:`~repro.fl.TransportOptions`."""
        return self._with("transport", options)

    def with_scheduling(self, **options) -> "ExperimentConfig":
        """A copy with different :class:`~repro.fl.SchedulingOptions`."""
        return self._with("scheduling", options)

    def with_resilience(self, **options) -> "ExperimentConfig":
        """A copy with different :class:`~repro.fl.ResilienceOptions`."""
        return self._with("resilience", options)

    def with_wire(self, **options) -> "ExperimentConfig":
        """A copy with different :class:`~repro.fl.WireOptions`.

        These only take effect when the execution backend is ``"wire"``
        (``with_execution(backend="wire")``, which ``repro serve`` sets).
        """
        return self._with("wire", options)

    def with_population(self, population: Optional[int]) -> "ExperimentConfig":
        """A copy of this configuration with a different ``population``.

        ``population`` virtualizes the client roster to that many lazily
        constructed clients (each reusing one of the base data partitions
        round-robin); pass ``None`` to restore the eager roster.
        """
        return replace(self, population=population)

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
