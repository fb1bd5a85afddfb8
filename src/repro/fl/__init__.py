"""Decentralized (federated) training framework.

This subpackage is the paper's primary contribution area: the decentralized
training loop (Figure 1), the FedProx objective (Equation 1), and the five
personalization techniques (Figure 2), together with the local-only and
centralized baselines used as the lower and upper reference points of
Tables 3-5.

Overview
--------
The framework separates four concerns:

clients and local computation
    :class:`FederatedClient` owns one client's private data and performs
    local training (:class:`LocalTrainer`); only parameter states and scalar
    loss summaries ever leave a client.
server-side aggregation
    :class:`FederatedServer` hands out the per-round accumulators every
    round loop folds updates into one at a time (:mod:`repro.fl.aggregation`)
    and computes alpha-portion sync's per-client mixes.
training algorithms
    :data:`ALGORITHMS` maps a configuration name to an algorithm class; see
    the table below for which paper result each one reproduces.  Instantiate
    via :func:`create_algorithm`.
execution
    :mod:`repro.fl.execution` decides where one round's client updates run
    (serial, threads, or local joiner processes) and checkpoints rounds so
    long runs survive interruption.  Backends are bit-identical to each
    other by contract.
scheduling
    :mod:`repro.fl.scheduling` decides *which* clients run each round and
    when their updates land: cohort samplers, availability traces,
    straggler latencies on a deterministic virtual clock, and the round
    policies (synchronous barriers, deadline cutoffs, FedBuff-style
    buffered-asynchronous aggregation).

Algorithm registry
------------------
======================  =====================================================
name                    reproduces
======================  =====================================================
``local``               "Local Average" rows of Tables 3-5 (lower reference)
``centralized``         "Training Centrally on All Data" rows (upper bound)
``fedavg``              FedProx with ``mu = 0`` (McMahan et al., 2017)
``fedprox``             Figure 1 loop with the Equation 1 objective
``fedprox_lg``          local/global partitioning, Figure 2(a)
``ifca``                iterative federated clustering, Figure 2(b)
``assigned_clustering`` prior-knowledge clustering, Figure 2(c)
``fedprox_alpha``       alpha-portion sync, Figure 2(d)
``fedprox_finetune``    FedProx + local fine-tuning, Figure 2(e)
``fedavgm``             server momentum extension (Hsu et al., 2019)
``fedbn``               local normalization layers (Li et al., 2021)
``dp_fedprox``          FedProx with client-level differential privacy
======================  =====================================================
"""

from typing import Dict, Optional, Type

from repro.fl.algorithms import (
    Centralized,
    DPFedProx,
    FedAvg,
    FedAvgM,
    FedBN,
    FederatedAlgorithm,
    FedProx,
    LocalOnly,
    ModelFactory,
    RoundAlgorithm,
    SeededModelFactory,
    TrainingResult,
)
from repro.fl.aggregation import (
    StreamingAccumulator,
    StreamingDeltaAccumulator,
    UpdateAccumulator,
)
from repro.fl.client import FederatedClient, initial_rng_state
from repro.fl.population import ClientDirectory
from repro.fl.communication import (
    BYTES_PER_FLOAT32,
    estimate_communication,
    state_bytes,
)
from repro.fl.transport import (
    CODECS,
    Channel,
    ChannelSummary,
    Codec,
    IdentityCodec,
    Payload,
    QuantizationCodec,
    TopKCodec,
    TransportDecodeError,
    TransportOptions,
    create_channel,
)
from repro.fl.scheduling import (
    AVAILABILITY_CHOICES,
    SAMPLER_CHOICES,
    STRAGGLER_CHOICES,
    AvailabilityModel,
    ClientSampler,
    FullParticipation,
    LatencyModel,
    RoundScheduler,
    SchedulingOptions,
    SchedulingSummary,
    VirtualClock,
    create_availability,
    create_latency,
    create_sampler,
    create_scheduler,
)
from repro.fl.config import FLConfig
from repro.fl.execution import (
    BACKENDS,
    CheckpointManager,
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    ExecutionOptions,
    ThreadPoolBackend,
    RoundCheckpoint,
    SerialBackend,
    create_backend,
)
from repro.fl.faults import (
    ClientExecutionError,
    FaultPlan,
    QuorumFailure,
    ResilienceManager,
    ResilienceOptions,
    ResilienceSummary,
    RetryPolicy,
    TaskFailure,
    create_resilience,
)
from repro.fl.evaluation import EvaluationRow, evaluate_result
from repro.fl.parameters import (
    FlatState,
    State,
    StateLayout,
    as_flat_state,
    clone_state,
    filter_state,
    flat_model_state,
    flatten_state,
    merge_partition,
    state_distance,
    state_norm,
    state_vector,
    weighted_average,
    zeros_like_state,
)
from repro.fl.privacy import (
    GaussianAccountant,
    PrivacyConfig,
    PrivateUpdateLog,
    apply_update,
    privatize_update,
    state_update,
)
from repro.fl.personalization import (
    IFCA,
    AlphaPortionSync,
    AssignedClustering,
    FedProxFineTuning,
    FedProxLG,
)
from repro.fl.server import FederatedServer
from repro.fl.trainer import LocalTrainer, StepStatistics, predict_dataset

# Imported after repro.fl.execution so the import side effect can register
# the "wire" and "process" backends into BACKENDS.
from repro.fl.net import (
    FederationServer as WireFederationServer,
    ProcessPoolBackend,
    WireBackend,
    WireFaultPlan,
    WireOptions,
    run_client,
)

#: Registry of every training algorithm, keyed by its configuration name.
ALGORITHMS: Dict[str, Type[FederatedAlgorithm]] = {
    LocalOnly.name: LocalOnly,
    Centralized.name: Centralized,
    FedAvg.name: FedAvg,
    FedProx.name: FedProx,
    FedProxLG.name: FedProxLG,
    IFCA.name: IFCA,
    FedProxFineTuning.name: FedProxFineTuning,
    AssignedClustering.name: AssignedClustering,
    AlphaPortionSync.name: AlphaPortionSync,
    FedAvgM.name: FedAvgM,
    FedBN.name: FedBN,
    DPFedProx.name: DPFedProx,
}


def create_algorithm(
    name: str,
    clients,
    model_factory,
    config: FLConfig,
    backend: Optional[ExecutionBackend] = None,
    checkpoint: Optional[CheckpointManager] = None,
    channel: Optional[Channel] = None,
    scheduler: Optional[RoundScheduler] = None,
    server: Optional[FederatedServer] = None,
    resilience: Optional[ResilienceManager] = None,
) -> FederatedAlgorithm:
    """Instantiate a training algorithm from the registry by name.

    Parameters
    ----------
    name:
        A key of :data:`ALGORITHMS` (case-insensitive).
    clients / model_factory / config:
        Forwarded to the algorithm constructor.
    server:
        Optional :class:`FederatedServer`; defaults to a fresh server.
        There is one aggregation: each update is folded into a per-round
        accumulator and its client released right after; up to 32 updates
        are written into matrix rows and averaged by ``weighted_average``'s
        GEMV bit for bit, beyond that the fold is an O(P) running sum (see
        :mod:`repro.fl.aggregation`).
    backend:
        Execution backend running the per-round client updates; defaults to
        :class:`SerialBackend`.  Pass :class:`ProcessPoolBackend` (or use
        :func:`create_backend`) to parallelize rounds across local joiner
        processes.
    checkpoint:
        Optional :class:`CheckpointManager` enabling per-round
        checkpoint/resume.
    channel:
        Optional transport :class:`Channel` every broadcast and upload of
        the run passes through (wire codec + measured byte accounting).  A
        channel is stateful; use a fresh one per algorithm run.
    scheduler:
        Optional :class:`~repro.fl.scheduling.RoundScheduler` driving
        partial participation, availability, stragglers, and the round
        policy (sync / deadline / fedbuff); defaults to the inert one (every
        client, every round).  A scheduler is stateful; use a fresh one per
        algorithm run.
    resilience:
        Optional :class:`~repro.fl.faults.ResilienceManager` supervising
        every client pass (deterministic fault injection, retries with
        backoff, quorum-gated round commits); defaults to one that absorbs
        nothing, so the first failed client task raises
        :class:`ClientExecutionError`.  Stateful; use a fresh one per
        algorithm run (or build one from a
        :class:`~repro.fl.faults.ResilienceOptions` via
        :func:`~repro.fl.faults.create_resilience`).

    ``checkpoint``, ``scheduler`` and ``resilience`` drive the round loop
    every :class:`RoundAlgorithm` runs; the round-less ``local`` and
    ``centralized`` baselines hold the inert defaults whatever is passed.
    """
    key = name.lower()
    if key not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}")
    cls = ALGORITHMS[key]
    if not issubclass(cls, RoundAlgorithm):
        checkpoint = scheduler = resilience = None
    return cls(
        clients,
        model_factory,
        config,
        server=server,
        backend=backend,
        checkpoint=checkpoint,
        channel=channel,
        scheduler=scheduler,
        resilience=resilience,
    )


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionOptions",
    "SerialBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "ClientTask",
    "ClientUpdate",
    "create_backend",
    "WireBackend",
    "WireFaultPlan",
    "WireOptions",
    "WireFederationServer",
    "run_client",
    "FaultPlan",
    "RetryPolicy",
    "ResilienceManager",
    "ResilienceOptions",
    "ResilienceSummary",
    "create_resilience",
    "TaskFailure",
    "ClientExecutionError",
    "QuorumFailure",
    "CheckpointManager",
    "RoundCheckpoint",
    "FLConfig",
    "FederatedClient",
    "FederatedServer",
    "initial_rng_state",
    "ClientDirectory",
    "UpdateAccumulator",
    "StreamingAccumulator",
    "StreamingDeltaAccumulator",
    "LocalTrainer",
    "StepStatistics",
    "predict_dataset",
    "FederatedAlgorithm",
    "RoundAlgorithm",
    "TrainingResult",
    "ModelFactory",
    "SeededModelFactory",
    "LocalOnly",
    "Centralized",
    "FedAvg",
    "FedProx",
    "FedProxLG",
    "IFCA",
    "FedProxFineTuning",
    "AssignedClustering",
    "AlphaPortionSync",
    "FedAvgM",
    "FedBN",
    "DPFedProx",
    "ALGORITHMS",
    "create_algorithm",
    "PrivacyConfig",
    "GaussianAccountant",
    "PrivateUpdateLog",
    "privatize_update",
    "state_update",
    "apply_update",
    "BYTES_PER_FLOAT32",
    "state_bytes",
    "estimate_communication",
    "SAMPLER_CHOICES",
    "AVAILABILITY_CHOICES",
    "STRAGGLER_CHOICES",
    "ClientSampler",
    "FullParticipation",
    "AvailabilityModel",
    "LatencyModel",
    "VirtualClock",
    "RoundScheduler",
    "SchedulingOptions",
    "SchedulingSummary",
    "create_sampler",
    "create_availability",
    "create_latency",
    "create_scheduler",
    "CODECS",
    "Codec",
    "IdentityCodec",
    "QuantizationCodec",
    "TopKCodec",
    "TransportDecodeError",
    "Payload",
    "Channel",
    "ChannelSummary",
    "TransportOptions",
    "create_channel",
    "EvaluationRow",
    "evaluate_result",
    "State",
    "FlatState",
    "StateLayout",
    "as_flat_state",
    "flat_model_state",
    "state_vector",
    "weighted_average",
    "merge_partition",
    "filter_state",
    "clone_state",
    "zeros_like_state",
    "state_distance",
    "state_norm",
    "flatten_state",
]
