"""Common machinery of decentralized training algorithms."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.aggregation import UpdateAccumulator
from repro.fl.client import FederatedClient
from repro.fl.config import FLConfig
from repro.fl.execution import (
    CheckpointManager,
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    RoundCheckpoint,
    SerialBackend,
)
from repro.fl.faults import ResilienceManager, ResilienceOptions, create_resilience
from repro.fl.ledger import RoundLedger
from repro.fl.parameters import State, flat_model_state
from repro.fl.scheduling import RoundScheduler, SchedulingOptions, create_scheduler
from repro.fl.server import FederatedServer
from repro.fl.transport import Channel
from repro.models.base import RoutabilityModel

ModelFactory = Callable[[], RoutabilityModel]

logger = logging.getLogger("repro.fl")

#: Transport modes accepted by :meth:`FederatedAlgorithm.map_client_updates`.
TRANSPORT_BOTH = "both"  # broadcast and upload cross the channel (a round)
TRANSPORT_DOWN = "down"  # broadcast only (results stay on the client)
TRANSPORT_NONE = "none"  # no communication (e.g. locally created states)
_TRANSPORT_MODES = (TRANSPORT_BOTH, TRANSPORT_DOWN, TRANSPORT_NONE)


@dataclass
class RoundRecord:
    """Summary of one communication round (or one training stage)."""

    round_index: int
    mean_loss: float
    per_client_loss: Dict[int, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class TrainingResult:
    """Output of a decentralized training algorithm.

    ``global_state`` is the generalized model (if the algorithm produces
    one); ``client_states`` holds personalized per-client models (if any).
    Evaluation uses :meth:`state_for_client`, which prefers the personalized
    state and falls back to the global one — mirroring how the paper
    evaluates generalized vs. personalized methods with one interface.
    """

    algorithm: str
    global_state: Optional[State] = None
    client_states: Dict[int, State] = field(default_factory=dict)
    history: List[RoundRecord] = field(default_factory=list)

    def state_for_client(self, client_id: int) -> State:
        if client_id in self.client_states:
            return self.client_states[client_id]
        if self.global_state is not None:
            return self.global_state
        raise KeyError(
            f"result of {self.algorithm!r} has neither a personalized state for "
            f"client {client_id} nor a global state"
        )

    def final_loss(self) -> float:
        """Mean loss of the final recorded round (NaN when no history exists)."""
        if not self.history:
            return float("nan")
        return self.history[-1].mean_loss


class FederatedAlgorithm:
    """Base class for every training algorithm (federated or baseline).

    A communication round is expressed as *map client tasks over the
    participating clients, then aggregate*: subclasses build the per-client
    starting states and call :meth:`map_client_updates`, which delegates the
    client-side computation to an :class:`~repro.fl.execution.ExecutionBackend`
    (serial by default, process-parallel with
    :class:`~repro.fl.net.backend.ProcessPoolBackend`'s local joiners).

    When a :class:`~repro.fl.transport.Channel` is attached, every broadcast
    (server → client) and upload (client → server) of the round passes
    through its wire codec: clients train from the decoded downlink payload
    and the server aggregates the decoded uploads, with every payload's real
    byte size recorded by the channel.  Without a channel, states
    move raw and in-process (the pre-transport behavior).

    Every algorithm holds a :class:`~repro.fl.scheduling.RoundScheduler` and
    a :class:`~repro.fl.faults.ResilienceManager`; one not handed in is the
    inert default of its options (every client, every round; the first
    failed client task raises).  Its :class:`~repro.fl.ledger.RoundLedger`
    records who folded, who was late and who failed.
    """

    #: Registry / display name, overridden by subclasses.
    name: str = "base"

    #: Whether :meth:`run` implements the FedBuff buffered-asynchronous
    #: round policy.  Requires delta-style aggregation; only the FedProx
    #: family supports it.
    supports_fedbuff: bool = False

    def __init__(
        self,
        clients: Sequence[FederatedClient],
        model_factory: ModelFactory,
        config: FLConfig,
        server: Optional[FederatedServer] = None,
        backend: Optional[ExecutionBackend] = None,
        checkpoint: Optional[CheckpointManager] = None,
        channel: Optional[Channel] = None,
        scheduler: Optional[RoundScheduler] = None,
        resilience: Optional[ResilienceManager] = None,
    ):
        if not clients:
            raise ValueError("at least one client is required")
        self.clients: List[FederatedClient] = list(clients)
        self.model_factory = model_factory
        self.config = config
        self.server = server if server is not None else FederatedServer()
        self.backend = backend if backend is not None else SerialBackend()
        self.backend.bind(self.clients)
        self.checkpoint = checkpoint
        self.channel = channel
        self.scheduler = scheduler or create_scheduler(SchedulingOptions())
        self.resilience = resilience or create_resilience(ResilienceOptions())
        self.scheduler.bind(self.clients)
        if self.scheduler.policy == "fedbuff":
            if not self.supports_fedbuff:
                raise ValueError(
                    f"algorithm {self.name!r} does not support the fedbuff round "
                    "policy; choose sync or deadline (or run fedavg/fedprox)"
                )
            if self.resilience.absorbs_failures:
                raise ValueError(
                    "fault tolerance (quorum/faults/retries) is not supported under "
                    "the fedbuff round policy yet; choose sync or deadline"
                )
            if checkpoint is not None:
                # In-flight (dispatched, not yet aggregated) work is not part
                # of a round checkpoint; a resumed fedbuff run re-dispatches
                # from the checkpointed model instead of replaying lost flights.
                logger.warning(
                    "%s: fedbuff checkpoints cover aggregations, not in-flight "
                    "updates; a resumed run is deterministic but not bit-identical "
                    "to an uninterrupted one",
                    self.name,
                )
        # Retry backoff elapses on the scheduler's virtual clock, so waits
        # and straggler latencies share a timeline.
        self.resilience.clock = self.scheduler.clock
        self.ledger = RoundLedger(self.clients, self.scheduler, self.resilience)
        if channel is not None and checkpoint is not None:
            if channel.error_feedback:
                logger.warning(
                    "%s: error-feedback residuals are not checkpointed; a resumed run "
                    "will not be bit-identical to an uninterrupted one",
                    self.name,
                )
            logger.warning(
                "%s: the transport channel's measured byte totals are not "
                "checkpointed; after a resume, reported communication covers "
                "only the rounds trained in this process",
                self.name,
            )

    # -- helpers shared by subclasses -------------------------------------------
    def client_weights(self) -> List[float]:
        """Aggregation weights ``n_k`` (training sample counts)."""
        return [float(client.num_samples) for client in self.clients]

    def initial_state(self) -> State:
        """A fresh global model initialization (packed into a flat buffer)."""
        return flat_model_state(self.model_factory())

    def map_client_updates(
        self,
        states: Union[State, Sequence[State]],
        steps: Optional[int] = None,
        proximal_mu: Optional[float] = None,
        op: str = "train",
        transport: str = TRANSPORT_BOTH,
        upload_names: Optional[Sequence[str]] = None,
        cohort: Optional[Sequence[int]] = None,
        on_arrival: Optional[Callable[[ClientUpdate], None]] = None,
    ) -> List[ClientUpdate]:
        """Run one client-side pass over the participating clients.

        ``cohort`` is the round's participating roster indices (from a
        :class:`~repro.fl.scheduling.RoundScheduler` plan); ``None`` means
        every client participates.  ``states`` is either a single global
        :data:`State` broadcast to every participant or a sequence aligned
        with the participants (one personalized starting state each).

        Updates come back in arrival order — participant order on every
        backend, with retried clients after the wave they failed in (clients
        that exhaust their retries are absent; see
        :meth:`~repro.fl.faults.ResilienceManager.supervise`).  Each update is
        finished in the coordinating process (decoded; delta references and
        error feedback applied; measured bytes recorded) as it arrives, then
        handed to ``on_arrival`` before the next one is awaited, so a round
        loop can fold and release update ``i`` while ``i+1..`` still train.

        ``transport`` says which directions of this pass are real
        communication when a channel is attached: ``"both"`` (a normal
        round: broadcast down, upload back), ``"down"`` (broadcast only —
        e.g. fine-tuning, whose personalized result stays on the client),
        or ``"none"`` (no wire at all — e.g. locally created initial
        states).  ``upload_names`` restricts the upload to a subset of the
        state (FedBN / FedProx-LG ship only their shared part; the private
        part returns untouched).  Without a channel both flags are
        irrelevant: states move raw.
        """
        if transport not in _TRANSPORT_MODES:
            raise ValueError(
                f"unknown transport mode {transport!r}; expected one of {_TRANSPORT_MODES}"
            )
        if cohort is None:
            indices = list(range(len(self.clients)))
        else:
            indices = [int(index) for index in cohort]
            if any(index < 0 or index >= len(self.clients) for index in indices):
                raise ValueError(
                    f"cohort indices {indices} out of range for {len(self.clients)} clients"
                )
        if isinstance(states, dict):
            per_client: Sequence[State] = [states] * len(indices)
        else:
            per_client = list(states)
            if len(per_client) != len(indices):
                raise ValueError(
                    f"got {len(per_client)} states for {len(indices)} participating "
                    "clients; pass one state per participant or a single broadcast state"
                )

        if self.channel is None or transport == TRANSPORT_NONE:
            tasks = [
                ClientTask(
                    client_index=index,
                    state=state,
                    op=op,
                    steps=steps,
                    proximal_mu=proximal_mu,
                )
                for index, state in zip(indices, per_client)
            ]

            def finish(update: ClientUpdate) -> ClientUpdate:
                return update

        else:
            wire_tasks = self.channel.broadcast(
                per_client,
                [self.clients[index].client_id for index in indices],
                expect_upload=transport == TRANSPORT_BOTH,
                partial_upload=upload_names is not None,
            )
            tasks = [
                ClientTask(
                    client_index=index,
                    wire=wire,
                    op=op,
                    steps=steps,
                    proximal_mu=proximal_mu,
                )
                for index, wire in zip(indices, wire_tasks)
            ]

            def finish(update: ClientUpdate) -> ClientUpdate:
                if transport == TRANSPORT_BOTH:
                    update.state = self.channel.receive(
                        update.client_id,
                        state=update.state,
                        payload=update.payload,
                        upload_names=upload_names,
                    )
                    update.payload = None
                return update

        # Supervised dispatch: fault injection, retries with backoff,
        # per-client RNG snapshot/restore; supervise() finishes each survivor
        # itself.
        updates: List[ClientUpdate] = []
        for update in self.resilience.supervise(self.backend, tasks, finish, self.clients):
            if on_arrival is not None:
                on_arrival(update)
            updates.append(update)
        return updates

    def _round_record(
        self,
        round_index: int,
        per_client_loss: Dict[int, float],
        extra: Optional[Dict[str, object]] = None,
    ) -> RoundRecord:
        mean_loss = float(np.mean(list(per_client_loss.values()))) if per_client_loss else float("nan")
        return RoundRecord(
            round_index=round_index,
            mean_loss=mean_loss,
            per_client_loss=dict(per_client_loss),
            extra=dict(extra or {}),
        )

    # -- interface ------------------------------------------------------------------
    def run(self) -> TrainingResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(clients={len(self.clients)})"


class RoundAlgorithm(FederatedAlgorithm):
    """An algorithm that trains in communication rounds, on the one round loop.

    Every federated row, global-model and personalised.  Being one is the
    capability fact: only these honor a :class:`CheckpointManager`, a
    requested :class:`~repro.fl.scheduling.RoundScheduler` and a requested
    :class:`~repro.fl.faults.ResilienceManager`; the round-less baselines
    hold the inert defaults.

    :meth:`run` is init → :meth:`load_checkpoint` → :meth:`_run_rounds`,
    the one round loop of every round policy → :meth:`_finish`.  The loop
    carries one state across rounds — the global model, or what stands for
    it in a checkpoint; whatever else the server keeps lives on the
    instance.  A subclass supplies only what differs: each participant's start state
    (:meth:`_start_states`); what a kept update folds into, and the
    per-client record the server keeps from it (:meth:`_new_accumulators`,
    :meth:`_fold_update` — a client outside the cohort or past the deadline
    keeps its record); the new state from the round's folds
    (:meth:`_server_step`, by default :meth:`_apply_average`); and the
    per-run state kept beside it (:meth:`_begin_run`,
    :meth:`_checkpoint_extras`).
    """

    #: The entries every upload ships (``None``: the whole state).
    _upload_names: Optional[List[str]] = None

    #: The ``FLConfig`` fields the server rule reads; each is fingerprinted.
    server_rule_config: Tuple[str, ...] = ()

    def proximal_mu(self) -> float:
        """Proximal strength of every client pass; :class:`FedAvg` uses 0."""
        return self.config.proximal_mu

    # -- checkpointing ------------------------------------------------------------
    def checkpoint_fingerprint(self) -> Dict[str, object]:
        """Identifies the run a checkpoint belongs to.

        Stored with every checkpoint and validated on load, so resuming from
        a directory written by a different algorithm, seed, or client roster
        fails loudly instead of silently continuing from mismatched weights.
        The round budget is deliberately excluded: a checkpoint from a
        shorter run is legitimately resumable into a longer one.  The
        transport settings are included whenever a channel is attached:
        resuming a lossy-compressed run without its codec (or vice versa)
        would silently mix trajectories.  Channel-less runs omit the key
        entirely so checkpoints written before the transport layer existed
        stay resumable.
        """
        fingerprint: Dict[str, object] = {}
        if not self.scheduler.inert:
            # Resuming a partial-participation run under a different sampler,
            # straggler model, or round policy would silently diverge from
            # the uninterrupted trajectory.  An inert scheduler draws
            # nothing, so its run omits the key and older checkpoints stay
            # resumable.
            fingerprint["scheduling"] = self.scheduler.describe()
        if self.channel is not None:
            fingerprint["transport"] = {
                "uplink": self.channel.uplink_codec.describe(),
                "downlink": self.channel.downlink_codec.describe(),
                "delta_upload": self.channel.delta_upload,
                "error_feedback": self.channel.error_feedback,
            }
        if self.config.compute_dtype != "float64":
            # A float32 trajectory is not bit-compatible with a float64 one;
            # resuming across the dtype switch must fail loudly.  Default
            # (float64) runs omit the key so pre-engine checkpoints stay
            # resumable.
            fingerprint["compute_dtype"] = self.config.compute_dtype
        if self.resilience.plan.any_faults:
            # Resuming a chaos run under a different fault plan would
            # silently change which clients fail; fault-free runs omit the
            # key so their checkpoints stay interchangeable with
            # pre-resilience ones.  Quorum and the
            # retry policy are deliberately *excluded*: they are
            # operational knobs a resume may legitimately relax (e.g.
            # lowering --quorum to get past the round that failed).
            fingerprint["faults"] = self.resilience.describe()
        fingerprint.update({
            "algorithm": self.name,
            "seed": self.config.seed,
            "local_steps": self.config.local_steps,
            "learning_rate": self.config.learning_rate,
            "batch_size": self.config.batch_size,
            "proximal_mu": self.config.proximal_mu,
            "optimizer": self.config.optimizer,
            "weight_decay": self.config.weight_decay,
            "loss": self.config.loss,
            "client_ids": [client.client_id for client in self.clients],
        })
        fingerprint.update((name, getattr(self.config, name)) for name in self.server_rule_config)
        return fingerprint

    def load_checkpoint(self, reference_state: Optional[State] = None) -> Optional[RoundCheckpoint]:
        """Load the latest round checkpoint (if any) and restore client RNGs.

        ``reference_state`` is a freshly initialized global state of the
        current run; when given, the checkpointed state must have the same
        parameter names and shapes (catching a model switch between runs).
        Raises ``ValueError`` when the checkpoint was written by a different
        run (see :meth:`checkpoint_fingerprint`).
        """
        if self.checkpoint is None:
            return None
        resumed = self.checkpoint.load_latest()
        if resumed is None:
            return None
        recorded = resumed.extra_meta.get("fingerprint")
        # Compared as it was stored: JSON turns tuples into lists.
        expected = json.loads(json.dumps(self.checkpoint_fingerprint()))
        if recorded is not None and recorded != expected:
            raise ValueError(
                f"checkpoint in {self.checkpoint.directory} was written by a different "
                f"run (recorded {recorded}, expected {expected}); clear the directory "
                "or point the checkpoint option elsewhere"
            )
        if reference_state is not None:
            same_model = set(resumed.global_state) == set(reference_state) and all(
                resumed.global_state[key].shape == np.asarray(reference_state[key]).shape
                for key in reference_state
            )
            if not same_model:
                raise ValueError(
                    f"checkpoint in {self.checkpoint.directory} holds a different model "
                    "(parameter names/shapes do not match the current configuration); "
                    "clear the directory or point the checkpoint option elsewhere"
                )
        self.checkpoint.restore_clients(self.clients, resumed)
        # Checkpoints of default runs written before every run was scheduled
        # and supervised carry neither state.
        if "scheduler_state" in resumed.extra_meta:
            # Restore sampler/availability/latency RNGs and the virtual
            # clock, so the resumed run draws the same cohorts as an
            # uninterrupted one.
            self.scheduler.set_state(resumed.extra_meta["scheduler_state"])
        if "resilience_state" in resumed.extra_meta:
            # Restore the fault plan's draw counters and the retry
            # accounting, so the resumed chaos run replays the exact
            # fault/retry sequence of an uninterrupted one.
            self.resilience.set_state(resumed.extra_meta["resilience_state"])
        # The failed clients and the participation totals, so the resumed
        # run leaves out the same clients and reports the same totals.
        self.ledger.set_state(resumed.extra_meta)
        logger.info(
            "%s: resuming from checkpoint round %d in %s",
            self.name,
            resumed.round_index,
            self.checkpoint.directory,
        )
        if resumed.round_index + 1 >= self.config.rounds:
            logger.warning(
                "%s: checkpoint in %s already covers all %d configured rounds; "
                "returning the checkpointed state without further training",
                self.name,
                self.checkpoint.directory,
                self.config.rounds,
            )
        return resumed

    def save_checkpoint(self, round_index: int, global_state: State) -> None:
        """Persist one completed round (no-op without a checkpoint manager)."""
        if self.checkpoint is not None:
            extra_states, extra_meta = self._checkpoint_extras()
            meta = dict(extra_meta)
            meta["fingerprint"] = self.checkpoint_fingerprint()
            meta["scheduler_state"] = self.scheduler.state()
            meta["resilience_state"] = self.resilience.state()
            meta["ledger_state"] = self.ledger.state()
            self.checkpoint.save(
                round_index,
                global_state,
                self.clients,
                extra_states=extra_states,
                extra_meta=meta,
            )

    # -- what a subclass supplies ---------------------------------------------------
    def _begin_run(self, global_state: State, resumed: Optional[RoundCheckpoint]) -> None:
        """Set up the per-run state kept beside the loop's state.

        ``global_state`` is the fresh initialization; ``resumed`` is the
        checkpoint being resumed (``None`` for a fresh run), whose
        :meth:`_checkpoint_extras` this restores.
        """

    def _checkpoint_extras(self) -> Tuple[Dict[str, State], Dict[str, object]]:
        """``(extra_states, extra_meta)`` a round checkpoint carries for this algorithm."""
        return {}, {}

    def _start_states(self, global_state: State, cohort: Sequence[int]) -> Union[State, List[State]]:
        """What the cohort trains from: by default the global state, broadcast."""
        return global_state

    def _new_accumulators(self) -> List[UpdateAccumulator]:
        """The round's fold targets, made at its first arrival: one global average."""
        return [self.server.accumulator()]

    def _weight(self, update: ClientUpdate) -> float:
        """An update's aggregation weight ``n_k`` (its client's sample count)."""
        return float(self.clients[update.client_index].num_samples)

    def _fold_update(self, accumulators, global_state: State, update: ClientUpdate) -> None:
        """Fold one kept update, and record what the server keeps of its client.

        Called in arrival order — which equals cohort order on every
        backend — so a sequential server-side RNG stream (DP-FedProx's
        noise) is backend-independent.
        """
        accumulators[0].fold(update.state, self._weight(update))

    def _apply_average(self, global_state: State, average: State) -> State:
        """The new global state from the round's sample-weighted average."""
        return average

    def _server_step(self, global_state: State, accumulators) -> Tuple[State, Dict[str, object]]:
        """The new state from the round's folds, and the round record's extras.

        An empty accumulator (every selected client missed the deadline)
        leaves the global state unchanged.  The accumulator is read as
        ``result()``, then ``spread()`` — the client drift it folded per arrival.
        """
        accumulator = accumulators[0]
        extra: Dict[str, object] = {}
        if accumulator.count:
            global_state = self._apply_average(global_state, accumulator.result())
            drift = accumulator.spread()
            if drift is not None:
                extra["client_drift"] = drift
        return global_state, extra

    def _finish(self, result: TrainingResult, global_state: State) -> None:
        """Fill the result from the final state and what the server kept."""
        result.global_state = global_state

    # -- the round loop -------------------------------------------------------------
    def _release_client(self, client_index: int) -> None:
        """Free a virtual client's materialized resources (no-op for eager clients)."""
        release = getattr(self.clients[client_index], "release", None)
        if release is not None:
            release()

    def _auto_checkpoint_dir(self) -> Optional[str]:
        """Where a quorum failure's auto-checkpoint lives (if anywhere).

        Checkpoints are saved eagerly at the end of every committed round,
        so the latest checkpoint on disk *is* the resume point when a later
        round fails quorum — no extra save happens at failure time (a
        re-save would have to reconstruct per-algorithm extra states like
        server momentum mid-round).
        """
        return str(self.checkpoint.directory) if self.checkpoint is not None else None

    def run(self) -> TrainingResult:
        result = TrainingResult(algorithm=self.name)
        global_state = self.initial_state()
        resumed = self.load_checkpoint(reference_state=global_state)
        self._begin_run(global_state, resumed)
        start_round = 0
        if resumed is not None:
            start_round = resumed.round_index + 1
            global_state = resumed.global_state
        global_state = self._run_rounds(result, global_state, start_round)
        self._finish(result, global_state)
        return result

    def _run_rounds(self, result: TrainingResult, global_state: State, start_round: int) -> State:
        """The one round loop, under every round policy.

        Each round the ledger runs the scheduler's policy
        (:meth:`~repro.fl.ledger.RoundLedger.round`) over two callbacks:
        ``dispatch`` runs a cohort's client pass through the execution
        backend from :meth:`_start_states` of the round's state, and
        ``fold`` takes each update the moment it arrives — a kept one is
        folded, a late one discarded — and releases its state and client
        right after, so a round holds O(P) per accumulator, independent of
        the cohort size.  A barrier round (``sync`` / ``deadline``)
        dispatches its cohort once and commits it (failures, quorum and
        permanent drops; see :meth:`~repro.fl.ledger.RoundLedger.commit`); a
        FedBuff round refills the clients in flight and folds arrivals until
        its buffer is full.  What is still in flight at the end counts as
        late, and its clients are released too.
        """
        ledger = self.ledger
        for round_index in range(start_round, self.config.rounds):
            # Made at the first arrival, inside the round's client pass:
            # bench/workload.py starts a cycle, and installs or removes its
            # tracing wrappers on new accumulators, where map_client_updates
            # is entered, so a round's accumulators must not predate the call.
            accumulators = None
            per_client_loss: Dict[int, float] = {}  # one entry per folded update

            def dispatch(cohort, on_arrival) -> List[ClientUpdate]:
                self.server.begin_round(len(cohort))
                if not cohort:
                    return []
                return self.map_client_updates(
                    self._start_states(global_state, cohort),
                    steps=self.config.local_steps,
                    proximal_mu=self.proximal_mu(),
                    upload_names=self._upload_names,
                    cohort=cohort,
                    on_arrival=on_arrival,
                )

            def fold(update: ClientUpdate, kept: bool) -> None:
                nonlocal accumulators
                if accumulators is None:
                    accumulators = self._new_accumulators()
                if kept:
                    self._fold_update(accumulators, global_state, update)
                    per_client_loss[update.client_id] = update.stats.mean_loss
                update.state = None
                self._release_client(update.client_index)

            # Drops commit *before* the checkpoint so it already carries the
            # updated permanent-failure set.
            participation = ledger.round(
                round_index, global_state, dispatch, fold, self._auto_checkpoint_dir()
            )
            if accumulators is None:  # nothing arrived
                accumulators = self._new_accumulators()
            global_state, extra = self._server_step(global_state, accumulators)
            self.save_checkpoint(round_index, global_state)
            result.history.append(
                self._round_record(round_index, per_client_loss, extra={**extra, **participation})
            )
        for client_index in ledger.close():
            self._release_client(client_index)
        return global_state


class SeededModelFactory:
    """A model factory producing deterministic but distinct initializations.

    Every call creates a new model seeded by ``base_seed + call index``; this
    is what IFCA uses to initialize ``C`` distinct cluster models while the
    whole experiment stays reproducible.
    """

    def __init__(self, builder: Callable[[int], RoutabilityModel], base_seed: int = 0):
        self._builder = builder
        self._base_seed = int(base_seed)
        self._calls = 0

    def __call__(self) -> RoutabilityModel:
        model = self._builder(self._base_seed + self._calls)
        self._calls += 1
        return model

    def reset(self) -> None:
        """Restart the seed sequence (a fresh factory for a fresh experiment)."""
        self._calls = 0
