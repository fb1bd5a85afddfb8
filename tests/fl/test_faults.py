"""Chaos tier: the fault-tolerant federation runtime.

The central guarantees under test:

* a :class:`FaultPlan` is deterministic for a seed and checkpointable
  (state round-trips bit for bit),
* a fault-free supervised run (quorum 1.0, no injected faults) is
  **bit-identical** to the unsupervised path on every backend (held by the
  parity matrix in ``test_scheduling.py``),
* injected pre-dispatch faults are healed by retries with zero effect on
  the trained model (RNG snapshot/restore),
* payload corruption is caught by the transport CRC and healed by retry,
* sub-quorum rounds raise the typed :class:`QuorumFailure`,
* clients that exhaust their retries are dropped with a recorded weight
  renormalization and the run degrades instead of dying,
* an interrupted chaos run resumes bit-identically (fault draws, retry
  counters, and drops all round-trip through the checkpoint),
* a *real* worker death (``os._exit`` inside a pool worker) is survived by
  respawning the pool and re-dispatching, still bit-identical to serial.
"""

from __future__ import annotations

import os
import time
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from repro.fl import (
    CheckpointManager,
    ClientExecutionError,
    ClientTask,
    FaultPlan,
    FederatedClient,
    FLConfig,
    ProcessPoolBackend,
    QuorumFailure,
    ResilienceManager,
    ResilienceOptions,
    RetryPolicy,
    SchedulingOptions,
    SeededModelFactory,
    SerialBackend,
    TaskFailure,
    ThreadPoolBackend,
    TransportDecodeError,
    create_algorithm,
    create_channel,
    create_resilience,
    create_scheduler,
)
from repro.fl.faults.plan import FaultDecision, check_rates
from repro.fl.parameters import state_digest
from repro.fl.transport.codecs import IdentityCodec, Payload, QuantizationCodec, TopKCodec
from repro.models import FLNet
from repro.nn.serialization import load_state_dict, save_state_dict

TINY_CONFIG = FLConfig(
    rounds=2,
    local_steps=2,
    finetune_steps=3,
    learning_rate=3e-3,
    batch_size=2,
    num_clusters=2,
    assigned_clusters=((1, 0), (2, 1)),
    ifca_eval_batches=1,
    proximal_mu=1e-3,
)


class TinyModelBuilder:
    """Module-level builder so clients stay picklable for the process pool."""

    def __init__(self, channels: int):
        self.channels = channels

    def __call__(self, seed: int) -> FLNet:
        return FLNet(self.channels, hidden_filters=8, kernel_size=5, seed=seed)


def make_factory(num_channels: int) -> SeededModelFactory:
    return SeededModelFactory(TinyModelBuilder(num_channels), base_seed=0)


@pytest.fixture
def make_clients(
    tiny_train_dataset,
    tiny_test_dataset,
    tiny_train_dataset_itc,
    tiny_test_dataset_itc,
    num_channels,
):
    """A callable producing a *fresh* 2-client roster (fresh RNG streams)."""

    def build(config: FLConfig = TINY_CONFIG, client_class=FederatedClient):
        factory = make_factory(num_channels)
        return [
            client_class(1, tiny_train_dataset, tiny_test_dataset, factory, config),
            client_class(2, tiny_train_dataset_itc, tiny_test_dataset_itc, factory, config),
        ]

    return build


def states_equal(left, right) -> bool:
    """Bit-exact equality of two state dictionaries."""
    return set(left) == set(right) and all(np.array_equal(left[k], right[k]) for k in left)


def digests(result):
    """The global digest (``None`` when there is none) and every client's digest."""
    global_state = result.global_state
    return None if global_state is None else state_digest(global_state), {
        client_id: state_digest(state) for client_id, state in result.client_states.items()
    }


def run_resilient(
    name,
    clients,
    num_channels,
    config=TINY_CONFIG,
    backend=None,
    checkpoint=None,
    channel=None,
    resilience=None,
):
    """Run one algorithm and return ``(algorithm, training_result)``."""
    algorithm = create_algorithm(
        name,
        clients,
        make_factory(num_channels),
        config,
        backend=backend,
        checkpoint=checkpoint,
        channel=channel,
        resilience=resilience,
    )
    try:
        return algorithm, algorithm.run()
    finally:
        if backend is not None:
            backend.close()


class KamikazeClient(FederatedClient):
    """A client that kills its whole host process: once, or on every attempt.

    The marker file makes the death exactly-once across process boundaries:
    the first ``local_train`` call writes it and hard-exits the hosting
    process; every later call (in the restarted joiner) trains normally.
    With ``every_attempt`` set instead, every call hard-exits (a crash loop).
    """

    marker_path = None
    every_attempt = False

    def local_train(self, *args, **kwargs):
        if self.every_attempt:
            os._exit(1)
        if self.marker_path is not None and not os.path.exists(self.marker_path):
            with open(self.marker_path, "w", encoding="utf-8") as handle:
                handle.write("boom")
            os._exit(1)
        return super().local_train(*args, **kwargs)


class ExplodingClient(FederatedClient):
    """A client whose training always raises (satellite: error context)."""

    def local_train(self, *args, **kwargs):
        raise ValueError("numerical blow-up in conv2")


class SleepyClient:
    """Backend-level stub that outlives any reasonable task timeout."""

    def __init__(self, client_id: int, delay: float):
        self.client_id = client_id
        self.delay = delay
        self.rng_state = {}

    def local_train(self, state, steps=None, proximal_mu=None):
        time.sleep(self.delay)
        return dict(state), None


class AlwaysFailClient1Plan(FaultPlan):
    """A targeted plan: client 1 always raises, everyone else is healthy.

    Lets the drop/renormalization tests pick their victim instead of hoping
    a seed hits the right client.
    """

    def __init__(self):
        super().__init__(exception_rate=0.5, seed=0)  # any_faults must be True

    def draw(self, client_id):
        counter = self._draws.get(client_id, 0)
        self._draws[client_id] = counter + 1
        if str(client_id) == "1":
            self._injected["exception"] += 1
            return FaultDecision(kind="exception")
        return FaultDecision(kind=None)


class TestFaultPlan:
    def test_deterministic_for_seed(self):
        draws_a = []
        draws_b = []
        for plan, sink in ((FaultPlan(crash_rate=0.3, corruption_rate=0.3, seed=7), draws_a),
                           (FaultPlan(crash_rate=0.3, corruption_rate=0.3, seed=7), draws_b)):
            for _ in range(20):
                for client_id in (1, 2, "edge-3"):
                    sink.append(plan.draw(client_id))
        assert draws_a == draws_b
        # A different seed produces a different fault sequence.
        other = FaultPlan(crash_rate=0.3, corruption_rate=0.3, seed=8)
        draws_c = [other.draw(client_id) for _ in range(20) for client_id in (1, 2, "edge-3")]
        assert draws_c != draws_a

    def test_draws_are_order_independent(self):
        # The decision for client c's n-th draw does not depend on how the
        # draws of different clients interleave (backend independence).
        forward = FaultPlan(exception_rate=0.5, seed=3)
        reverse = FaultPlan(exception_rate=0.5, seed=3)
        seq_forward = {1: [], 2: []}
        seq_reverse = {1: [], 2: []}
        for _ in range(10):
            for client_id in (1, 2):
                seq_forward[client_id].append(forward.draw(client_id))
            for client_id in (2, 1):
                seq_reverse[client_id].append(reverse.draw(client_id))
        assert seq_forward == seq_reverse

    def test_state_roundtrip_replays_exactly(self):
        plan = FaultPlan(crash_rate=0.25, timeout_rate=0.25, seed=11)
        for _ in range(7):
            plan.draw(1)
            plan.draw(2)
        snapshot = plan.state()
        tail = [plan.draw(client_id) for _ in range(10) for client_id in (1, 2)]

        resumed = FaultPlan(crash_rate=0.25, timeout_rate=0.25, seed=11)
        resumed.set_state(snapshot)
        replayed = [resumed.draw(client_id) for _ in range(10) for client_id in (1, 2)]
        assert replayed == tail
        assert resumed.injected_counts() == plan.injected_counts()

    def test_no_faults_short_circuits(self):
        plan = FaultPlan()
        assert not plan.any_faults
        assert plan.draw(1) == FaultDecision(kind=None)
        assert plan.state()["draws"] == {}  # no counter was spent

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultPlan(crash_rate=0.6, exception_rate=0.6)

    @pytest.mark.parametrize(
        "rates",
        [{}, {"crash": 0.0}, {"crash": 0.3, "exception": 0.7}, {"crash": 0.1, "timeout": 0.2, "corruption": 0.7}],
    )
    def test_check_rates_accepts_rates_sharing_the_unit_interval(self, rates):
        assert check_rates("fault", rates) is None

    @pytest.mark.parametrize(
        "rates, message",
        [
            ({"crash": -0.1}, "crash must be in \\[0, 1\\]"),
            ({"timeout": 1.5}, "timeout must be in \\[0, 1\\]"),
            ({"crash": 0.6, "timeout": 0.6}, "wire rates must sum to at most 1, got 1.2"),
        ],
    )
    def test_check_rates_rejects(self, rates, message):
        with pytest.raises(ValueError, match=message):
            check_rates("wire", rates)

    def test_corruption_draws_carry_a_salt(self):
        plan = FaultPlan(corruption_rate=1.0, seed=0)
        decisions = [plan.draw(1) for _ in range(5)]
        assert all(d.kind == "corruption" for d in decisions)
        assert len({d.salt for d in decisions}) > 1  # salts vary per draw


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows(self):
        policy = RetryPolicy(max_retries=3, backoff_base=1.0, backoff_factor=2.0, seed=5)
        first = [policy.backoff_seconds(1, attempt) for attempt in (1, 2, 3)]
        second = [policy.backoff_seconds(1, attempt) for attempt in (1, 2, 3)]
        assert first == second
        assert first[0] < first[1] < first[2]
        # Jitter keeps each wait within 10% of the exponential schedule.
        for attempt, wait in enumerate(first, start=1):
            nominal = 1.0 * 2.0 ** (attempt - 1)
            assert nominal <= wait <= nominal * 1.1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="task_timeout"):
            RetryPolicy(task_timeout=0.0)

    def test_factory_gating(self):
        assert not ResilienceOptions().requested
        assert ResilienceOptions(quorum=0.5).requested
        assert ResilienceOptions(max_retries=0).requested
        assert ResilienceOptions(fault_crash_rate=0.1).requested
        assert create_resilience(ResilienceOptions()) is None
        manager = create_resilience(ResilienceOptions(quorum=0.7, fault_crash_rate=0.1), seed=3)
        assert isinstance(manager, ResilienceManager)
        assert manager.quorum == 0.7
        assert manager.plan.rates["crash"] == 0.1


class TestSupervisedParity:
    """Fault-free supervision is bit-identical to the unsupervised path on
    every backend: a cell of ``test_scheduling.py``'s
    ``test_explicit_full_sync_matches_schedulerless_run``."""

    def test_a_round_algorithm_holds_the_resilience_manager_and_local_none(
        self, make_clients, num_channels
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = {
                name: create_algorithm(
                    name,
                    make_clients(),
                    make_factory(num_channels),
                    TINY_CONFIG,
                    resilience=create_resilience(ResilienceOptions(max_retries=1), seed=0),
                ).resilience
                for name in ("fedprox_alpha", "local")
            }
        assert held["fedprox_alpha"] is not None and held["local"] is None


class TestRetryHealing:
    @pytest.mark.parametrize("algorithm", [
        "fedprox", "fedbn", "fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha",
    ])
    def test_pre_dispatch_faults_heal_to_the_fault_free_result(
        self, algorithm, make_clients, num_channels
    ):
        """Crashes/exceptions/timeouts before dispatch never touch client RNG,
        and retried successes restore their snapshots — so as long as nobody
        exhausts the retry budget, the trained model is *bit-identical* to a
        run with no faults at all.  (IFCA's loss probe runs before dispatch,
        so the snapshot a retry restores is the one taken after it.)"""
        _, baseline = run_resilient(algorithm, make_clients(), num_channels)

        options = ResilienceOptions(
            fault_crash_rate=0.2, fault_exception_rate=0.2, fault_timeout_rate=0.2, max_retries=8
        )
        manager = create_resilience(options, seed=0)
        supervisor, chaotic = run_resilient(
            algorithm, make_clients(), num_channels, resilience=manager
        )
        summary = supervisor.resilience.summary()
        assert summary.retries > 0, "the seeded plan injected nothing; raise the rates"
        assert summary.gave_up == 0
        assert summary.backoff_seconds > 0.0
        assert sum(summary.injected.values()) == summary.retries
        # Two clients: a retried client folding after the other is the same sum.
        assert digests(chaotic) == digests(baseline)
        assert [r.mean_loss for r in baseline.history] == [
            r.mean_loss for r in chaotic.history
        ]

    def test_round_history_records_retry_accounting(self, make_clients, num_channels):
        manager = create_resilience(
            ResilienceOptions(fault_exception_rate=0.4, max_retries=8), seed=1
        )
        _, training = run_resilient(
            "fedavg", make_clients(), num_channels, resilience=manager
        )
        recorded = sum(record.extra.get("retries", 0) for record in training.history)
        assert recorded == manager.retries > 0

    def test_corruption_is_caught_by_crc_and_healed(self, make_clients, num_channels):
        """A flipped upload byte keeps the original CRC, fails the framing
        check at decode, and is retried to a bit-identical success."""
        _, baseline = run_resilient(
            "fedavg", make_clients(), num_channels, channel=create_channel("none")
        )

        manager = create_resilience(
            ResilienceOptions(fault_corruption_rate=0.5, max_retries=8), seed=0
        )
        supervisor, healed = run_resilient(
            "fedavg",
            make_clients(),
            num_channels,
            channel=create_channel("none"),
            resilience=manager,
        )
        summary = supervisor.resilience.summary()
        assert summary.injected["corruption"] > 0, "no corruption was injected; re-seed"
        assert summary.retries > 0
        assert summary.gave_up == 0
        assert states_equal(baseline.global_state, healed.global_state)


class TestQuorum:
    def test_quorum_required_math(self):
        manager = ResilienceManager(quorum=0.7)
        assert manager.quorum_required(10) == 7
        assert manager.quorum_required(9) == 7  # ceil(6.3)
        assert manager.quorum_required(0) == 0
        manager.check_quorum(0, arrived=7, cohort_size=10)  # exactly at quorum: no raise

    def test_invalid_quorum_rejected(self):
        with pytest.raises(ValueError, match="quorum"):
            ResilienceManager(quorum=0.0)
        with pytest.raises(ValueError, match="quorum"):
            ResilienceManager(quorum=1.5)

    def test_sub_quorum_round_raises_typed_failure(
        self, tmp_path, make_clients, num_channels
    ):
        manager = create_resilience(
            ResilienceOptions(fault_exception_rate=1.0, max_retries=0, quorum=0.5), seed=0
        )
        with pytest.raises(QuorumFailure) as excinfo:
            run_resilient(
                "fedavg",
                make_clients(),
                num_channels,
                checkpoint=CheckpointManager(tmp_path),
                resilience=manager,
            )
        failure = excinfo.value
        assert failure.round_index == 0
        assert failure.arrived == 0
        assert failure.cohort_size == 2
        assert failure.required == 1
        assert failure.checkpoint_dir == str(tmp_path)
        assert "below quorum" in str(failure)

    def test_graceful_drop_renormalizes_and_run_completes(
        self, make_clients, num_channels
    ):
        """Client 1 always fails: it exhausts its retries in round 0, is
        dropped permanently with a recorded renormalization, and the run
        finishes on the surviving client."""
        clients = make_clients()
        manager = ResilienceManager(
            plan=AlwaysFailClient1Plan(),
            retry=RetryPolicy(max_retries=1, seed=0),
            quorum=0.5,
        )
        supervisor, training = run_resilient(
            "fedavg", clients, num_channels, resilience=manager
        )
        summary = supervisor.resilience.summary()
        assert summary.gave_up == 1
        assert summary.dropped_clients == [1]
        assert len(summary.renormalizations) == 1
        record = summary.renormalizations[0]
        assert record["round"] == 0
        assert record["dropped_ids"] == [1]
        expected_fraction = clients[1].num_samples / (
            clients[0].num_samples + clients[1].num_samples
        )
        assert record["remaining_weight_fraction"] == pytest.approx(expected_fraction)
        # Round 0's history row records the degradation...
        assert training.history[0].extra["dropped_clients"] == [1]
        # ...and later rounds never re-dispatch the dropped client: one
        # update folded per round, from client 2 only.
        assert len(training.history) == TINY_CONFIG.rounds

        # The surviving trajectory equals training client 2 alone.
        solo = create_algorithm(
            "fedavg", [make_clients()[1]], make_factory(num_channels), TINY_CONFIG
        ).run()
        assert states_equal(training.global_state, solo.global_state)


    def test_scheduled_round_with_an_empty_cohort_keeps_the_model(
        self, make_clients, num_channels
    ):
        """Every sampled client already dropped for good: the round loop
        dispatches nothing, folds nothing and leaves the model unchanged."""
        manager = ResilienceManager(quorum=0.5)
        algorithm = create_algorithm(
            "fedavg",
            make_clients(),
            make_factory(num_channels),
            TINY_CONFIG,
            scheduler=create_scheduler(
                SchedulingOptions(participation=1.0, straggler_model="lognormal"), seed=0
            ),
            resilience=manager,
        )
        manager._failed = {0, 1}
        initial = create_algorithm(
            "fedavg", make_clients(), make_factory(num_channels), TINY_CONFIG
        ).initial_state()
        training = algorithm.run()
        assert states_equal(training.global_state, initial)
        assert algorithm.server.folded_updates == 0
        assert [r.per_client_loss for r in training.history] == [{}] * TINY_CONFIG.rounds


class TestChaosResume:
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedavgm"])
    def test_interrupted_chaos_run_resumes_bit_identically(
        self, algorithm, tmp_path, make_clients, num_channels
    ):
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        def chaos():
            options = ResilienceOptions(
                fault_crash_rate=0.25, fault_exception_rate=0.15, max_retries=6, quorum=0.5
            )
            return create_resilience(options, seed=0)

        supervisor, uninterrupted = run_resilient(
            algorithm,
            make_clients(long_config),
            num_channels,
            config=long_config,
            resilience=chaos(),
        )
        full_summary = supervisor.resilience.summary()
        assert full_summary.retries > 0, "the seeded plan injected nothing; raise the rates"

        # Phase 1: half the rounds with checkpointing, then "crash".
        run_resilient(
            algorithm,
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
            resilience=chaos(),
        )
        # Phase 2: a fresh process resumes mid-chaos.
        resumed_supervisor, resumed = run_resilient(
            algorithm,
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
            resilience=chaos(),
        )

        assert states_equal(uninterrupted.global_state, resumed.global_state)
        losses = {r.round_index: r.mean_loss for r in uninterrupted.history}
        for record in resumed.history:
            assert record.mean_loss == losses[record.round_index]
        # The restored fault/retry accounting matches the uninterrupted run.
        resumed_summary = resumed_supervisor.resilience.summary()
        assert resumed_summary.retries == full_summary.retries
        assert resumed_summary.injected == full_summary.injected
        assert resumed_summary.backoff_seconds == full_summary.backoff_seconds

    def test_a_drop_commits_into_its_own_rounds_checkpoint(
        self, tmp_path, make_clients, num_channels
    ):
        """Client 1 gives up in round 0: the round-0 checkpoint already holds
        it as failed, so a resumed round 1 never re-dispatches it."""
        from dataclasses import replace

        def manager():
            return ResilienceManager(
                plan=AlwaysFailClient1Plan(), retry=RetryPolicy(max_retries=1, seed=0), quorum=0.5
            )

        long_config = replace(TINY_CONFIG, rounds=2)
        short_config = replace(TINY_CONFIG, rounds=1)
        supervisor, uninterrupted = run_resilient(
            "fedavg", make_clients(long_config), num_channels, config=long_config, resilience=manager()
        )
        run_resilient(
            "fedavg",
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
            resilience=manager(),
        )
        saved = CheckpointManager(tmp_path).load_latest()
        assert saved.extra_meta["resilience_state"]["failed"] == [0]
        resumed_supervisor, resumed = run_resilient(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
            resilience=manager(),
        )
        assert resumed.history[-1].extra == uninterrupted.history[-1].extra
        resumed_summary = resumed_supervisor.resilience.summary()
        full_summary = supervisor.resilience.summary()
        assert (resumed_summary.gave_up, resumed_summary.retries) == (
            full_summary.gave_up,
            full_summary.retries,
        )

    def test_resume_under_a_different_fault_plan_rejected(
        self, tmp_path, make_clients, num_channels
    ):
        run_resilient(
            "fedavg",
            make_clients(),
            num_channels,
            checkpoint=CheckpointManager(tmp_path),
            resilience=create_resilience(
                ResilienceOptions(fault_crash_rate=0.2, max_retries=4), seed=0
            ),
        )
        with pytest.raises(ValueError, match="different run"):
            run_resilient(
                "fedavg",
                make_clients(),
                num_channels,
                checkpoint=CheckpointManager(tmp_path),
                resilience=create_resilience(
                    ResilienceOptions(fault_crash_rate=0.4, max_retries=4), seed=0
                ),
            )


class TestProcessPoolResilience:
    def test_real_worker_death_respawns_and_recovers(
        self, tmp_path, make_clients, num_channels
    ):
        """One worker hard-exits mid-round; the pool is respawned, the lost
        task re-dispatched from its original payload, and the result stays
        bit-identical to serial execution."""
        _, baseline = run_resilient("fedavg", make_clients(), num_channels)

        clients = make_clients(client_class=KamikazeClient)
        clients[0].marker_path = str(tmp_path / "died-once")
        backend = ProcessPoolBackend(workers=2)
        algorithm = create_algorithm(
            "fedavg", clients, make_factory(num_channels), TINY_CONFIG, backend=backend
        )
        try:
            training = algorithm.run()
            assert backend.respawns >= 1
            assert os.path.exists(clients[0].marker_path)
        finally:
            backend.close()
        assert states_equal(baseline.global_state, training.global_state)

    def crash_loop(self, make_clients, workers=2):
        """A process backend whose first client hard-exits its joiner on every attempt."""
        clients = make_clients(client_class=KamikazeClient)
        clients[0].every_attempt = True
        backend = ProcessPoolBackend(workers=workers)
        backend.bind(clients)
        state = clients[0].initial_state()
        tasks = [
            ClientTask(client_index=index, state=state, steps=1, proximal_mu=0.0)
            for index in range(len(clients))
        ]
        return backend, tasks

    @pytest.mark.parametrize("workers", [2, 1])
    def test_crash_loop_yields_a_crash_failure_after_bounded_restarts(self, make_clients, workers):
        backend, tasks = self.crash_loop(make_clients, workers)
        started = time.monotonic()
        try:
            outcomes = list(backend.imap_outcomes(tasks))
        finally:
            backend.close()
        elapsed = time.monotonic() - started
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].kind == "crash"
        assert outcomes[0].client_index == 0
        # The other client trains (with one joiner, from each restart's replay).
        assert not any(isinstance(outcome, TaskFailure) for outcome in outcomes[1:])
        # The original run and MAX_REDISPATCHES replays each killed the joiner.
        assert backend.respawns == ProcessPoolBackend.MAX_REDISPATCHES + 1
        # Restarts, not the liveness deadline, ended the task.
        assert elapsed < backend.client_timeout / 2

    def test_unsupervised_crash_loop_raises_client_execution_error(self, make_clients):
        backend, tasks = self.crash_loop(make_clients)
        try:
            with pytest.raises(ClientExecutionError) as excinfo:
                backend.map(tasks)
        finally:
            backend.close()
        assert excinfo.value.backend == "process"
        assert excinfo.value.kind == "crash"
        assert excinfo.value.client_index == 0

    def test_process_timeout_abandons_the_task_and_restarts_its_joiner(self):
        backend = ProcessPoolBackend(workers=2)
        backend.bind([SleepyClient(1, delay=0.0), SleepyClient(2, delay=60.0)])
        state = {"w": np.zeros(3)}
        tasks = [
            ClientTask(client_index=0, state=state, steps=1, proximal_mu=0.0),
            ClientTask(client_index=1, state=state, steps=1, proximal_mu=0.0),
        ]
        started = time.monotonic()
        try:
            outcomes = list(backend.imap_outcomes(tasks, timeout=1.0))
            # The sleeper's joiner was killed and forked again.
            assert backend.respawns == 1
        finally:
            backend.close()
        assert not isinstance(outcomes[0], TaskFailure)
        assert isinstance(outcomes[1], TaskFailure)
        assert outcomes[1].kind == "timeout"
        assert time.monotonic() - started < 30.0

    def test_worker_exception_carries_client_context(self, make_clients, num_channels):
        """Satellite: unsupervised failures surface as ClientExecutionError
        with the client id, backend name, and remote traceback attached."""
        clients = make_clients(client_class=ExplodingClient)
        backend = ProcessPoolBackend(workers=2)
        backend.bind(clients)
        task = ClientTask(
            client_index=0, state=clients[0].initial_state(), steps=1, proximal_mu=0.0
        )
        try:
            with pytest.raises(ClientExecutionError) as excinfo:
                backend.map([task])
        finally:
            backend.close()
        error = excinfo.value
        assert error.client_id == "1"
        assert error.client_index == 0
        assert error.backend == "process"
        assert error.kind == "exception"
        assert "numerical blow-up" in str(error)
        assert "ValueError" in (error.remote_traceback or "")

    def test_serial_exception_carries_client_context(self, make_clients, num_channels):
        clients = make_clients(client_class=ExplodingClient)
        backend = SerialBackend()
        backend.bind(clients)
        task = ClientTask(
            client_index=1, state=clients[1].initial_state(), steps=1, proximal_mu=0.0
        )
        with pytest.raises(ClientExecutionError) as excinfo:
            backend.map([task])
        assert excinfo.value.client_id == "2"
        assert excinfo.value.backend == "serial"

    def test_thread_timeout_yields_task_failure(self):
        backend = ThreadPoolBackend(workers=2)
        # The fast task goes first so it completes under any pool size (the
        # pool clamps to the core count); the sleeper behind it must time out.
        backend.bind([SleepyClient(1, delay=0.0), SleepyClient(2, delay=1.5)])
        tasks = [
            ClientTask(client_index=0, state={}, steps=1, proximal_mu=0.0),
            ClientTask(client_index=1, state={}, steps=1, proximal_mu=0.0),
        ]
        try:
            outcomes = list(backend.imap_outcomes(tasks, timeout=0.25))
        finally:
            backend.close()
        assert not isinstance(outcomes[0], TaskFailure)
        assert isinstance(outcomes[1], TaskFailure)
        assert outcomes[1].kind == "timeout"
        assert outcomes[1].client_id == 2


class TestTransportFraming:
    def small_state(self):
        rng = np.random.default_rng(0)
        return {
            "conv.weight": rng.normal(size=(3, 4)),
            "conv.bias": rng.normal(size=(4,)),
        }

    @pytest.mark.parametrize(
        "codec",
        [IdentityCodec(), QuantizationCodec(num_bits=8), TopKCodec(keep_fraction=0.5)],
        ids=["identity", "quantize", "topk"],
    )
    def test_crc_mismatch_is_typed(self, codec):
        payload = codec.encode(self.small_state())
        data = bytearray(payload.data)
        data[len(data) // 2] ^= 0xFF
        tampered = Payload(
            codec=payload.codec, data=bytes(data), schema=payload.schema, crc=payload.crc
        )
        with pytest.raises(TransportDecodeError) as excinfo:
            codec.decode(tampered)
        error = excinfo.value
        assert error.codec == codec.name
        assert error.reason == "crc mismatch"
        assert error.actual_bytes == len(data)
        assert codec.name in str(error)

    def test_truncated_identity_payload_reports_expected_bytes(self):
        codec = IdentityCodec()
        payload = codec.encode(self.small_state())
        truncated = Payload(
            codec=payload.codec, data=payload.data[:-8], schema=payload.schema
        )  # fresh CRC over the truncated bytes: the length check must catch it
        with pytest.raises(TransportDecodeError) as excinfo:
            codec.decode(truncated)
        error = excinfo.value
        assert error.reason == "truncated"
        assert error.expected_bytes == len(payload.data)
        assert error.actual_bytes == len(payload.data) - 8

    def test_truncated_topk_payload_is_typed(self):
        codec = TopKCodec(keep_fraction=0.5)
        payload = codec.encode(self.small_state())
        truncated = Payload(
            codec=payload.codec, data=payload.data[:3], schema=payload.schema
        )
        with pytest.raises(TransportDecodeError, match="truncated"):
            codec.decode(truncated)

    def test_corrupt_deflate_stream_is_typed(self):
        codec = QuantizationCodec(num_bits=8, deflate=True)
        payload = codec.encode(self.small_state())
        garbage = b"\x00" + payload.data[1:]
        bad = Payload(codec=payload.codec, data=garbage, schema=payload.schema)
        with pytest.raises(TransportDecodeError, match="deflate"):
            codec.decode(bad)

    #: A 3-entry schema of 1 048 832 values: 1 048 880 bytes of 8-bit stream.
    BOMB_SCHEMA = (("a", (512, 1024)), ("b", (524288,)), ("c", (16, 16)))

    @staticmethod
    def deflate_bomb(megabytes=64):
        """About 64 KB of DEFLATE that inflates to ``megabytes`` MB of zeros,
        compressed a megabyte at a time (the zeros never exist at once)."""
        compressor = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        parts = [compressor.compress(chunk) for _ in range(megabytes)]
        return b"".join(parts) + compressor.flush()

    @pytest.mark.parametrize(
        "codec, limit",
        [
            (QuantizationCodec(num_bits=8, deflate=True), 3 * 16 + 1048832),
            (TopKCodec(keep_fraction=0.5, value_dtype="float32", deflate=True), 4 + 1048832 * 8),
        ],
        ids=["quantize", "topk"],
    )
    def test_a_deflate_bomb_stops_at_the_schema_bound(self, codec, limit):
        bomb = self.deflate_bomb()
        assert len(bomb) < 100_000
        payload = Payload(codec=codec.name, data=bomb, schema=self.BOMB_SCHEMA)
        tracemalloc.start()
        try:
            with pytest.raises(TransportDecodeError, match="inflates past the schema") as excinfo:
                codec.decode(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.expected_bytes == limit
        assert excinfo.value.actual_bytes == limit + 1
        assert peak < 2 * limit

    def test_a_stream_that_never_ends_is_typed(self):
        codec = QuantizationCodec(num_bits=8, deflate=True)
        payload = codec.encode(self.small_state())
        cut = Payload(codec=payload.codec, data=payload.data[:-4], schema=payload.schema)
        with pytest.raises(TransportDecodeError, match="truncated stream"):
            codec.decode(cut)

    def test_a_stream_at_the_schema_bound_decodes(self):
        """A stream as long as the schema allows (no constant tensor) is legal."""
        state = self.small_state()
        inflating = QuantizationCodec(num_bits=8, deflate=True)
        plain = QuantizationCodec(num_bits=8, deflate=False)
        payload = inflating.encode(state)
        stream = zlib.decompress(payload.data)
        assert stream == plain.encode(state).data
        assert len(stream) == sum(16 + np.size(values) for values in state.values())
        decoded = inflating.decode(payload)
        expected = plain.decode(plain.encode(state))
        assert all(decoded[name].tobytes() == expected[name].tobytes() for name in state)

    def test_payload_crc_is_computed_at_construction(self):
        payload = Payload(codec="identity", data=b"hello", schema=())
        assert payload.crc == zlib.crc32(b"hello")
        kept = Payload(codec="identity", data=b"hello!", schema=(), crc=payload.crc)
        assert kept.crc == payload.crc  # fault injection keeps the original CRC


class TestAtomicCheckpointWrites:
    def test_crash_mid_write_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        target = tmp_path / "state.npz"
        good = {"w": np.arange(6.0).reshape(2, 3)}
        save_state_dict(good, target)

        real_savez = np.savez

        def dying_savez(handle, **arrays):
            handle.write(b"\x00" * 64)  # partial garbage, then the "kill"
            raise KeyboardInterrupt("power loss")

        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(KeyboardInterrupt):
            save_state_dict({"w": np.zeros((2, 3))}, target)
        monkeypatch.setattr(np, "savez", real_savez)

        # The interrupted write left no temp file and never touched the
        # previous complete archive.
        assert not list(tmp_path.glob("*.tmp"))
        loaded = load_state_dict(target)
        assert states_equal(loaded, good)

    def test_save_is_atomic_via_replace(self, tmp_path):
        target = tmp_path / "state"
        written = save_state_dict({"w": np.ones(3)}, target)
        assert written.suffix == ".npz"
        assert not list(tmp_path.glob("*.tmp"))
        assert states_equal(load_state_dict(written), {"w": np.ones(3)})
