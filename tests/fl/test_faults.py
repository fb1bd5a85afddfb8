"""Chaos tier: the fault-tolerant federation runtime.

The central guarantees under test:

* a :class:`FaultPlan` is deterministic for a seed and checkpointable
  (state round-trips bit for bit),
* every client pass is supervised; the default manager absorbs nothing,
  so a run's first failed client task raises :class:`ClientExecutionError`
  with its client, backend and remote traceback,
* retries are accounted per round, and payload corruption is caught by the
  transport CRC and healed by retry,
* sub-quorum rounds raise the typed :class:`QuorumFailure`,
* clients that exhaust their retries are dropped with a recorded weight
  renormalization and the run degrades instead of dying,
* an interrupted chaos run resumes bit-identically (fault draws, retry
  counters, and drops all round-trip through the checkpoint),
* a joiner process that dies on every attempt is a bounded ``crash``.

That retries, injected faults and a killed joiner leave the trained bits
alone is the parity matrix's (``test_parity_matrix.py``).
"""

from __future__ import annotations

import time
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fl import (
    CheckpointManager,
    ClientExecutionError,
    ClientTask,
    FaultPlan,
    FederatedClient,
    ProcessPoolBackend,
    QuorumFailure,
    ResilienceManager,
    ResilienceOptions,
    RetryPolicy,
    SchedulingOptions,
    TaskFailure,
    ThreadPoolBackend,
    TransportDecodeError,
    create_backend,
    create_channel,
    create_resilience,
    create_scheduler,
)
from repro.fl.faults.plan import FaultDecision, check_rates
from repro.fl.ledger import RoundLedger
from repro.fl.parameters import flat_model_state
from repro.fl.transport.codecs import IdentityCodec, Payload, QuantizationCodec, TopKCodec
from repro.nn.serialization import load_state_dict, save_state_dict
from conftest import TINY_CONFIG, KamikazeClient, build_named, digests, make_factory, scheduled, states_equal

#: Heavy-tailed stragglers against a 2 s deadline: most updates arrive late.
TIGHT_DEADLINE = SchedulingOptions(straggler_model="heavytail", round_policy="deadline", deadline=2.0)


def run_resilient(name, clients, num_channels, config=TINY_CONFIG, **options):
    """Run one algorithm and return ``(algorithm, training_result)``."""
    algorithm = build_named(name, clients, num_channels, config, **options)
    try:
        return algorithm, algorithm.run()
    finally:
        algorithm.backend.close()


class ExplodingClient(FederatedClient):
    """A client whose training raises when it is client 2; client 1 trains."""

    def local_train(self, *args, **kwargs):
        if self.client_id == 2:
            raise ValueError("numerical blow-up in conv2")
        return super().local_train(*args, **kwargs)


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
        inert = create_resilience(ResilienceOptions())
        assert inert.retry.max_retries == 0 and inert.quorum == 1.0
        assert not inert.plan.any_faults and not inert.absorbs_failures
        assert create_resilience(ResilienceOptions(fault_crash_rate=0.1)).absorbs_failures
        manager = create_resilience(ResilienceOptions(quorum=0.7, fault_crash_rate=0.1), seed=3)
        assert isinstance(manager, ResilienceManager)
        assert manager.quorum == 0.7
        assert manager.plan.rates["crash"] == 0.1


class TestSupervisedParity:
    """That a tolerant manager trains the default one's bits is the parity matrix's."""

    def test_a_round_algorithm_holds_the_resilience_manager_and_local_an_inert_one(
        self, make_clients, num_channels
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = {
                name: build_named(
                    name, make_clients(), num_channels,
                    resilience=create_resilience(ResilienceOptions(max_retries=1), seed=0),
                ).resilience
                for name in ("fedprox_alpha", "local")
            }
        assert held["fedprox_alpha"].retry.max_retries == 1
        assert not held["local"].absorbs_failures


class TestRetryHealing:
    def test_round_history_records_retry_accounting(self, make_clients, num_channels):
        manager = create_resilience(
            ResilienceOptions(fault_exception_rate=0.4, max_retries=8), seed=1
        )
        supervisor, training = run_resilient(
            "fedavg", make_clients(), num_channels, resilience=manager
        )
        recorded = sum(record.extra.get("retries", 0) for record in training.history)
        assert recorded == manager.retries > 0
        summary = supervisor.ledger.resilience_summary()
        assert summary.gave_up == 0 and summary.backoff_seconds > 0.0
        assert sum(summary.injected.values()) == summary.retries

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
        summary = supervisor.ledger.resilience_summary()
        assert summary.injected["corruption"] > 0, "no corruption was injected; re-seed"
        assert summary.retries > 0
        assert summary.gave_up == 0
        assert states_equal(baseline.global_state, healed.global_state)


class TestQuorum:
    def test_quorum_required_math(self):
        """A round needs ``ceil(quorum * cohort)`` members that did not fail."""

        def open_round(size, failed=()):
            clients = [SimpleNamespace(client_id=index, num_samples=1) for index in range(size)]
            scheduler = create_scheduler(SchedulingOptions())
            scheduler.bind(clients)
            ledger = RoundLedger(clients, scheduler, ResilienceManager(quorum=0.7))
            ledger.set_state({"ledger_state": {"counters": {}, "failed": list(failed)}})
            return ledger, ledger.begin(0)

        for size, delivered in ((10, 7), (9, 7)):  # 9: ceil(6.3)
            ledger, cohort = open_round(size)
            for index in cohort[:delivered]:
                ledger.arrive(index)
            ledger.commit()  # exactly at quorum: no raise
            ledger, cohort = open_round(size)
            for index in cohort[: delivered - 1]:
                ledger.arrive(index)
            with pytest.raises(QuorumFailure) as excinfo:
                ledger.commit()
            assert (excinfo.value.arrived, excinfo.value.required) == (delivered - 1, 7)
        ledger, cohort = open_round(3, failed=range(3))
        assert cohort == [] and ledger.commit()["selected"] == 0  # nothing required

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
        summary = supervisor.ledger.resilience_summary()
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
        solo = build_named("fedavg", [make_clients()[1]], num_channels).run()
        assert states_equal(training.global_state, solo.global_state)


    def test_scheduled_round_with_an_empty_cohort_keeps_the_model(
        self, make_clients, num_channels
    ):
        """Every sampled client already dropped for good: the round loop
        dispatches nothing, folds nothing and leaves the model unchanged."""
        manager = ResilienceManager(quorum=0.5)
        algorithm = build_named(
            "fedavg", make_clients(), num_channels,
            scheduler=scheduled(participation=1.0, straggler_model="lognormal"), resilience=manager,
        )
        algorithm.ledger._failed = {0, 1}
        initial = build_named("fedavg", make_clients(), num_channels).initial_state()
        training = algorithm.run()
        assert states_equal(training.global_state, initial)
        assert algorithm.ledger.folded == 0
        assert [r.per_client_loss for r in training.history] == [{}] * TINY_CONFIG.rounds


    def test_a_late_client_is_not_a_failure(self, make_clients, num_channels):
        """A deadline's late stragglers leave quorum intact: a tolerant run at
        quorum 1.0 commits every round, counts them as late, and trains what
        the same schedule trains under the default manager."""
        config = replace(TINY_CONFIG, rounds=3)

        def run(resilience=None):
            return run_resilient(
                "fedavg",
                make_clients(config, count=4),
                num_channels,
                config=config,
                scheduler=create_scheduler(TIGHT_DEADLINE, seed=0),
                resilience=resilience,
            )

        _, plain = run()
        supervisor, tolerant = run(create_resilience(ResilienceOptions(max_retries=2), seed=0))
        assert len(tolerant.history) == config.rounds
        summary = supervisor.ledger.scheduling_summary()
        assert summary.total_dropped > 0
        assert summary.total_selected == summary.total_arrived + summary.total_dropped
        assert supervisor.ledger.resilience_summary().dropped_clients == []
        assert [r.extra for r in tolerant.history] == [r.extra for r in plain.history]
        assert digests(tolerant) == digests(plain)

    def test_a_failed_client_under_a_deadline_still_breaks_quorum(self, make_clients, num_channels):
        """The mirror case: under the same deadline, a client that exhausts
        its retries is a failure, and quorum 1.0 refuses the round."""
        manager = ResilienceManager(plan=AlwaysFailClient1Plan(), retry=RetryPolicy(max_retries=2, seed=0))
        with pytest.raises(QuorumFailure) as excinfo:
            run_resilient(
                "fedavg",
                make_clients(count=4),
                num_channels,
                scheduler=create_scheduler(TIGHT_DEADLINE, seed=0),
                resilience=manager,
            )
        failure = excinfo.value
        assert (failure.round_index, failure.arrived, failure.required, failure.cohort_size) == (0, 3, 4, 4)

    def test_selected_counts_the_clients_that_gave_up(self, make_clients, num_channels):
        """Every cohort member ends a round folded, late or failed, so the
        totals obey ``selected == arrived + dropped + failed``."""
        manager = ResilienceManager(
            plan=AlwaysFailClient1Plan(), retry=RetryPolicy(max_retries=1, seed=0), quorum=0.5
        )
        supervisor, training = run_resilient(
            "fedavg",
            make_clients(count=4),
            num_channels,
            scheduler=scheduled(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
            resilience=manager,
        )
        summary = supervisor.ledger.scheduling_summary()
        failed = supervisor.ledger.resilience_summary().dropped_clients
        assert failed == [1] and manager.gave_up == 1
        assert [r.extra["selected"] for r in training.history] == [4, 3]
        assert summary.total_selected == 7
        assert summary.total_selected == summary.total_arrived + summary.total_dropped + len(failed)


class TestChaosResume:
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedavgm"])
    def test_interrupted_chaos_run_resumes_bit_identically(
        self, algorithm, tmp_path, make_clients, num_channels
    ):
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
        full_summary = supervisor.ledger.resilience_summary()
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
        resumed_summary = resumed_supervisor.ledger.resilience_summary()
        assert resumed_summary.retries == full_summary.retries
        assert resumed_summary.injected == full_summary.injected
        assert resumed_summary.backoff_seconds == full_summary.backoff_seconds

    def test_a_drop_commits_into_its_own_rounds_checkpoint(
        self, tmp_path, make_clients, num_channels
    ):
        """Client 1 gives up in round 0: the round-0 checkpoint already holds
        it as failed, so a resumed round 1 never re-dispatches it."""
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
        assert saved.extra_meta["ledger_state"]["failed"] == [0]
        resumed_supervisor, resumed = run_resilient(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
            resilience=manager(),
        )
        assert resumed.history[-1].extra == uninterrupted.history[-1].extra
        resumed_summary = resumed_supervisor.ledger.resilience_summary()
        full_summary = supervisor.ledger.resilience_summary()
        assert (resumed_summary.gave_up, resumed_summary.retries) == (
            full_summary.gave_up,
            full_summary.retries,
        )

    def test_a_checkpoint_with_split_participation_state_resumes(
        self, tmp_path, make_clients, num_channels
    ):
        """A checkpoint written before the round ledger keeps the totals in
        its ``scheduler_state`` counters (``selected`` without the clients
        that gave up), the failed clients in its ``resilience_state`` and
        the clock in both; it resumes to the uninterrupted digest and
        totals."""
        import json

        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        def run(config, checkpoint=None):
            return run_resilient(
                "fedavg",
                make_clients(config, count=4),
                num_channels,
                config=config,
                checkpoint=checkpoint,
                scheduler=scheduled(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
                resilience=ResilienceManager(
                    plan=AlwaysFailClient1Plan(), retry=RetryPolicy(max_retries=1, seed=0), quorum=0.5
                ),
            )

        full, uninterrupted = run(long_config)
        run(short_config, CheckpointManager(tmp_path))
        for path in tmp_path.glob("round_*.json"):
            meta = json.loads(path.read_text(encoding="utf-8"))
            extra = meta["extra_meta"]
            ledger = extra.pop("ledger_state")
            counters = ledger["counters"]
            extra["scheduler_state"]["counters"] = {
                "rounds": counters["rounds"],
                "selected": counters["selected"] - len(ledger["failed"]),
                "arrived": counters["folded"],
                "dropped": counters["late"],
                "aggregations": 0,
                "buffered": 0,
                "staleness_sum": 0.0,
                "staleness_max": 0,
            }
            extra["resilience_state"].update(
                failed=ledger["failed"],
                renormalizations=ledger["renormalizations"],
                clock=extra["scheduler_state"]["clock"],
            )
            path.write_text(json.dumps(meta), encoding="utf-8")
        resumed, training = run(long_config, CheckpointManager(tmp_path))
        assert [r.round_index for r in training.history] == [2, 3]
        assert digests(training) == digests(uninterrupted)
        assert resumed.ledger.scheduling_summary() == full.ledger.scheduling_summary()
        assert resumed.ledger.resilience_summary() == full.ledger.resilience_summary()
        assert full.ledger.resilience_summary().dropped_clients == [1]

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
    @pytest.mark.parametrize("workers", [2, 1])
    def test_crash_loop_yields_a_crash_failure_after_bounded_restarts(
        self, make_clients, num_channels, workers
    ):
        """A process backend whose first client hard-exits its joiner on every attempt."""
        clients = make_clients(client_class=KamikazeClient)
        clients[0].every_attempt = True
        backend = ProcessPoolBackend(workers=workers)
        backend.bind(clients)
        state = flat_model_state(make_factory(num_channels)())
        tasks = [
            ClientTask(client_index=index, state=state, steps=1, proximal_mu=0.0)
            for index in range(len(clients))
        ]
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

    def test_default_run_raises_client_execution_error_on_a_crash_loop(
        self, make_clients, num_channels
    ):
        clients = make_clients(client_class=KamikazeClient)
        clients[0].every_attempt = True
        with pytest.raises(ClientExecutionError) as excinfo:
            run_resilient("fedavg", clients, num_channels, backend=ProcessPoolBackend(workers=2))
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

    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    @pytest.mark.parametrize("algorithm", ["fedprox", "local"])
    def test_default_run_raises_client_execution_error(
        self, algorithm, backend_name, make_clients, num_channels
    ):
        """The default manager absorbs nothing: a run's first failed client
        task raises ClientExecutionError with the client id, backend name and
        remote traceback attached."""
        backend = create_backend(backend_name, workers=2 if backend_name == "process" else None)
        with pytest.raises(ClientExecutionError) as excinfo:
            run_resilient(
                algorithm, make_clients(client_class=ExplodingClient), num_channels, backend=backend
            )
        error = excinfo.value
        assert error.client_id == "2"
        assert error.client_index == 1
        assert error.backend == backend_name
        assert error.kind == "exception"
        assert "numerical blow-up" in str(error)
        assert "ValueError" in (error.remote_traceback or "")

    def test_max_retries_zero_alone_absorbs_nothing(self, make_clients, num_channels):
        """No retries at quorum 1.0 cannot survive a failure: the failed task
        raises ClientExecutionError, not QuorumFailure."""
        manager = create_resilience(ResilienceOptions(max_retries=0), seed=0)
        assert not manager.absorbs_failures
        with pytest.raises(ClientExecutionError) as excinfo:
            run_resilient(
                "fedavg",
                make_clients(client_class=ExplodingClient),
                num_channels,
                resilience=manager,
            )
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


class TestClientExecutionErrorMessage:
    def test_message_names_the_client_index_and_backend(self):
        error = ClientExecutionError("boom", client_id=7, client_index=2, backend="thread")
        assert str(error) == "boom [client '7' (index 2) on backend 'thread']"
        assert error.kind == "exception"
        assert error.remote_traceback is None

    def test_remote_traceback_follows_the_message(self):
        error = ClientExecutionError(
            "lost",
            client_id="3",
            client_index=0,
            backend="process",
            kind="crash",
            remote_traceback="Traceback: ValueError",
        )
        assert str(error) == (
            "lost [client '3' (index 0) on backend 'process']"
            "\n--- remote traceback ---\nTraceback: ValueError"
        )
        assert error.kind == "crash"
