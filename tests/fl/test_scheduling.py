"""Tests for the client-population scheduling subsystem.

The central guarantees under test:

* samplers / availability / latency models are deterministic, seeded, and
  checkpointable (state round-trips),
* a scheduler configured to full-sync / no-straggler behavior, with or
  without a fault-free supervisor, on any backend, is **bit-identical** to a
  serial run without a scheduler at all, for every global-model algorithm,
* the round loop keeps the contract the bench harness relies on: one
  client pass per round, the global state first, ``states()`` before
  ``result()``, and each update folded as it arrives,
* sampled cohorts are identical across execution backends (serial vs.
  process pool), and across checkpoint resume under partial participation
  with stragglers,
* the deadline policy drops stragglers (recorded, discarded) and aggregates
  only the survivors,
* FedBuff with buffer size K and zero latency is bit-identical to
  synchronous FedAvg over the same cohort.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl import (
    CheckpointManager,
    FederatedClient,
    FLConfig,
    ProcessPoolBackend,
    ResilienceManager,
    SchedulingOptions,
    SeededModelFactory,
    SerialBackend,
    ThreadPoolBackend,
    create_algorithm,
    create_scheduler,
)
from repro.fl.parameters import FlatState, flat_model_state, state_digest, weighted_average
from repro.fl.privacy import PrivacyConfig, privatize_update
from repro.fl.scheduling import (
    AlwaysAvailable,
    BernoulliAvailability,
    DayNightAvailability,
    FullParticipation,
    LogNormalLatency,
    ParetoLatency,
    RoundScheduler,
    UniformSampler,
    VirtualClock,
    WeightedSampler,
    ZeroLatency,
    create_availability,
    create_latency,
    create_sampler,
)
from repro.models import FLNet
from repro.utils.rng import new_rng

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

    def build(config: FLConfig = TINY_CONFIG):
        factory = make_factory(num_channels)
        return [
            FederatedClient(1, tiny_train_dataset, tiny_test_dataset, factory, config),
            FederatedClient(2, tiny_train_dataset_itc, tiny_test_dataset_itc, factory, config),
        ]

    return build


def states_equal(left, right) -> bool:
    """Bit-exact equality of two state dictionaries."""
    return set(left) == set(right) and all(np.array_equal(left[k], right[k]) for k in left)


def run_named(
    name,
    clients,
    num_channels,
    config=TINY_CONFIG,
    backend=None,
    checkpoint=None,
    scheduler=None,
    resilience=None,
):
    algorithm = create_algorithm(
        name,
        clients,
        make_factory(num_channels),
        config,
        backend=backend,
        checkpoint=checkpoint,
        scheduler=scheduler,
        resilience=resilience,
    )
    try:
        return algorithm.run()
    finally:
        if backend is not None:
            backend.close()


class TestSamplers:
    def test_full_participation_returns_all_available(self):
        sampler = FullParticipation()
        sampler.bind(5)
        assert sampler.select(0, [3, 1, 4]) == [1, 3, 4]

    def test_full_participation_size_constrained_is_round_robin(self):
        # Constrained refills (the fedbuff loop) rotate through the roster
        # instead of always picking the lowest indices.
        sampler = FullParticipation()
        sampler.bind(4)
        assert sampler.select(0, [0, 1, 2, 3], size=2) == [0, 1]
        assert sampler.select(1, [0, 1, 2, 3], size=2) == [2, 3]
        assert sampler.select(2, [0, 1, 2, 3], size=2) == [0, 1]
        snapshot = sampler.state()
        first = sampler.select(3, [0, 1, 2, 3], size=3)
        sampler.set_state(snapshot)
        assert sampler.select(3, [0, 1, 2, 3], size=3) == first

    def test_uniform_fraction_size(self):
        sampler = UniformSampler(fraction=0.5, seed=0)
        sampler.bind(10)
        cohort = sampler.select(0, list(range(10)))
        assert len(cohort) == 5
        assert cohort == sorted(cohort)
        assert all(0 <= index < 10 for index in cohort)

    def test_uniform_clients_per_round(self):
        sampler = UniformSampler(clients_per_round=3, seed=0)
        sampler.bind(10)
        assert len(sampler.select(0, list(range(10)))) == 3
        # Capped at availability.
        assert len(sampler.select(1, [0, 1])) == 2

    def test_same_seed_same_cohorts(self):
        draws_a = UniformSampler(fraction=0.3, seed=7)
        draws_b = UniformSampler(fraction=0.3, seed=7)
        for sampler in (draws_a, draws_b):
            sampler.bind(20)
        rounds_a = [draws_a.select(r, list(range(20))) for r in range(5)]
        rounds_b = [draws_b.select(r, list(range(20))) for r in range(5)]
        assert rounds_a == rounds_b
        # ... and the sequence actually varies between rounds.
        assert len({tuple(c) for c in rounds_a}) > 1

    def test_state_roundtrip_replays_draws(self):
        sampler = UniformSampler(fraction=0.4, seed=3)
        sampler.bind(12)
        sampler.select(0, list(range(12)))
        snapshot = sampler.state()
        first = [sampler.select(r, list(range(12))) for r in range(1, 4)]
        sampler.set_state(snapshot)
        replay = [sampler.select(r, list(range(12))) for r in range(1, 4)]
        assert first == replay

    def test_weighted_sampler_prefers_heavy_clients(self):
        sampler = WeightedSampler(clients_per_round=1, seed=0)
        sampler.bind(3, weights=[1.0, 1.0, 50.0])
        picks = [sampler.select(r, [0, 1, 2])[0] for r in range(200)]
        counts = np.bincount(picks, minlength=3)
        assert counts[2] > 150

    def test_over_selection_inflates_cohort(self):
        sampler = UniformSampler(clients_per_round=4, seed=0)
        sampler.bind(10)
        assert len(sampler.select(0, list(range(10)), multiplier=1.5)) == 6

    def test_zero_size_request_is_empty(self):
        sampler = UniformSampler(fraction=0.5, seed=0)
        sampler.bind(4)
        assert sampler.select(0, [0, 1, 2, 3], size=0) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            UniformSampler(fraction=0.0)
        with pytest.raises(ValueError, match="clients_per_round"):
            UniformSampler(clients_per_round=0)
        with pytest.raises(ValueError, match="unknown client sampler"):
            create_sampler("roulette")

    def test_create_sampler_inference(self):
        assert isinstance(create_sampler(None), FullParticipation)
        assert isinstance(create_sampler(None, fraction=0.5), UniformSampler)
        assert isinstance(create_sampler("weighted", clients_per_round=2), WeightedSampler)


class TestAvailability:
    def test_always(self):
        model = AlwaysAvailable()
        assert model.available(0, 1, 0.0) and model.available(5, 9, 1e9)

    def test_bernoulli_deterministic_and_restorable(self):
        model_a = BernoulliAvailability(rate=0.5, seed=11)
        model_b = BernoulliAvailability(rate=0.5, seed=11)
        seq_a = [model_a.available(i, i, 0.0) for i in range(50)]
        seq_b = [model_b.available(i, i, 0.0) for i in range(50)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        snapshot = model_a.state()
        first = [model_a.available(i, i, 0.0) for i in range(20)]
        model_a.set_state(snapshot)
        assert [model_a.available(i, i, 0.0) for i in range(20)] == first

    def test_daynight_duty_cycle(self):
        model = DayNightAvailability(duty_fraction=0.5, period=100.0)
        # Client 0 has phase 0: available for the first half of each period.
        assert model.available(0, 1, 10.0)
        assert not model.available(0, 1, 60.0)
        assert model.available(0, 1, 110.0)
        # Phases differ across clients, so cohorts rotate.
        fractions = [
            np.mean([model.available(c, c, t) for t in np.linspace(0, 99, 100)])
            for c in range(4)
        ]
        assert all(0.4 < f < 0.6 for f in fractions)

    def test_create_availability(self):
        assert isinstance(create_availability(None), AlwaysAvailable)
        assert isinstance(create_availability("bernoulli", rate=0.5), BernoulliAvailability)
        assert isinstance(create_availability("daynight"), DayNightAvailability)
        with pytest.raises(ValueError, match="unknown availability"):
            create_availability("weekends")


class TestLatency:
    def test_zero(self):
        assert ZeroLatency().sample(0, 1) == 0.0

    def test_lognormal_positive_and_deterministic(self):
        model_a = LogNormalLatency(median=10.0, sigma=0.8, seed=4)
        model_b = LogNormalLatency(median=10.0, sigma=0.8, seed=4)
        draws_a = [model_a.sample(i, i) for i in range(100)]
        draws_b = [model_b.sample(i, i) for i in range(100)]
        assert draws_a == draws_b
        assert all(d > 0 for d in draws_a)

    def test_heavytail_has_outliers(self):
        model = ParetoLatency(scale=5.0, shape=1.5, seed=0)
        draws = np.array([model.sample(i, i) for i in range(2000)])
        assert draws.min() >= 5.0
        # The heavy tail produces draws an order of magnitude over the scale.
        assert draws.max() > 50.0

    def test_state_roundtrip(self):
        model = LogNormalLatency(seed=9)
        model.sample(0, 0)
        snapshot = model.state()
        first = [model.sample(i, i) for i in range(10)]
        model.set_state(snapshot)
        assert [model.sample(i, i) for i in range(10)] == first

    def test_create_latency(self):
        assert isinstance(create_latency(None), ZeroLatency)
        assert isinstance(create_latency("lognormal"), LogNormalLatency)
        assert isinstance(create_latency("heavytail"), ParetoLatency)
        with pytest.raises(ValueError, match="unknown straggler"):
            create_latency("tortoise")


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance(5.0)
        clock.advance_to(3.0)  # never rewinds
        assert clock.now == 5.0
        clock.advance_to(7.5)
        assert clock.now == 7.5
        with pytest.raises(ValueError, match="negative"):
            clock.advance(-1.0)

    def test_state_roundtrip(self):
        clock = VirtualClock()
        clock.advance(12.5)
        snapshot = clock.state()
        clock.advance(100.0)
        clock.set_state(snapshot)
        assert clock.now == 12.5


class TestCreateScheduler:
    def test_defaults_build_no_scheduler(self):
        assert create_scheduler(SchedulingOptions()) is None
        spelled_out = SchedulingOptions(
            round_policy="sync", availability="always", straggler_model="none"
        )
        assert create_scheduler(spelled_out) is None

    def test_any_option_builds_one(self):
        for options in (
            SchedulingOptions(participation=0.5),
            SchedulingOptions(straggler_model="lognormal"),
            SchedulingOptions(round_policy="deadline", deadline=10.0),
        ):
            assert isinstance(create_scheduler(options), RoundScheduler)

    def test_deadline_policy_requires_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            create_scheduler(SchedulingOptions(round_policy="deadline"))

    def test_fingerprint_describes_configuration(self):
        scheduler = create_scheduler(
            SchedulingOptions(
                participation=0.5,
                straggler_model="heavytail",
                round_policy="deadline",
                deadline=30.0,
            )
        )
        description = scheduler.describe()
        assert description["policy"] == "deadline"
        assert description["deadline"] == 30.0
        assert "uniform" in description["sampler"]
        assert "heavytail" in description["straggler"]


#: The algorithms whose cross-round state is one global model.
GLOBAL_MODEL_ALGORITHMS = ["fedavg", "fedprox", "fedavgm", "dp_fedprox", "fedprox_finetune"]

BACKENDS = {
    "serial": SerialBackend,
    "thread": lambda: ThreadPoolBackend(workers=2),
    "process": lambda: ProcessPoolBackend(workers=2),
}


def digests(result):
    """The global digest and every personalized digest of one training result."""
    return state_digest(result.global_state), {
        client_id: state_digest(state) for client_id, state in result.client_states.items()
    }


class TestScheduledRounds:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize("supervised", [False, True], ids=["unsupervised", "supervised"])
    @pytest.mark.parametrize("algorithm", GLOBAL_MODEL_ALGORITHMS)
    def test_explicit_full_sync_matches_schedulerless_run(
        self, algorithm, supervised, backend_name, make_clients, num_channels
    ):
        """A scheduler at its most trivial, a fault-free supervisor and any
        backend must not change a single bit of a serial, scheduler-less,
        unsupervised run."""
        plain = run_named(algorithm, make_clients(), num_channels)
        resilience = ResilienceManager() if supervised else None
        scheduled = run_named(
            algorithm,
            make_clients(),
            num_channels,
            backend=BACKENDS[backend_name](),
            scheduler=create_scheduler(SchedulingOptions(sampler="full")),
            resilience=resilience,
        )
        assert digests(scheduled) == digests(plain)
        assert [r.mean_loss for r in scheduled.history] == [r.mean_loss for r in plain.history]
        assert [r.per_client_loss for r in scheduled.history] == [
            r.per_client_loss for r in plain.history
        ]
        if supervised:
            summary = resilience.summary()
            assert (summary.retries, summary.gave_up, summary.dropped_clients) == (0, 0, [])
            assert sum(summary.injected.values()) == 0

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "fedavgm", "dp_fedprox"])
    def test_sampled_cohorts_identical_across_backends(
        self, algorithm, make_clients, num_channels
    ):
        def scheduler():
            return create_scheduler(
                SchedulingOptions(participation=0.5, straggler_model="lognormal"), seed=0
            )

        serial = run_named(
            algorithm,
            make_clients(),
            num_channels,
            backend=SerialBackend(),
            scheduler=scheduler(),
        )
        parallel = run_named(
            algorithm,
            make_clients(),
            num_channels,
            backend=ProcessPoolBackend(workers=2),
            scheduler=scheduler(),
        )
        assert states_equal(serial.global_state, parallel.global_state)
        for left, right in zip(serial.history, parallel.history):
            assert left.mean_loss == right.mean_loss
            assert left.extra == right.extra

    def test_partial_participation_trains_subset(self, make_clients, num_channels):
        scheduler = create_scheduler(SchedulingOptions(clients_per_round=1), seed=0)
        training = run_named("fedavg", make_clients(), num_channels, scheduler=scheduler)
        for record in training.history:
            assert record.extra["selected"] == 1
            assert record.extra["arrived"] == 1
            assert len(record.per_client_loss) == 1
        summary = scheduler.summary()
        assert summary.total_selected == 2
        assert summary.total_dropped == 0

    def test_straggler_latency_advances_virtual_clock(self, make_clients, num_channels):
        scheduler = create_scheduler(SchedulingOptions(straggler_model="lognormal"), seed=0)
        training = run_named("fedavg", make_clients(), num_channels, scheduler=scheduler)
        times = [record.extra["simulated_time_s"] for record in training.history]
        assert times == sorted(times)
        assert times[-1] > 0.0
        assert scheduler.summary().simulated_seconds == times[-1]

    def test_deadline_drops_stragglers(self, make_clients, num_channels):
        # The heavy tail guarantees some draw exceeds a tight deadline over
        # a few rounds; dropped stragglers are recorded and discarded.
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=4)
        scheduler = create_scheduler(
            SchedulingOptions(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
            seed=0,
        )
        training = run_named(
            "fedavg", make_clients(config), num_channels, config=config, scheduler=scheduler
        )
        summary = scheduler.summary()
        assert summary.total_selected == summary.total_arrived + summary.total_dropped
        assert summary.total_dropped > 0
        assert summary.simulated_seconds <= 4 * 10.0 + 1e-9
        dropped_rounds = [r for r in training.history if r.extra["dropped"]]
        assert dropped_rounds
        for record in dropped_rounds:
            # The dropped client's loss is not part of the round record.
            assert len(record.per_client_loss) == record.extra["arrived"]

    def test_unsupported_algorithm_warns_and_ignores_scheduler(
        self, make_clients, num_channels
    ):
        with pytest.warns(UserWarning, match="does not support client scheduling"):
            algorithm = create_algorithm(
                "local",
                make_clients(),
                make_factory(num_channels),
                TINY_CONFIG,
                scheduler=create_scheduler(SchedulingOptions(participation=0.5)),
            )
        assert algorithm.scheduler is None

    def test_fedbuff_rejected_for_non_delta_algorithms(self, make_clients, num_channels):
        with pytest.raises(ValueError, match="fedbuff"):
            create_algorithm(
                "fedavgm",
                make_clients(),
                make_factory(num_channels),
                TINY_CONFIG,
                scheduler=create_scheduler(SchedulingOptions(round_policy="fedbuff")),
            )


class TestFedBuff:
    def test_zero_latency_full_buffer_matches_fedavg(self, make_clients, num_channels):
        """FedBuff with buffer size K and no latency *is* synchronous FedAvg."""
        plain = run_named("fedavg", make_clients(), num_channels)
        scheduler = create_scheduler(
            SchedulingOptions(round_policy="fedbuff", buffer_size=2), seed=0
        )
        buffered = run_named("fedavg", make_clients(), num_channels, scheduler=scheduler)
        assert states_equal(plain.global_state, buffered.global_state)
        assert [r.mean_loss for r in plain.history] == [r.mean_loss for r in buffered.history]
        summary = scheduler.summary()
        assert summary.buffered_aggregations == TINY_CONFIG.rounds
        assert summary.mean_staleness == 0.0

    def test_stragglers_produce_staleness(self, make_clients, num_channels):
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=4)
        scheduler = create_scheduler(
            SchedulingOptions(round_policy="fedbuff", buffer_size=1, straggler_model="lognormal"),
            seed=0,
        )
        training = run_named(
            "fedavg", make_clients(config), num_channels, config=config, scheduler=scheduler
        )
        summary = scheduler.summary()
        assert summary.buffered_aggregations == 4
        assert summary.updates_buffered == 4
        # Buffer size 1 with two concurrent clients: the second arrival of
        # each batch is one aggregation stale.
        assert summary.max_staleness >= 1
        assert summary.simulated_seconds > 0.0
        assert len(training.history) == 4
        for record in training.history:
            assert "mean_staleness" in record.extra

    def test_fedbuff_measures_transport_bytes(self, make_clients, num_channels):
        from repro.fl import create_channel

        channel = create_channel("none")
        scheduler = create_scheduler(
            SchedulingOptions(round_policy="fedbuff", buffer_size=2), seed=0
        )
        algorithm = create_algorithm(
            "fedavg",
            make_clients(),
            make_factory(num_channels),
            TINY_CONFIG,
            channel=channel,
            scheduler=scheduler,
        )
        training = algorithm.run()
        assert training.global_state is not None
        summary = channel.summary()
        assert summary.total_uplink_bytes > 0
        assert summary.total_downlink_bytes > 0

    def test_fedbuff_identical_across_backends(self, make_clients, num_channels):
        def scheduler():
            return create_scheduler(
                SchedulingOptions(
                    round_policy="fedbuff", buffer_size=1, straggler_model="lognormal"
                ),
                seed=0,
            )

        serial = run_named(
            "fedavg", make_clients(), num_channels, backend=SerialBackend(), scheduler=scheduler()
        )
        parallel = run_named(
            "fedavg",
            make_clients(),
            num_channels,
            backend=ProcessPoolBackend(workers=2),
            scheduler=scheduler(),
        )
        assert states_equal(serial.global_state, parallel.global_state)


SCHEDULES = {
    "none": None,
    "participation": dict(participation=0.5),
    "deadline": dict(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
}


class TestRoundLoopContract:
    """What code outside the package relies on (``bench/workload.py`` first)."""

    @pytest.mark.parametrize("supervised", [False, True], ids=["unsupervised", "supervised"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("algorithm", GLOBAL_MODEL_ALGORITHMS)
    def test_one_client_pass_per_round_and_states_before_result(
        self, algorithm, schedule, supervised, make_clients, num_channels
    ):
        """``map_client_updates``, wrapped on the instance the way the bench
        harness wraps it, is called once per round with the global state
        first and returns a sized list; each round's accumulator is made
        after its pass begins and read as ``states()`` then ``result()``."""
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=3)
        options = SCHEDULES[schedule]
        instance = create_algorithm(
            algorithm,
            make_clients(config),
            make_factory(num_channels),
            config,
            scheduler=create_scheduler(SchedulingOptions(**options), seed=0) if options else None,
            # Quorum 0.5: a supervised deadline round that drops a straggler
            # still commits.
            resilience=ResilienceManager(quorum=0.5) if supervised else None,
        )
        passes, events = [], []
        wrapped = instance.map_client_updates

        def round_boundary(states, *args, **kwargs):
            events.append("pass")
            updates = wrapped(states, *args, **kwargs)
            passes.append((states, len(updates)))
            return updates

        instance.map_client_updates = round_boundary
        reads = []
        make_accumulator = instance.server.accumulator

        def recording_accumulator():
            events.append("accumulator")
            accumulator = make_accumulator()
            calls = []
            reads.append(calls)
            for name in ("states", "result"):
                method = getattr(accumulator, name)

                def read(method=method, name=name):
                    calls.append(name)
                    return method()

                setattr(accumulator, name, read)
            return accumulator

        instance.server.accumulator = recording_accumulator
        result = instance.run()

        # fedprox_finetune adds one fine-tuning pass after the rounds.
        assert len(passes) == config.rounds + (algorithm == "fedprox_finetune")
        initial = state_digest(flat_model_state(make_factory(num_channels)()))
        assert state_digest(passes[0][0]) == initial
        for states, arrived in passes[: config.rounds]:
            assert isinstance(states, FlatState)
            assert arrived >= 1
        assert events[: 2 * config.rounds] == ["pass", "accumulator"] * config.rounds
        assert events.count("accumulator") == config.rounds
        assert all(calls in ([], ["states", "result"]) for calls in reads)
        assert ["states", "result"] in reads
        assert len(result.history) == len(passes)

    @pytest.mark.parametrize("algorithm", ["fedprox", "dp_fedprox"])
    def test_one_round_equals_the_figure_1_round_by_hand(
        self, algorithm, make_clients, num_channels
    ):
        """Broadcast W0, train every client from it in roster order, fold the
        sample-weighted average; DP-FedProx clips and noises each update in
        arrival order from its one server-side noise stream."""
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=1)
        trained = create_algorithm(
            algorithm, make_clients(config), make_factory(num_channels), config
        )
        result = trained.run()

        clients = make_clients(config)
        start = flat_model_state(make_factory(num_channels)())
        noise = new_rng(np.random.SeedSequence([config.seed, 0xD9]))  # DP-FedProx's stream
        privacy = PrivacyConfig(clip_norm=1.0, noise_multiplier=0.1)
        updates, raw_norms = [], []
        for client in clients:
            update, _ = client.local_train(start, config.local_steps, config.proximal_mu)
            if algorithm == "dp_fedprox":
                update, raw_norm = privatize_update(start, update, privacy, noise)
                raw_norms.append(raw_norm)
            updates.append(update)
        expected = weighted_average(updates, [client.num_samples for client in clients])
        assert state_digest(result.global_state) == state_digest(expected)
        if algorithm == "dp_fedprox":
            assert trained.update_log.raw_norms == raw_norms

    @pytest.mark.parametrize("supervised", [False, True], ids=["unsupervised", "supervised"])
    def test_each_update_is_folded_before_the_next_client_trains(
        self, supervised, make_clients, num_channels
    ):
        """Server memory stays O(P): the pass hands each update to the loop
        as it arrives, not after the whole cohort has trained."""
        clients = make_clients()
        algorithm = create_algorithm(
            "fedavg",
            clients,
            make_factory(num_channels),
            TINY_CONFIG,
            resilience=ResilienceManager() if supervised else None,
        )
        events = []
        for client in clients:
            train = client.local_train

            def traced(*args, train=train, client_id=client.client_id, **kwargs):
                events.append(("train", client_id))
                return train(*args, **kwargs)

            client.local_train = traced
        make_accumulator = algorithm.server.accumulator

        def tracing_accumulator():
            accumulator = make_accumulator()
            fold = accumulator.fold

            def traced(*args, **kwargs):
                events.append(("fold",))
                return fold(*args, **kwargs)

            accumulator.fold = traced
            return accumulator

        algorithm.server.accumulator = tracing_accumulator
        algorithm.run()
        one_round = [event for client in clients for event in (("train", client.client_id), ("fold",))]
        assert events == one_round * TINY_CONFIG.rounds


class TestScheduledCheckpointResume:
    @pytest.mark.parametrize("algorithm", ["fedavg", "dp_fedprox"])
    @pytest.mark.parametrize("policy_options", [
        {"participation": 0.5, "straggler_model": "lognormal"},
        {
            "participation": 0.5,
            "straggler_model": "heavytail",
            "round_policy": "deadline",
            "deadline": 12.0,
        },
    ])
    def test_resume_matches_uninterrupted_run(
        self, algorithm, policy_options, tmp_path, make_clients, num_channels
    ):
        """Interrupt a sampled, straggling run; the resume must be bit-identical.

        Extends the RNG-state resume guarantee to the scheduler: the
        sampler / latency RNG states and the virtual clock are restored
        from the checkpoint, so the resumed run draws the same cohorts and
        latencies as an uninterrupted one.
        """
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        def scheduler():
            return create_scheduler(SchedulingOptions(**policy_options), seed=0)

        uninterrupted = run_named(
            algorithm,
            make_clients(long_config),
            num_channels,
            config=long_config,
            scheduler=scheduler(),
        )
        # Phase 1: half the rounds with checkpointing, then "crash".
        interrupted_scheduler = scheduler()
        run_named(
            algorithm,
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=interrupted_scheduler,
        )
        # Phase 2: a fresh process resumes from the checkpoint directory
        # with a *fresh* scheduler whose state comes from the checkpoint.
        resumed_scheduler = scheduler()
        resumed = run_named(
            algorithm,
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=resumed_scheduler,
        )

        assert states_equal(uninterrupted.global_state, resumed.global_state)
        assert [r.round_index for r in resumed.history] == [2, 3]
        reference = {r.round_index: r for r in uninterrupted.history}
        for record in resumed.history:
            expected = reference[record.round_index]
            # A round whose every selected client missed the deadline has no
            # losses (NaN mean); NaN != NaN, so compare per-client dicts.
            assert record.per_client_loss == expected.per_client_loss
            assert record.extra == expected.extra

    def test_resumed_summary_matches_uninterrupted(
        self, tmp_path, make_clients, num_channels
    ):
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        def scheduler():
            return create_scheduler(
                SchedulingOptions(participation=0.5, straggler_model="lognormal"), seed=0
            )

        full_scheduler = scheduler()
        run_named(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            scheduler=full_scheduler,
        )
        run_named(
            "fedavg",
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=scheduler(),
        )
        resumed_scheduler = scheduler()
        run_named(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=resumed_scheduler,
        )
        assert resumed_scheduler.summary() == full_scheduler.summary()

    def test_different_scheduling_fingerprint_rejected(
        self, tmp_path, make_clients, num_channels
    ):
        run_named(
            "fedavg",
            make_clients(),
            num_channels,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=create_scheduler(SchedulingOptions(participation=0.5), seed=0),
        )
        with pytest.raises(ValueError, match="written by a different run"):
            run_named(
                "fedavg",
                make_clients(),
                num_channels,
                checkpoint=CheckpointManager(tmp_path),
                scheduler=create_scheduler(SchedulingOptions(participation=0.99), seed=0),
            )


class TestClientInitialState:
    """Satellite: cached, client-RNG-seeded ``FederatedClient.initial_state``."""

    def test_cached_not_rebuilt(self, make_clients):
        client = make_clients()[0]
        calls = {"n": 0}
        factory = client._model_factory
        original = factory.build_with_seed

        def counting(seed):
            calls["n"] += 1
            return original(seed)

        factory.build_with_seed = counting
        try:
            first = client.initial_state()
            second = client.initial_state()
        finally:
            factory.build_with_seed = original
        assert calls["n"] == 1
        assert states_equal(first, second)
        # Returned copies are independent: mutating one leaves the cache alone.
        name = next(iter(first))
        first[name] += 1.0
        assert states_equal(second, client.initial_state())

    def test_seeded_from_client_rng(self, make_clients):
        roster_a = make_clients()
        roster_b = make_clients()
        # Same client (same RNG stream) -> same initialization...
        assert states_equal(roster_a[0].initial_state(), roster_b[0].initial_state())
        # ...different clients -> different initializations.
        assert not states_equal(roster_a[0].initial_state(), roster_a[1].initial_state())

    def test_does_not_consume_training_rng(self, make_clients):
        # The init seed comes from a dedicated per-client stream; calling
        # initial_state must never perturb the batch-shuffling RNG the
        # trainer shares.
        client = make_clients()[0]
        before = client.rng_state
        client.initial_state()
        assert client.rng_state == before

    def test_independent_of_factory_counter(
        self, tiny_train_dataset, tiny_test_dataset, num_channels
    ):
        # Pulling extra models from the shared factory must not perturb a
        # client's own initialization.
        factory_a = make_factory(num_channels)
        client_a = FederatedClient(1, tiny_train_dataset, tiny_test_dataset, factory_a, TINY_CONFIG)
        factory_b = make_factory(num_channels)
        client_b = FederatedClient(1, tiny_train_dataset, tiny_test_dataset, factory_b, TINY_CONFIG)
        factory_b()  # advance the shared counter
        assert states_equal(client_a.initial_state(), client_b.initial_state())
