"""Tests for the client-population scheduling subsystem.

The central guarantees under test:

* samplers / availability / latency models are deterministic, seeded, and
  checkpointable (state round-trips),
* a scheduler configured to full-sync / no-straggler behavior, under the
  default or a fault-free tolerant supervisor, on any backend, is
  **bit-identical** to a serial run on the default scheduler and manager,
  for every round algorithm,
* the round loop keeps the contract the bench harness relies on: one
  client pass per round, the global state first, ``states()`` before
  ``result()``, and each update folded as it arrives,
* sampled cohorts are identical across execution backends (serial vs.
  process pool), and across checkpoint resume under partial participation
  with stragglers,
* the deadline policy drops stragglers (recorded, discarded) and aggregates
  only the survivors,
* FedBuff with buffer size K and zero latency is bit-identical to
  synchronous FedAvg over the same cohort, and the one round loop equals
  FedBuff's own event loop (``fedbuff_oracle``) bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.data.clients import ClientData, ClientSpec
from repro.fl import (
    CheckpointManager,
    ClientDirectory,
    FederatedClient,
    FLConfig,
    ProcessPoolBackend,
    ResilienceManager,
    RetryPolicy,
    SchedulingOptions,
    SeededModelFactory,
    SerialBackend,
    ThreadPoolBackend,
    create_algorithm,
    create_scheduler,
)
from repro.fl.parameters import (
    FlatState,
    filter_state,
    flat_model_state,
    state_digest,
    weighted_average,
)
from repro.fl.privacy import PrivacyConfig, privatize_update
from repro.fl.scheduling import (
    AlwaysAvailable,
    FullParticipation,
    RoundScheduler,
    VirtualClock,
    ZeroLatency,
    create_availability,
    create_latency,
    create_sampler,
)
from repro.fl.scheduling.availability import BernoulliAvailability, DayNightAvailability
from repro.fl.scheduling.latency import LogNormalLatency, ParetoLatency, UniformLatency
from repro.fl.scheduling.samplers import UniformSampler, WeightedSampler
from repro.models import FLNet
from repro.utils.rng import new_rng
from test_state_door import load_fl_oracles

O = load_fl_oracles()

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


def build_named(
    name,
    clients,
    num_channels,
    config=TINY_CONFIG,
    backend=None,
    checkpoint=None,
    scheduler=None,
    resilience=None,
):
    return create_algorithm(
        name,
        clients,
        make_factory(num_channels),
        config,
        backend=backend,
        checkpoint=checkpoint,
        scheduler=scheduler,
        resilience=resilience,
    )


def run_named(name, clients, num_channels, backend=None, **options):
    algorithm = build_named(name, clients, num_channels, backend=backend, **options)
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

    def test_create_daynight_cycles_over_one_day_at_the_rate(self):
        model = create_availability("daynight", rate=0.25)
        assert model.duty_fraction == 0.25
        assert model.period == 86_400.0
        # Client 0 has phase 0: on for the first quarter of each day.
        assert model.available(0, 1, 21_599.0)
        assert not model.available(0, 1, 21_601.0)
        assert model.available(0, 1, 86_400.0 + 10.0)


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

    def test_uniform_within_bounds_and_deterministic(self):
        draws_a = [UniformLatency(low=2.0, high=3.0, seed=5).sample(0, 0) for _ in range(3)]
        model = UniformLatency(low=2.0, high=3.0, seed=5)
        draws_b = [model.sample(i, i) for i in range(200)]
        assert draws_a == [draws_b[0]] * 3
        assert all(2.0 <= d <= 3.0 for d in draws_b)
        assert len(set(draws_b)) == len(draws_b)

    @pytest.mark.parametrize("low, high", [(-1.0, 5.0), (10.0, 5.0)])
    def test_uniform_rejects_bad_range(self, low, high):
        with pytest.raises(ValueError, match="need 0 <= low <= high"):
            UniformLatency(low=low, high=high)

    def test_uniform_degenerate_range_is_constant(self):
        model = UniformLatency(low=7.0, high=7.0, seed=1)
        assert [model.sample(i, i) for i in range(5)] == [7.0] * 5
        assert model.describe() == "uniform[7, 7]"

    def test_uniform_state_roundtrip(self):
        model = UniformLatency(seed=3)
        snapshot = model.state()
        first = [model.sample(i, i) for i in range(10)]
        model.set_state(snapshot)
        assert [model.sample(i, i) for i in range(10)] == first

    def test_create_latency(self):
        assert isinstance(create_latency(None), ZeroLatency)
        assert isinstance(create_latency("Uniform"), UniformLatency)
        assert create_latency("uniform", seed=4).sample(0, 0) == UniformLatency(seed=4).sample(0, 0)
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
    def test_defaults_build_the_inert_scheduler(self):
        assert create_scheduler(SchedulingOptions()).inert
        spelled_out = SchedulingOptions(
            round_policy="sync", availability="always", straggler_model="none"
        )
        assert create_scheduler(spelled_out).inert

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

    def test_fedbuff_down_weights_by_inverse_square_root_of_staleness(self):
        scheduler = create_scheduler(SchedulingOptions(round_policy="fedbuff", buffer_size=2))
        weights = [scheduler.staleness_weight(s) for s in range(4)]
        assert weights == [1.0, 2.0**-0.5, 3.0**-0.5, 0.5]
        assert scheduler.staleness_weight(-3) == 1.0

    def test_fedbuff_fingerprint_records_the_staleness_exponent(self):
        scheduler = create_scheduler(SchedulingOptions(round_policy="fedbuff", buffer_size=2))
        description = scheduler.describe()
        assert description["policy"] == "fedbuff"
        assert description["buffer_size"] == 2
        assert description["staleness_exponent"] == 0.5


#: The algorithms whose cross-round state is one global model.
GLOBAL_MODEL_ALGORITHMS = ["fedavg", "fedprox", "fedavgm", "dp_fedprox", "fedprox_finetune"]
#: The personalised rows, on the same loop: what the server keeps is theirs.
PERSONALISED = ["fedbn", "fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha"]
ROUND_ALGORITHMS = GLOBAL_MODEL_ALGORITHMS + PERSONALISED

BACKENDS = {
    "serial": SerialBackend,
    "thread": lambda: ThreadPoolBackend(workers=2),
    "process": lambda: ProcessPoolBackend(workers=2),
}


def digests(result):
    """The global digest (``None`` when there is none) and every personalized digest."""
    global_state = result.global_state
    return None if global_state is None else state_digest(global_state), {
        client_id: state_digest(state) for client_id, state in result.client_states.items()
    }


class TestScheduledRounds:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize("tolerant", [False, True], ids=["inert", "tolerant"])
    @pytest.mark.parametrize("algorithm", ROUND_ALGORITHMS)
    def test_explicit_full_sync_matches_default_run(
        self, algorithm, tolerant, backend_name, make_clients, num_channels
    ):
        """A scheduler at its most trivial, a fault-free tolerant supervisor
        and any backend must not change a single bit of a serial run on the
        default scheduler and manager."""
        plain = run_named(algorithm, make_clients(), num_channels)
        backend = BACKENDS[backend_name]()
        instance = build_named(
            algorithm,
            make_clients(),
            num_channels,
            backend=backend,
            scheduler=create_scheduler(SchedulingOptions(sampler="full")),
            resilience=ResilienceManager() if tolerant else None,
        )
        try:
            scheduled = instance.run()
        finally:
            backend.close()
        assert digests(scheduled) == digests(plain)
        assert [r.mean_loss for r in scheduled.history] == [r.mean_loss for r in plain.history]
        assert [r.per_client_loss for r in scheduled.history] == [
            r.per_client_loss for r in plain.history
        ]
        if tolerant:
            summary = instance.ledger.resilience_summary()
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
        instance = build_named("fedavg", make_clients(), num_channels, scheduler=scheduler)
        training = instance.run()
        for record in training.history:
            assert record.extra["selected"] == 1
            assert record.extra["arrived"] == 1
            assert len(record.per_client_loss) == 1
        summary = instance.ledger.scheduling_summary()
        assert summary.total_selected == 2
        assert summary.total_dropped == 0

    def test_straggler_latency_advances_virtual_clock(self, make_clients, num_channels):
        scheduler = create_scheduler(SchedulingOptions(straggler_model="lognormal"), seed=0)
        instance = build_named("fedavg", make_clients(), num_channels, scheduler=scheduler)
        training = instance.run()
        times = [record.extra["simulated_time_s"] for record in training.history]
        assert times == sorted(times)
        assert times[-1] > 0.0
        assert instance.ledger.scheduling_summary().simulated_seconds == times[-1]

    def test_deadline_drops_stragglers(self, make_clients, num_channels):
        # The heavy tail guarantees some draw exceeds a tight deadline over
        # a few rounds; dropped stragglers are recorded and discarded.
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=4)
        scheduler = create_scheduler(
            SchedulingOptions(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
            seed=0,
        )
        instance = build_named(
            "fedavg", make_clients(config), num_channels, config=config, scheduler=scheduler
        )
        training = instance.run()
        summary = instance.ledger.scheduling_summary()
        assert summary.total_selected == summary.total_arrived + summary.total_dropped
        assert summary.total_dropped > 0
        assert summary.simulated_seconds <= 4 * 10.0 + 1e-9
        dropped_rounds = [r for r in training.history if r.extra["dropped"]]
        assert dropped_rounds
        for record in dropped_rounds:
            # The dropped client's loss is not part of the round record.
            assert len(record.per_client_loss) == record.extra["arrived"]

    def test_a_round_algorithm_holds_the_scheduler_and_local_an_inert_one(
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
                    scheduler=create_scheduler(SchedulingOptions(participation=0.5)),
                ).scheduler
                for name in ("ifca", "local")
            }
        assert not held["ifca"].inert and held["local"].inert

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
        instance = build_named("fedavg", make_clients(), num_channels, scheduler=scheduler)
        buffered = instance.run()
        assert states_equal(plain.global_state, buffered.global_state)
        assert [r.mean_loss for r in plain.history] == [r.mean_loss for r in buffered.history]
        summary = instance.ledger.scheduling_summary()
        assert summary.buffered_aggregations == TINY_CONFIG.rounds
        assert summary.mean_staleness == 0.0

    def test_stragglers_produce_staleness(self, make_clients, num_channels):
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=4)
        scheduler = create_scheduler(
            SchedulingOptions(round_policy="fedbuff", buffer_size=1, straggler_model="lognormal"),
            seed=0,
        )
        instance = build_named(
            "fedavg", make_clients(config), num_channels, config=config, scheduler=scheduler
        )
        training = instance.run()
        summary = instance.ledger.scheduling_summary()
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


#: name -> (algorithm, scheduling options, virtual population or None for
#: the two-client roster) of the one-loop / event-loop parity runs.
FEDBUFF_CASES = {
    **{
        f"buffer{size}-{latency}": ("fedavg", dict(buffer_size=size, straggler_model=latency), None)
        for size in (1, 2, 3)
        for latency in ("none", "lognormal", "heavytail")
    },
    "bernoulli-0.4": (
        "fedavg",
        dict(buffer_size=2, straggler_model="lognormal", availability="bernoulli", availability_rate=0.4),
        None,
    ),
    "daynight": ("fedavg", dict(buffer_size=2, straggler_model="uniform", availability="daynight"), None),
    "one-per-round": ("fedavg", dict(buffer_size=2, clients_per_round=1, straggler_model="lognormal"), None),
    "population-fedprox": (
        "fedprox",
        dict(buffer_size=3, clients_per_round=5, sampler="weighted", straggler_model="heavytail"),
        40,
    ),
}


class TestFedBuffOracle:
    @pytest.mark.parametrize("case", sorted(FEDBUFF_CASES))
    def test_the_one_loop_equals_the_event_loop(
        self,
        case,
        make_clients,
        num_channels,
        tiny_train_dataset,
        tiny_test_dataset,
        tiny_train_dataset_itc,
        tiny_test_dataset_itc,
    ):
        """Under ``fedbuff`` the round loop equals FedBuff's own event loop
        bit for bit: the final state, every round record and the scheduling
        summary."""
        from dataclasses import replace

        algorithm, options, population = FEDBUFF_CASES[case]
        config = replace(TINY_CONFIG, rounds=4)
        data = [
            ClientData(ClientSpec(1, "iscas89", 2, 2, 6, 4), tiny_train_dataset, tiny_test_dataset),
            ClientData(ClientSpec(2, "itc99", 2, 1, 6, 2), tiny_train_dataset_itc, tiny_test_dataset_itc),
        ]

        def build():
            if population is None:
                clients = make_clients(config)
            else:
                factory = make_factory(num_channels)
                clients = ClientDirectory(data, factory, config, population=population).handles
            scheduler = create_scheduler(SchedulingOptions(round_policy="fedbuff", **options), seed=0)
            return build_named(algorithm, list(clients), num_channels, config=config, scheduler=scheduler)

        instance = build()
        training = instance.run()
        oracle, summary = O.fedbuff_oracle(build())
        assert states_equal(training.global_state, oracle.global_state)
        assert [r.round_index for r in training.history] == list(range(config.rounds))
        assert [(r.per_client_loss, r.extra) for r in training.history] == [
            (r.per_client_loss, r.extra) for r in oracle.history
        ]
        assert instance.ledger.scheduling_summary() == summary
        assert summary.total_selected == summary.total_arrived + summary.total_dropped


SCHEDULES = {
    "none": None,
    "participation": dict(participation=0.5),
    "deadline": dict(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
}


class TestRoundLoopContract:
    """What code outside the package relies on (``bench/workload.py`` first)."""

    @pytest.mark.parametrize("tolerant", [False, True], ids=["inert", "tolerant"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("algorithm", ROUND_ALGORITHMS)
    def test_one_client_pass_per_round_and_result_before_spread(
        self, algorithm, schedule, tolerant, make_clients, num_channels
    ):
        """``map_client_updates``, wrapped on the instance the way the bench
        harness wraps it, is called once per round — with the global state
        first for a global-model algorithm, one start state per participant
        for a personalised one — and returns a sized list; each round's
        accumulators are made after its pass begins, and a global average is
        read as ``result()`` then ``spread()``."""
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=3)
        options = SCHEDULES[schedule]
        instance = create_algorithm(
            algorithm,
            make_clients(config),
            make_factory(num_channels),
            config,
            scheduler=create_scheduler(SchedulingOptions(**options), seed=0) if options else None,
            # At quorum 1.0: a deadline's late straggler is not a failure.
            resilience=ResilienceManager(retry=RetryPolicy(max_retries=2)) if tolerant else None,
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
            for name in ("states", "result", "spread"):
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
        global_model = algorithm in GLOBAL_MODEL_ALGORITHMS
        if global_model:
            initial = state_digest(flat_model_state(make_factory(num_channels)()))
            assert state_digest(passes[0][0]) == initial
        for states, arrived in passes[: config.rounds]:
            assert isinstance(states, FlatState if global_model else list)
            assert arrived >= 1
        # One global average, one per cluster, or none for alpha-portion sync.
        made = {"ifca": config.num_clusters, "assigned_clustering": config.num_clusters, "fedprox_alpha": 0}
        one_round = ["pass"] + ["accumulator"] * made.get(algorithm, 1)
        assert events[: len(one_round) * config.rounds] == one_round * config.rounds
        assert events.count("accumulator") == (len(one_round) - 1) * config.rounds
        # The loop reads the average (then, for a global model, the drift
        # folded per arrival); it never asks for the individual states.
        read = ["result", "spread"] if global_model else ["result"]
        assert all(calls in ([], read) for calls in reads)
        assert read in reads or algorithm == "fedprox_alpha"
        assert len(result.history) == len(passes)

    @pytest.mark.parametrize("schedule", ["participation", "deadline"])
    @pytest.mark.parametrize("algorithm", ["fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha"])
    def test_a_client_that_kept_no_update_keeps_its_server_record(
        self, algorithm, schedule, make_clients, num_channels
    ):
        """Outside the cohort or past the deadline, a client's private part,
        cluster assignment or alpha state is what it was before the round."""
        from dataclasses import replace

        config = replace(TINY_CONFIG, rounds=4)
        instance = create_algorithm(
            algorithm,
            make_clients(config),
            make_factory(num_channels),
            config,
            scheduler=create_scheduler(SchedulingOptions(**SCHEDULES[schedule]), seed=0),
        )
        records = []
        save_checkpoint = instance.save_checkpoint

        def snapshot(round_index, global_state):
            # What a checkpoint of this round would carry for each client.
            states, meta = instance._checkpoint_extras()
            assignment = meta.get("assignment", {})
            records.append({
                client.client_id: [
                    assignment.get(str(client.client_id)),
                    *(
                        state_digest(states[name])
                        for name in (f"private_{client.client_id}", f"client_{client.client_id}")
                        if name in states
                    ),
                ]
                for client in instance.clients
            })
            save_checkpoint(round_index, global_state)

        instance.save_checkpoint = snapshot
        result = instance.run()

        assert len(records) == len(result.history) == config.rounds
        idle = 0
        for before, record, after in zip(records, result.history[1:], records[1:]):
            for client_id in after:
                if client_id not in record.per_client_loss:
                    idle += 1
                    assert after[client_id] == before[client_id]
        assert idle > 0

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

    def test_two_fedprox_lg_rounds_equal_the_partition_rules_by_hand(self, make_clients, num_channels):
        """Each client trains the aggregated shared part written over its own
        full state; the server averages the shared part only."""
        result = create_algorithm(
            "fedprox_lg", make_clients(), make_factory(num_channels), TINY_CONFIG
        ).run()

        clients = make_clients()
        template = make_factory(num_channels)()
        local = set(template.local_parameter_names())
        initial = flat_model_state(template)
        shared = [name for name in initial if name not in local]
        global_part = filter_state(initial, shared)
        full = {client.client_id: initial for client in clients}
        weights = [client.num_samples for client in clients]
        for _ in range(TINY_CONFIG.rounds):
            for client in clients:
                start = O.merge_global_local_oracle(global_part, full[client.client_id])
                full[client.client_id], _ = client.local_train(
                    start, TINY_CONFIG.local_steps, TINY_CONFIG.proximal_mu
                )
            global_part = O.aggregate_partition_oracle(list(full.values()), weights, shared)
        assert result.global_state is None
        assert digests(result)[1] == {
            client_id: state_digest(O.merge_global_local_oracle(global_part, state))
            for client_id, state in full.items()
        }

    def test_two_ifca_rounds_equal_the_cluster_rules_by_hand(self, make_clients, num_channels):
        """Every client probes each cluster in roster order, trains the best
        one; the server averages per cluster and keeps an unchosen one."""
        result = create_algorithm("ifca", make_clients(), make_factory(num_channels), TINY_CONFIG).run()

        clients = make_clients()
        factory = make_factory(num_channels)
        clusters = {cluster: flat_model_state(factory()) for cluster in range(TINY_CONFIG.num_clusters)}
        assignment = {}
        for _ in range(TINY_CONFIG.rounds):
            for client in clients:
                losses = {
                    cluster: client.training_loss(state, max_batches=TINY_CONFIG.ifca_eval_batches)
                    for cluster, state in clusters.items()
                }
                assignment[client.client_id] = min(losses, key=losses.get)
            members, member_weights = {}, {}
            for client in clients:
                cluster = assignment[client.client_id]
                update, _ = client.local_train(
                    clusters[cluster], TINY_CONFIG.local_steps, TINY_CONFIG.proximal_mu
                )
                members.setdefault(cluster, []).append(update)
                member_weights.setdefault(cluster, []).append(client.num_samples)
            clusters = O.aggregate_clusters_oracle(clusters, members, member_weights)
        average = weighted_average(list(clusters.values()), np.ones(len(clusters)))
        assert digests(result) == (
            state_digest(average),
            {client_id: state_digest(clusters[cluster]) for client_id, cluster in assignment.items()},
        )
        assert result.history[-1].extra["assignment"] == assignment

    @pytest.mark.parametrize("tolerant", [False, True], ids=["inert", "tolerant"])
    def test_each_update_is_folded_before_the_next_client_trains(
        self, tolerant, make_clients, num_channels
    ):
        """Server memory stays O(P): the pass hands each update to the loop
        as it arrives, not after the whole cohort has trained."""
        clients = make_clients()
        algorithm = create_algorithm(
            "fedavg",
            clients,
            make_factory(num_channels),
            TINY_CONFIG,
            resilience=ResilienceManager() if tolerant else None,
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

        full = build_named(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            scheduler=scheduler(),
        )
        full.run()
        run_named(
            "fedavg",
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=scheduler(),
        )
        resumed = build_named(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
            scheduler=scheduler(),
        )
        resumed.run()
        assert resumed.ledger.scheduling_summary() == full.ledger.scheduling_summary()

    def test_a_resumed_fedbuff_run_keeps_selected_equal_to_folded_plus_late(
        self, tmp_path, make_clients, num_channels
    ):
        """A checkpoint keeps no FedBuff update in flight.  Resuming a finished
        run dispatches nothing and reports the uninterrupted totals; resuming
        mid-run counts the checkpoint's in-flight dispatches as late."""
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        def run(config, directory):
            scheduler = create_scheduler(
                SchedulingOptions(round_policy="fedbuff", buffer_size=1, straggler_model="lognormal"),
                seed=0,
            )
            instance = build_named(
                "fedavg",
                make_clients(config),
                num_channels,
                config=config,
                checkpoint=CheckpointManager(directory),
                scheduler=scheduler,
            )
            return instance.run(), instance.ledger.scheduling_summary()

        uninterrupted, full = run(long_config, tmp_path / "full")
        assert full.total_dropped > 0  # a client was in flight at the budget
        again, resumed = run(long_config, tmp_path / "full")
        assert states_equal(uninterrupted.global_state, again.global_state)
        assert again.history == []
        assert resumed == full

        run(short_config, tmp_path / "half")
        _, midway = run(long_config, tmp_path / "half")
        assert midway.rounds == 4
        assert midway.total_selected == midway.total_arrived + midway.total_dropped
        assert midway.total_dropped > full.total_dropped

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
