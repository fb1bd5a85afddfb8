"""End-to-end tests for population-scale federation.

Lazy client virtualization (:mod:`repro.fl.population`) promises two things:

* **laziness** — nothing is materialized before the sampler selects a
  client, and every round releases each client right after its update is
  folded, so peak materialization is bounded by the cohort;
* **bit-parity** — a sampled run over a virtualized population folds to the
  *identical* global state as averaging each cohort with the reference
  ``weighted_average`` GEMV (the parity buffer covers every small cohort).

That a directory roster trains the eager roster's bits on every backend and
through a resume is the parity matrix's (``test_parity_matrix.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data.clients import ClientData, ClientSpec
from repro.fl import (
    CheckpointManager,
    ClientDirectory,
    FederatedClient,
    FederatedServer,
    initial_rng_state,
)
from repro.fl.parameters import FlatState, flat_model_state, state_vector, weighted_average
from conftest import TINY_CONFIG, build_named, make_factory, scheduled, states_equal
from test_state_door import load_fl_oracles

pairwise_rms_distance = load_fl_oracles().pairwise_rms_distance_oracle

POPULATION_ALGORITHMS = ("fedavg", "fedprox", "fedavgm", "dp_fedprox")


class ReferenceAccumulator:
    """The test oracle: keep every folded state, average with the GEMV,
    drift from the pairwise loop."""

    def __init__(self):
        self.folded = []

    def fold(self, state, weight):
        self.folded.append((state, weight))

    @property
    def count(self):
        return len(self.folded)

    def states(self):
        return [state for state, _ in self.folded]

    def result(self):
        return weighted_average(self.states(), [weight for _, weight in self.folded])

    def spread(self):
        return pairwise_rms_distance(self.states())


class ReferenceDeltaAccumulator:
    """The FedBuff oracle: the buffered fold written out entry by entry."""

    def __init__(self):
        self.folded = []

    def fold(self, update, dispatch, weight, fresh):
        self.folded.append((update, dispatch, weight, fresh))

    def result(self, global_state):
        if all(fresh for _, _, _, fresh in self.folded):
            return weighted_average(
                [update for update, _, _, _ in self.folded],
                [weight for _, _, weight, _ in self.folded],
            )
        layout = global_state.layout
        total = sum(weight for _, _, weight, _ in self.folded)
        folded = global_state.vector.copy()
        for update, dispatch, weight, _ in self.folded:
            folded += (weight / total) * (
                state_vector(update, layout) - state_vector(dispatch, layout)
            )
        return FlatState(layout, folded)


def reference_server():
    """A server whose folds go through the oracles instead of the accumulators."""
    server = FederatedServer()
    server.accumulator = ReferenceAccumulator
    server.delta_accumulator = ReferenceDeltaAccumulator
    return server


def run_population(name, directory, num_channels, config=TINY_CONFIG, **options):
    """One algorithm run over a virtualized population; returns (training, ledger)."""
    algorithm = build_named(name, list(directory.handles), num_channels, config, **options)
    try:
        return algorithm.run(), algorithm.ledger
    finally:
        algorithm.backend.close()


def sampling_scheduler(clients_per_round=3, **options):
    return scheduled(clients_per_round=clients_per_round, **options)


class TestLaziness:
    def test_directory_builds_nothing_eagerly(self, make_directory):
        directory = make_directory(10_000)
        assert len(directory) == 10_000
        assert directory.eager_clients == 0
        # Every eager roster read a round loop performs stays virtual.
        handle = directory[4321]
        assert handle.client_id == 4322
        assert handle.num_samples == directory[4321 % 2].num_samples
        assert handle.rng_state == initial_rng_state(4322)
        assert handle._client is None
        assert directory.eager_clients == 0
        assert directory.total_materializations == 0

    def test_population_cycles_base_partitions(self, make_directory):
        directory = make_directory(7)
        assert [h.spec.base_index for h in directory] == [0, 1, 0, 1, 0, 1, 0]
        assert [h.client_id for h in directory] == [1, 2, 3, 4, 5, 6, 7]

    def test_handle_matches_eager_client_rng(self, make_directory, client_data, num_channels):
        directory = make_directory(5)
        handle = directory[2]
        eager = FederatedClient.from_client_data(
            ClientData(ClientSpec(3, "iscas89", 2, 2, 6, 4), client_data[0].train, client_data[0].test),
            make_factory(num_channels),
            TINY_CONFIG,
        )
        assert handle.rng_state == eager.rng_state

    def test_release_persists_the_rng_stream(self, make_directory):
        directory = make_directory(3)
        handle = directory[0]
        client = handle.materialize()
        assert directory.eager_clients == 1
        # Advance the client's private RNG, as local training would.
        client._rng.standard_normal(17)
        advanced = client.rng_state
        handle.release()
        assert directory.eager_clients == 0
        assert handle._client is None
        assert handle.rng_state == advanced  # captured, not reset
        rebuilt = handle.materialize()
        assert rebuilt is not client  # a genuinely fresh client...
        assert rebuilt.rng_state == advanced  # ...continuing the same stream
        assert directory.total_materializations == 2
        assert directory.total_releases == 1
        assert directory.peak_materialized == 1

    def test_invalid_directories_are_rejected(self, client_data, num_channels):
        with pytest.raises(ValueError, match="population must be positive"):
            ClientDirectory(client_data, make_factory(num_channels), TINY_CONFIG, population=0)
        with pytest.raises(ValueError, match="base client partition"):
            ClientDirectory([], make_factory(num_channels), TINY_CONFIG, population=5)

    def test_streaming_run_bounds_materialization(self, make_directory, num_channels):
        directory = make_directory(10_000)
        training, ledger = run_population(
            "fedavg",
            directory,
            num_channels,
            scheduler=sampling_scheduler(clients_per_round=3),
        )
        assert training.global_state is not None
        # Folded-and-released one at a time: never more than one client alive.
        assert directory.eager_clients == 0
        assert directory.peak_materialized <= 3
        assert directory.total_materializations == directory.total_releases
        assert ledger.folded == TINY_CONFIG.rounds * 3

    def test_fedbuff_releases_the_updates_still_in_flight(self, make_directory, num_channels):
        """The updates a FedBuff run discards at its end were never folded;
        their clients are released all the same."""
        directory = make_directory(30)
        _, ledger = run_population(
            "fedavg",
            directory,
            num_channels,
            config=replace(TINY_CONFIG, rounds=3),
            scheduler=sampling_scheduler(
                clients_per_round=6,
                round_policy="fedbuff",
                buffer_size=2,
                straggler_model="lognormal",
            ),
        )
        assert ledger.late > 0  # some were in flight when the run ended
        assert directory.materialized_count == 0
        assert directory.total_materializations == directory.total_releases


class TestStreamingParity:
    @pytest.mark.parametrize("algorithm", POPULATION_ALGORITHMS)
    def test_streaming_matches_gemv_bitwise(self, algorithm, make_directory, num_channels):
        """The tentpole guarantee: a sampled population run folds to exactly
        what averaging each cohort with ``weighted_average`` gives."""
        population = 10_000 if algorithm == "fedavg" else 200
        gemv, _ = run_population(
            algorithm,
            make_directory(population),
            num_channels,
            server=reference_server(),
            scheduler=sampling_scheduler(clients_per_round=9),
        )
        streamed, _ = run_population(
            algorithm,
            make_directory(population),
            num_channels,
            scheduler=sampling_scheduler(clients_per_round=9),
        )
        assert states_equal(gemv.global_state, streamed.global_state)
        assert [r.mean_loss for r in gemv.history] == [r.mean_loss for r in streamed.history]

    def test_streaming_matches_gemv_under_deadline_policy(
        self, make_directory, num_channels
    ):
        """Dropped stragglers are skipped by the arrival-order fold too."""

        def scheduler():
            return sampling_scheduler(
                clients_per_round=5,
                straggler_model="lognormal",
                round_policy="deadline",
                deadline=12.0,
            )

        gemv, _ = run_population(
            "fedavg",
            make_directory(50),
            num_channels,
            server=reference_server(),
            scheduler=scheduler(),
        )
        streamed, ledger = run_population(
            "fedavg", make_directory(50), num_channels, scheduler=scheduler()
        )
        assert states_equal(gemv.global_state, streamed.global_state)
        assert 0 < ledger.folded < TINY_CONFIG.rounds * 5  # some were dropped

    def test_streaming_matches_gemv_under_fedbuff(self, make_directory, num_channels):
        """The staleness-weighted delta fold agrees at parity buffer sizes."""

        def scheduler():
            return sampling_scheduler(
                clients_per_round=4,
                round_policy="fedbuff",
                buffer_size=2,
                straggler_model="lognormal",
            )

        gemv, _ = run_population(
            "fedavg",
            make_directory(50),
            num_channels,
            server=reference_server(),
            scheduler=scheduler(),
        )
        streamed, _ = run_population(
            "fedavg", make_directory(50), num_channels, scheduler=scheduler()
        )
        assert states_equal(gemv.global_state, streamed.global_state)
        assert [r.mean_loss for r in gemv.history] == [r.mean_loss for r in streamed.history]
        assert any(r.extra["max_staleness"] > 0 for r in streamed.history)

    def test_default_run_spills_and_releases_past_the_parity_buffer(
        self, make_directory, num_channels
    ):
        """A 40-client cohort leaves the parity buffer: the fold is the O(P)
        running sum, within 1e-12 of the GEMV, clients are still released one
        by one, and the per-arrival drift matches the pairwise loop."""
        from repro.fl.aggregation import PARITY_LIMIT

        clients_per_round = PARITY_LIMIT + 8
        gemv, _ = run_population(
            "fedavg",
            make_directory(10_000),
            num_channels,
            server=reference_server(),
            scheduler=sampling_scheduler(clients_per_round=clients_per_round),
        )
        directory = make_directory(10_000)
        streamed, ledger = run_population(
            "fedavg",
            directory,
            num_channels,
            scheduler=sampling_scheduler(clients_per_round=clients_per_round),
        )
        assert ledger.folded == TINY_CONFIG.rounds * clients_per_round
        assert directory.peak_materialized < clients_per_round
        for reference, record in zip(gemv.history, streamed.history):
            assert record.extra["client_drift"] == pytest.approx(
                reference.extra["client_drift"], rel=1e-12
            )
        assert not states_equal(gemv.global_state, streamed.global_state)
        for name, reference in gemv.global_state.items():
            np.testing.assert_allclose(
                streamed.global_state[name], reference, rtol=0, atol=1e-12 * np.abs(reference).max()
            )


class TestCheckpointResume:
    def test_fedbuff_resume_parity_between_modes(
        self, tmp_path, make_directory, num_channels
    ):
        """FedBuff checkpoints cover aggregations, not in-flight updates: the
        interrupted half matches the uninterrupted run bit for bit, and the
        resumed half re-dispatches from the checkpoint — deterministically,
        landing exactly where the reference fold does."""
        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        def scheduler():
            return sampling_scheduler(
                clients_per_round=3,
                round_policy="fedbuff",
                buffer_size=2,
                straggler_model="lognormal",
            )

        def interrupted_then_resumed(server, directory_path):
            interrupted, _ = run_population(
                "fedavg",
                make_directory(50, short_config),
                num_channels,
                config=short_config,
                server=server(),
                checkpoint=CheckpointManager(directory_path),
                scheduler=scheduler(),
            )
            resumed, _ = run_population(
                "fedavg",
                make_directory(50, long_config),
                num_channels,
                config=long_config,
                server=server(),
                checkpoint=CheckpointManager(directory_path),
                scheduler=scheduler(),
            )
            return interrupted, resumed

        uninterrupted, _ = run_population(
            "fedavg",
            make_directory(50, long_config),
            num_channels,
            config=long_config,
            scheduler=scheduler(),
        )
        _, gemv = interrupted_then_resumed(reference_server, tmp_path / "gemv")
        interrupted, streamed = interrupted_then_resumed(FederatedServer, tmp_path / "streaming")
        assert [r.mean_loss for r in interrupted.history] == [
            r.mean_loss for r in uninterrupted.history[:2]
        ]
        assert states_equal(gemv.global_state, streamed.global_state)
        assert [r.round_index for r in streamed.history] == [2, 3]


class TestHandleTransport:
    def test_handle_pickles_as_spec_plus_rng(self, make_directory):
        import pickle

        directory = make_directory(5)
        handle = directory[3]
        client = handle.materialize()
        client._rng.standard_normal(5)
        expected_rng = client.rng_state
        clone = pickle.loads(pickle.dumps(handle))
        assert clone._client is None  # ships virtual, rebuilt on demand
        assert clone.client_id == handle.client_id
        assert clone.rng_state == expected_rng
        handle.release()

    def test_directory_pickle_drops_counters(self, make_directory):
        import pickle

        directory = make_directory(6)
        directory[0].materialize()
        clone = pickle.loads(pickle.dumps(directory))
        assert clone.population == 6
        assert clone.eager_clients == 0
        assert clone.total_materializations == 0


class TestJoinerRelease:
    """A joiner releases a virtual client after every task, as the coordinator does."""

    def envelope(self, state, seq=1):
        from repro.fl.net.messages import TaskEnvelope
        from repro.fl.transport.envelope import encode_carrier

        return TaskEnvelope(
            client_id=1, seq=seq, op="train", blob=encode_carrier(state), is_wire=False,
            steps=1, proximal_mu=0.0, rng_state=initial_rng_state(1),
        )

    def test_a_trained_handle_is_released(self, make_directory, num_channels):
        from repro.fl.net.client import FederationClientRunner

        directory = make_directory(3)
        handle = directory[0]
        state = flat_model_state(make_factory(num_channels)())
        runner = FederationClientRunner([handle], "127.0.0.1", 1)
        update = runner._execute(self.envelope(state))
        assert update.error is None and update.state is not None
        assert handle._client is None
        assert directory.eager_clients == 0
        # The post-training stream is what the update carries, and the handle keeps it.
        assert handle.rng_state == update.rng_state != initial_rng_state(1)

    def test_a_failed_task_releases_its_handle_too(self, make_directory):
        from repro.fl.net.client import FederationClientRunner

        directory = make_directory(3)
        handle = directory[0]
        runner = FederationClientRunner([handle], "127.0.0.1", 1)
        wrong = FlatState.from_state({"not.a.layer": np.zeros(3)})
        update = runner._execute(self.envelope(wrong))
        assert update.error is not None
        assert directory.total_materializations == 1  # it trained far enough to build the client
        assert handle._client is None
        assert directory.eager_clients == 0
