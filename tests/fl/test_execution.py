"""Tests for the execution engine: backends, checkpointing, and regressions.

The central guarantees under test:

* ``ProcessPoolBackend`` produces **bit-identical** results to
  ``SerialBackend`` for the same seed (the backend contract),
* checkpoint/resume reproduces an uninterrupted run bit for bit,
* the refactored serial path matches the recorded pre-refactor seeded
  results (``--workers 1`` regression).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.fl import (
    BACKENDS,
    CheckpointManager,
    ClientTask,
    FederatedClient,
    FLConfig,
    ProcessPoolBackend,
    SeededModelFactory,
    SerialBackend,
    create_algorithm,
    create_backend,
)
from repro.fl.parameters import flatten_state, state_digest
from repro.models import FLNet

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


def digests(result):
    """The global digest (``None`` when there is none) and every client's digest."""
    global_state = result.global_state
    return None if global_state is None else state_digest(global_state), {
        client_id: state_digest(state) for client_id, state in result.client_states.items()
    }


#: The algorithms that joined the one round loop last: every personalised row.
PERSONALISED = ["fedbn", "fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha"]


def run_named(name, clients, num_channels, config=TINY_CONFIG, backend=None, checkpoint=None):
    algorithm = create_algorithm(
        name, clients, make_factory(num_channels), config, backend=backend, checkpoint=checkpoint
    )
    try:
        return algorithm.run()
    finally:
        if backend is not None:
            backend.close()


class TestBackendSelection:
    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "process", "thread", "wire"}

    def test_auto_resolution_from_workers(self):
        assert isinstance(create_backend(None, workers=None), SerialBackend)
        assert isinstance(create_backend("auto", workers=1), SerialBackend)
        backend = create_backend(None, workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 2

    def test_explicit_names(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("serial", workers=1), SerialBackend)
        assert isinstance(create_backend("process"), ProcessPoolBackend)

    def test_serial_with_multiple_workers_rejected(self):
        with pytest.raises(ValueError, match="cannot use 8 workers"):
            create_backend("serial", workers=8)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            create_backend("threads")

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            ProcessPoolBackend(workers=0)


class TestTaskValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown client op"):
            ClientTask(client_index=0, state={}, op="evaluate")

    def test_duplicate_client_rejected(self, make_clients):
        clients = make_clients()
        backend = SerialBackend()
        backend.bind(clients)
        state = clients[0].initial_state()
        tasks = [
            ClientTask(client_index=0, state=state, steps=1, proximal_mu=0.0),
            ClientTask(client_index=0, state=state, steps=1, proximal_mu=0.0),
        ]
        with pytest.raises(ValueError, match="at most one task per client"):
            backend.map(tasks)

    def test_map_before_bind_rejected(self):
        backend = ProcessPoolBackend(workers=2)
        with pytest.raises(RuntimeError, match="before bind"):
            backend.map([ClientTask(client_index=0, state={}, steps=1)])

    def test_shared_carriers_are_encoded_once(self, make_clients):
        # The broadcast dedup of the joiner backends: tasks that share a state
        # submit it once; a distinct state is submitted on its own.
        clients = make_clients()
        shared, own = clients[0].initial_state(), clients[1].initial_state()
        backend = ProcessPoolBackend(workers=1)
        backend.bind(clients)
        try:
            backend.map([ClientTask(client_index=0, state=shared, steps=1),
                         ClientTask(client_index=1, state=shared, steps=1)])
            assert backend.server.journal.high_state_id == 1
            backend.map([ClientTask(client_index=0, state=shared, steps=1),
                         ClientTask(client_index=1, state=own, steps=1)])
            assert backend.server.journal.high_state_id == 3
            assert backend.network_summary()["states_sent"] == 3
        finally:
            backend.close()

    def test_empty_map_is_noop(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.map([]) == []


class TestSerialParallelEquivalence:
    def test_fedavg_bit_identical(self, make_clients, num_channels):
        serial_clients = make_clients()
        serial = run_named("fedavg", serial_clients, num_channels, backend=SerialBackend())

        parallel_clients = make_clients()
        parallel = run_named(
            "fedavg", parallel_clients, num_channels, backend=ProcessPoolBackend(workers=2)
        )

        assert states_equal(serial.global_state, parallel.global_state)
        assert [r.mean_loss for r in serial.history] == [r.mean_loss for r in parallel.history]
        # The RNG hand-off leaves the rosters in identical states, so any
        # later round would stay identical too.
        for left, right in zip(serial_clients, parallel_clients):
            assert left.rng_state == right.rng_state

    def test_finetuned_personalized_states_bit_identical(self, make_clients, num_channels):
        # fedprox_finetune exercises both task ops: per-round training and
        # the final fine-tuning pass.
        serial = run_named("fedprox_finetune", make_clients(), num_channels, backend=SerialBackend())
        parallel = run_named(
            "fedprox_finetune", make_clients(), num_channels, backend=ProcessPoolBackend(workers=2)
        )
        assert states_equal(serial.global_state, parallel.global_state)
        assert set(serial.client_states) == set(parallel.client_states)
        for client_id in serial.client_states:
            assert states_equal(serial.client_states[client_id], parallel.client_states[client_id])

    def test_pool_survives_rebinding_same_roster(self, make_clients, num_channels):
        # One backend reused across two algorithm runs over the same roster
        # (as ExperimentRunner.run does) must keep producing serial results.
        clients = make_clients()
        backend = ProcessPoolBackend(workers=2)
        try:
            first = create_algorithm(
                "fedavg", clients, make_factory(num_channels), TINY_CONFIG, backend=backend
            ).run()
            second = create_algorithm(
                "fedavg", clients, make_factory(num_channels), TINY_CONFIG, backend=backend
            ).run()
        finally:
            backend.close()

        serial_clients = make_clients()
        serial_first = run_named("fedavg", serial_clients, num_channels, backend=SerialBackend())
        serial_second = run_named("fedavg", serial_clients, num_channels, backend=SerialBackend())
        assert states_equal(first.global_state, serial_first.global_state)
        assert states_equal(second.global_state, serial_second.global_state)


class TestCheckpointManager:
    def make_state(self, value: float):
        return {"w": np.full((2, 2), value), "b": np.arange(3.0)}

    def test_roundtrip(self, tmp_path, make_clients):
        clients = make_clients()
        manager = CheckpointManager(tmp_path / "ckpt")
        state = self.make_state(1.5)
        manager.save(
            3,
            state,
            clients,
            extra_states={"velocity": self.make_state(0.25)},
            extra_meta={"note": "hello"},
        )
        loaded = manager.load_latest()
        assert loaded is not None
        assert loaded.round_index == 3
        assert states_equal(loaded.global_state, state)
        assert states_equal(loaded.extra_states["velocity"], self.make_state(0.25))
        assert loaded.extra_meta == {"note": "hello"}
        assert set(loaded.client_rng_states) == {1, 2}
        assert loaded.client_rng_states[1] == clients[0].rng_state

    def test_restore_clients_rewinds_rng(self, tmp_path, make_clients):
        clients = make_clients()
        manager = CheckpointManager(tmp_path)
        manager.save(0, self.make_state(0.0), clients)
        before = [client.rng_state for client in clients]
        for client in clients:  # advance every stream
            client.local_train(client.initial_state(), steps=1, proximal_mu=0.0)
        assert [client.rng_state for client in clients] != before
        manager.restore_clients(clients, manager.load_latest())
        assert [client.rng_state for client in clients] == before

    def test_prune_keeps_most_recent(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for round_index in range(5):
            manager.save(round_index, self.make_state(float(round_index)))
        assert manager.saved_rounds() == [3, 4]
        assert manager.load_latest().round_index == 4
        # Pruned rounds leave no stray files behind.
        assert not list(tmp_path.glob("round_00000*"))

    def test_empty_directory(self, tmp_path):
        manager = CheckpointManager(tmp_path / "missing")
        assert manager.saved_rounds() == []
        assert manager.load_latest() is None
        with pytest.raises(FileNotFoundError):
            manager.load(7)

    def test_clear(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, self.make_state(1.0))
        manager.clear()
        assert manager.saved_rounds() == []
        assert not list(tmp_path.iterdir())

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep must be positive"):
            CheckpointManager(tmp_path, keep=0)


class TestCheckpointResume:
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedavgm", "dp_fedprox", *PERSONALISED])
    def test_resume_matches_uninterrupted_run(self, algorithm, tmp_path, make_clients, num_channels):
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=4)
        short_config = replace(TINY_CONFIG, rounds=2)

        uninterrupted = run_named(
            algorithm, make_clients(long_config), num_channels, config=long_config
        )

        # Phase 1: train half the rounds with checkpointing, then "crash".
        run_named(
            algorithm,
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
        )
        # Phase 2: a fresh process resumes from the checkpoint directory.
        resumed = run_named(
            algorithm,
            make_clients(long_config),
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
        )

        assert digests(resumed) == digests(uninterrupted)
        assert [r.round_index for r in resumed.history] == [2, 3]
        losses = {r.round_index: r.mean_loss for r in uninterrupted.history}
        for record in resumed.history:
            assert record.mean_loss == losses[record.round_index]

    @pytest.mark.parametrize("algorithm", ["fedavg", *PERSONALISED])
    def test_completed_run_resumes_to_final_state(
        self, algorithm, tmp_path, make_clients, num_channels
    ):
        manager = CheckpointManager(tmp_path)
        finished = run_named(algorithm, make_clients(), num_channels, checkpoint=manager)
        reloaded = run_named(
            algorithm, make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path)
        )
        # Global state and every client's state, from the checkpoint alone.
        assert digests(reloaded) == digests(finished)
        assert reloaded.history == []  # nothing left to train

    def test_resuming_under_a_changed_alpha_fails_loudly(self, tmp_path, make_clients, num_channels):
        from dataclasses import replace

        run_named("fedprox_alpha", make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path))
        with pytest.raises(ValueError, match="written by a different run"):
            run_named(
                "fedprox_alpha",
                make_clients(),
                num_channels,
                config=replace(TINY_CONFIG, alpha=0.25),
                checkpoint=CheckpointManager(tmp_path),
            )

    @pytest.mark.parametrize("algorithm, own", [
        ("fedbn", set()),
        ("fedprox_lg", set()),
        ("ifca", {"num_clusters", "ifca_eval_batches"}),
        ("assigned_clustering", {"num_clusters", "assigned_clusters"}),
        ("fedprox_alpha", {"alpha"}),
    ])
    def test_a_personalised_fingerprint_adds_only_what_its_server_rule_reads(
        self, algorithm, own, make_clients, num_channels
    ):
        def fingerprint(name):
            return create_algorithm(
                name, make_clients(), make_factory(num_channels), TINY_CONFIG
            ).checkpoint_fingerprint()

        shared, personalised = fingerprint("fedprox"), fingerprint(algorithm)
        assert set(personalised) - set(shared) == own
        assert {key: personalised[key] for key in shared} == {**shared, "algorithm": algorithm}

    def test_foreign_checkpoint_rejected(self, tmp_path, make_clients, num_channels):
        # A checkpoint directory written by a different run (here: another
        # algorithm) must be refused instead of silently resumed.
        run_named("fedavg", make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path))
        with pytest.raises(ValueError, match="written by a different run"):
            run_named(
                "fedavgm", make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path)
            )

    def test_model_switch_rejected(self, tmp_path, make_clients, num_channels):
        # Same algorithm/seed/hyper-parameters but a different architecture:
        # the parameter-shape guard must refuse the checkpoint.
        run_named("fedavg", make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path))
        other_factory = SeededModelFactory(
            lambda seed: FLNet(num_channels, hidden_filters=4, kernel_size=3, seed=seed),
            base_seed=0,
        )
        algorithm = create_algorithm(
            "fedavg",
            make_clients(),
            other_factory,
            TINY_CONFIG,
            checkpoint=CheckpointManager(tmp_path),
        )
        with pytest.raises(ValueError, match="different model"):
            algorithm.run()

    def test_a_round_algorithm_holds_the_checkpoint_and_local_none(
        self, tmp_path, make_clients, num_channels
    ):
        manager = CheckpointManager(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = {
                name: create_algorithm(
                    name, make_clients(), make_factory(num_channels), TINY_CONFIG, checkpoint=manager
                ).checkpoint
                for name in ("fedprox_lg", "local")
            }
        assert held == {"fedprox_lg": manager, "local": None}

    def test_parallel_resume_matches_serial(self, tmp_path, make_clients, num_channels):
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=3)
        short_config = replace(TINY_CONFIG, rounds=1)
        uninterrupted = run_named(
            "fedavg", make_clients(long_config), num_channels, config=long_config
        )
        run_named(
            "fedavg",
            make_clients(short_config),
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
        )
        resumed = run_named(
            "fedavg",
            make_clients(long_config),
            num_channels,
            config=long_config,
            backend=ProcessPoolBackend(workers=2),
            checkpoint=CheckpointManager(tmp_path),
        )
        assert states_equal(uninterrupted.global_state, resumed.global_state)


class TestPreRefactorRegression:
    """The serial path must keep matching the pre-refactor inline loops.

    The expected numbers below were produced by the original (pre execution
    engine) implementations on the ``smoke`` preset with seed 0; the
    ``--workers 1`` path resolves to the serial backend and must reproduce
    them.  Tolerances are tight enough that any behavioral change (extra RNG
    draw, reordered aggregation) fails loudly, while allowing for tiny
    BLAS-level differences across platforms.
    """

    FEDAVG_STATE_SUM = -246.14086843884382
    FEDAVG_FLAT_HEAD = [
        -0.024343567800140756,
        -0.006691051100811467,
        0.0028413601550515153,
        -0.0021705326431967573,
        -0.03223819102385468,
    ]
    FEDAVG_MEAN_LOSSES = [19.605418492958744, 0.8722693602415387]
    FEDPROX_STATE_SUM = -249.47933033559852
    FEDPROX_MEAN_LOSSES = [19.605418492958744, 0.8722715352840865]

    @pytest.fixture(scope="class")
    def smoke_runner(self):
        from repro.experiments import ExperimentRunner, smoke

        return ExperimentRunner(smoke("flnet", seed=0))

    def fresh_clients(self, runner):
        factory = runner.model_factory()
        return [
            FederatedClient.from_client_data(data, factory, runner.config.fl)
            for data in runner.client_data()
        ]

    def run_with_workers_1(self, runner, algorithm):
        backend = create_backend(None, workers=1)
        assert isinstance(backend, SerialBackend)
        return create_algorithm(
            algorithm,
            self.fresh_clients(runner),
            runner.model_factory(),
            runner.config.fl,
            backend=backend,
        ).run()

    def test_fedavg_matches_pre_refactor(self, smoke_runner):
        training = self.run_with_workers_1(smoke_runner, "fedavg")
        flat = flatten_state(training.global_state)
        np.testing.assert_allclose(flat[:5], self.FEDAVG_FLAT_HEAD, rtol=0, atol=1e-12)
        np.testing.assert_allclose(float(flat.sum()), self.FEDAVG_STATE_SUM, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            [record.mean_loss for record in training.history],
            self.FEDAVG_MEAN_LOSSES,
            rtol=0,
            atol=1e-10,
        )

    def test_fedprox_matches_pre_refactor(self, smoke_runner):
        training = self.run_with_workers_1(smoke_runner, "fedprox")
        flat = flatten_state(training.global_state)
        np.testing.assert_allclose(float(flat.sum()), self.FEDPROX_STATE_SUM, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            [record.mean_loss for record in training.history],
            self.FEDPROX_MEAN_LOSSES,
            rtol=0,
            atol=1e-10,
        )
