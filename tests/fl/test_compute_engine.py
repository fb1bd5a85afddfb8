"""Tests for the local-training compute engine across the federated stack.

* **Warm executors** — the process pool and the thread pool each spawn
  workers exactly once per backend lifetime, however many rounds run.
* **float32 engine** — loss curves within tolerance of float64, float64 at
  every state boundary (FlatState, wire codecs, checkpoints), and checkpoint
  fingerprints that refuse to resume across a dtype switch.

That every backend and a resume train the serial bits, in either dtype, is
the parity matrix's (``test_parity_matrix.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.fl import (
    CheckpointManager,
    ClientTask,
    FLConfig,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
)
from repro.fl.client import lent_model
from repro.fl.parameters import FlatState, flat_model_state

from conftest import TINY_CONFIG, make_factory, run_named, states_equal
from test_state_door import load_fl_oracles

map_tasks = load_fl_oracles().map_tasks
TINY_FLOAT32 = replace(TINY_CONFIG, compute_dtype="float32")


class TestWarmPoolLifecycle:
    def test_process_pool_spawns_once_across_rounds(self, make_clients, num_channels):
        backend = ProcessPoolBackend(workers=2)
        assert backend.spawn_count == 0
        run_named("fedavg", make_clients(), num_channels, backend=backend)
        # TINY_CONFIG runs 2 rounds => at least 2 map calls on one pool.
        assert backend.spawn_count == 1

    def test_process_pool_spawns_once_across_map_calls(self, make_clients, num_channels):
        backend = ProcessPoolBackend(workers=2)
        clients = make_clients()
        backend.bind(clients)
        state = flat_model_state(make_factory(num_channels)())
        with backend:
            for _ in range(3):
                map_tasks(
                    backend, [ClientTask(client_index=i, state=state, steps=1) for i in range(2)]
                )
            assert backend.spawn_count == 1

    def test_close_then_map_respawns(self, make_clients, num_channels):
        backend = ProcessPoolBackend(workers=2)
        clients = make_clients()
        backend.bind(clients)
        state = flat_model_state(make_factory(num_channels)())
        try:
            map_tasks(backend, [ClientTask(client_index=0, state=state, steps=1)])
            backend.close()
            map_tasks(backend, [ClientTask(client_index=0, state=state, steps=1)])
            assert backend.spawn_count == 2
        finally:
            backend.close()

    def test_rebind_same_roster_keeps_pool(self, make_clients, num_channels):
        backend = ProcessPoolBackend(workers=2)
        clients = make_clients()
        backend.bind(clients)
        state = flat_model_state(make_factory(num_channels)())
        try:
            map_tasks(backend, [ClientTask(client_index=0, state=state, steps=1)])
            backend.bind(clients)  # identical roster: the warm pool survives
            map_tasks(backend, [ClientTask(client_index=0, state=state, steps=1)])
            assert backend.spawn_count == 1
            backend.bind(list(reversed(clients)))  # different roster: recycle
            map_tasks(backend, [ClientTask(client_index=0, state=state, steps=1)])
            assert backend.spawn_count == 2
        finally:
            backend.close()

    def test_thread_pool_spawns_once(self, make_clients, num_channels):
        backend = ThreadPoolBackend(workers=2)
        run_named("fedavg", make_clients(), num_channels, backend=backend)
        assert backend.spawn_count == 1

    def test_thread_pool_context_manager(self, make_clients, num_channels):
        clients = make_clients()
        state = flat_model_state(make_factory(num_channels)())
        with ThreadPoolBackend(workers=2) as backend:
            backend.bind(clients)
            updates = map_tasks(
                backend, [ClientTask(client_index=i, state=state, steps=1) for i in range(2)]
            )
            assert [update.client_index for update in updates] == [0, 1]
        assert backend._executor is None


class TestFloat32Engine:
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox"])
    def test_loss_curve_tracks_float64(self, algorithm, make_clients, num_channels):
        f64 = run_named(algorithm, make_clients(), num_channels, backend=SerialBackend())
        f32 = run_named(
            algorithm, make_clients(TINY_FLOAT32), num_channels,
            config=TINY_FLOAT32, backend=SerialBackend(),
        )
        np.testing.assert_allclose(
            [r.mean_loss for r in f32.history],
            [r.mean_loss for r in f64.history],
            rtol=1e-3,
        )

    def test_states_stay_float64_at_every_boundary(self, make_clients, num_channels):
        training = run_named(
            "fedavg", make_clients(TINY_FLOAT32), num_channels,
            config=TINY_FLOAT32, backend=SerialBackend(),
        )
        state = training.global_state
        assert isinstance(state, FlatState)
        assert state.vector.dtype == np.float64
        assert all(value.dtype == np.float64 for value in state.values())

    def test_state_round_trips_through_codecs(self, make_clients, num_channels):
        training = run_named(
            "fedavg", make_clients(TINY_FLOAT32), num_channels,
            config=TINY_FLOAT32, backend=SerialBackend(),
        )
        state = training.global_state
        from repro.fl.transport import IdentityCodec

        codec = IdentityCodec()
        decoded = codec.decode(codec.encode(state))
        assert states_equal(state, decoded)
        assert all(value.dtype == np.float64 for value in decoded.values())

    def test_resume_across_dtype_switch_rejected(self, make_clients, num_channels, tmp_path):
        run_named(
            "fedavg", make_clients(TINY_FLOAT32), num_channels, config=TINY_FLOAT32,
            backend=SerialBackend(), checkpoint=CheckpointManager(tmp_path),
        )
        with pytest.raises(ValueError):
            run_named(
                "fedavg", make_clients(), num_channels, config=TINY_CONFIG,
                backend=SerialBackend(), checkpoint=CheckpointManager(tmp_path),
            )

    def test_float64_default_untouched_by_dtype_machinery(self, make_clients, num_channels):
        """A default-config run never casts: params stay float64 throughout."""
        clients = make_clients()
        run_named("fedavg", clients, num_channels, backend=SerialBackend())
        template = clients[0]._template
        for model in (template, lent_model(template)):
            assert model.compute_dtype == np.float64
            assert all(p.data.dtype == np.float64 for p in model.parameters())


class TestConfigPlumbing:
    def test_flconfig_validates_dtype(self):
        with pytest.raises(ValueError):
            FLConfig(compute_dtype="float16")

    def test_experiment_config_with_execution(self):
        from repro.experiments import smoke

        config = smoke("flnet")
        assert config.fl.compute_dtype == "float64"
        fast = config.with_execution(compute_dtype="float32", backend="thread", workers=2)
        assert fast.fl.compute_dtype == "float32"
        assert fast.execution.backend == "thread"
        reset = fast.with_execution(compute_dtype=None)
        assert reset.fl.compute_dtype == "float64"
        assert reset.execution.backend == "thread"  # untouched

    def test_experiment_config_accepts_thread_backend(self):
        from repro.experiments import ExperimentRunner, smoke

        config = smoke("flnet").with_execution(backend="thread", workers=3)
        runner = ExperimentRunner(config)
        built = runner.execution_backend()
        assert isinstance(built, ThreadPoolBackend)
        assert built.workers == 3
