"""Tests for BLAS-thread-aware scheduling in the execution backends.

Covers the worker-count clamp (requested > cores must not silently
oversubscribe), the per-backend BLAS policy resolution, the post-fork
pinning in every local joiner, and the config/runner/CLI plumbing of
``--blas-threads``.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.experiments import ExperimentRunner, smoke
from repro.fl import ProcessPoolBackend, SerialBackend, ThreadPoolBackend, create_backend
from repro.fl.execution import backend as backend_module
from repro.fl.execution.backend import ClientTask, pool_size
from repro.utils.threadpools import blas_info, get_blas_threads
from test_state_door import load_fl_oracles

map_tasks = load_fl_oracles().map_tasks


def controllable() -> bool:
    return blas_info().controllable


class ProbeClient:
    """Stub client recording the BLAS thread count its training step saw.

    The count is also the returned state, so it comes back from a joiner.
    """

    rng_state = None

    def __init__(self, client_id: int = 1):
        self.client_id = client_id
        self.observed = None

    def local_train(self, state, steps=None, proximal_mu=None):
        self.observed = get_blas_threads()
        return {"threads": np.array([float(self.observed)])}, None


def joiner_blas_threads(policy) -> int:
    """The BLAS thread count a local joiner's training step sees under ``policy``."""
    backend = ProcessPoolBackend(workers=1, blas_threads=policy)
    backend.bind([ProbeClient()])
    try:
        (update,) = map_tasks(backend, [ClientTask(client_index=0, state={"threads": np.zeros(1)})])
    finally:
        backend.close()
    return int(update.state["threads"][0])


class TestWorkerClamp:
    def test_within_cores_unchanged(self, monkeypatch):
        monkeypatch.setattr(backend_module.os, "cpu_count", lambda: 8)
        assert pool_size(4) == (4, 4)
        assert pool_size(8) == (8, 8)

    def test_above_cores_clamped_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(backend_module.os, "cpu_count", lambda: 4)
        with caplog.at_level(logging.WARNING, logger="repro.fl.execution.backend"):
            assert pool_size(16) == (16, 4)
        assert any("clamping" in record.message for record in caplog.records)

    @pytest.mark.parametrize("backend_cls", [ProcessPoolBackend, ThreadPoolBackend])
    def test_backends_keep_requested_but_clamp_effective(self, monkeypatch, backend_cls):
        monkeypatch.setattr(backend_module.os, "cpu_count", lambda: 2)
        backend = backend_cls(workers=6)
        # The request stays visible; the pool size is clamped.
        assert backend.workers == 6
        assert backend.effective_workers == 2

    @pytest.mark.parametrize("cores, expected", [(3, 3), (None, 1)])
    def test_default_worker_count_is_the_core_count(self, monkeypatch, cores, expected):
        # os.cpu_count() may return None when the count is unknown.
        monkeypatch.setattr(backend_module.os, "cpu_count", lambda: cores)
        assert pool_size(None) == (expected, expected)

    @pytest.mark.parametrize("backend_cls", [ProcessPoolBackend, ThreadPoolBackend])
    def test_unrequested_workers_default_to_the_cores(self, monkeypatch, backend_cls):
        monkeypatch.setattr(backend_module.os, "cpu_count", lambda: 3)
        backend = backend_cls()
        assert backend.workers == backend.effective_workers == 3


class TestPolicyResolution:
    def test_serial_auto_leaves_blas_alone(self):
        assert SerialBackend().resolved_blas_threads() is None

    @pytest.mark.parametrize("backend_cls", [ProcessPoolBackend, ThreadPoolBackend])
    def test_pools_auto_leave_blas_alone(self, backend_cls):
        # A worker pinned below a serial run's count would sum in another order.
        assert backend_cls(workers=4).resolved_blas_threads() is None

    def test_explicit_policy_pins_exactly(self):
        backend = ThreadPoolBackend(workers=2, blas_threads=3)
        assert backend.resolved_blas_threads() == 3

    def test_none_is_not_a_policy(self):
        # "auto" is the one value that leaves BLAS alone.
        with pytest.raises(ValueError, match="expected 'auto' or a positive integer"):
            ThreadPoolBackend(workers=2, blas_threads=None)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=2, blas_threads=0)
        with pytest.raises(ValueError):
            SerialBackend(blas_threads="fast")

    def test_create_backend_plumbs_policy(self):
        assert create_backend("serial", blas_threads=2).blas_threads == 2
        assert create_backend("process", workers=2, blas_threads=1).blas_threads == 1
        assert create_backend("thread", workers=2, blas_threads="auto").blas_threads == "auto"
        # Default stays auto.
        assert create_backend("process", workers=2).blas_threads == "auto"


class TestRuntimePinning:
    def test_joiners_pin_blas_after_the_fork(self):
        if not controllable():
            pytest.skip("BLAS library exposes no runtime thread setter")
        previous = get_blas_threads()
        pinned = 1 if previous != 1 else 2
        assert joiner_blas_threads(pinned) == pinned
        assert get_blas_threads() == previous  # the coordinator's pool is untouched

    def test_joiners_auto_leave_blas(self):
        assert joiner_blas_threads("auto") == get_blas_threads()

    def test_serial_explicit_policy_pins_round_and_restores(self):
        if not controllable():
            pytest.skip("BLAS library exposes no runtime thread setter")
        previous = get_blas_threads()
        probe = ProbeClient()
        backend = SerialBackend(blas_threads=2)
        backend.bind([probe])
        map_tasks(backend, [ClientTask(client_index=0, state={})])
        assert probe.observed == 2
        assert get_blas_threads() == previous

    def test_thread_pool_auto_keeps_the_serial_thread_count(self):
        """A pool that pinned fewer BLAS threads than serial would sum differently."""
        previous = get_blas_threads()
        probes = [ProbeClient(1), ProbeClient(2)]
        backend = ThreadPoolBackend(workers=2)
        backend.bind(probes)
        try:
            map_tasks(
                backend, [ClientTask(client_index=0, state={}), ClientTask(client_index=1, state={})]
            )
        finally:
            backend.close()
        assert [probe.observed for probe in probes] == [previous, previous]

    def test_thread_pool_pins_during_map_and_restores(self):
        if not controllable():
            pytest.skip("BLAS library exposes no runtime thread setter")
        previous = get_blas_threads()
        probes = [ProbeClient(1), ProbeClient(2)]
        backend = ThreadPoolBackend(workers=2, blas_threads=1)
        backend.bind(probes)
        try:
            map_tasks(
                backend, [ClientTask(client_index=0, state={}), ClientTask(client_index=1, state={})]
            )
        finally:
            backend.close()
        assert [probe.observed for probe in probes] == [1, 1]
        assert get_blas_threads() == previous


class TestConfigPlumbing:
    def test_config_validates_policy(self):
        with pytest.raises(ValueError):
            smoke().with_execution(blas_threads=-1)
        with pytest.raises(ValueError):
            smoke().with_execution(blas_threads="turbo")

    def test_with_execution_round_trip(self):
        config = smoke()
        assert config.execution.blas_threads == "auto"
        pinned = config.with_execution(blas_threads=2)
        assert pinned.execution.blas_threads == 2
        # Omitting the option keeps the current value; "auto" resets it.
        assert pinned.with_execution(workers=2).execution.blas_threads == 2
        assert pinned.with_execution(blas_threads="auto").execution.blas_threads == "auto"
        with pytest.raises(ValueError):
            pinned.with_execution(blas_threads=None)

    def test_runner_hands_policy_to_backend(self):
        config = smoke().with_execution(backend="thread", workers=2, blas_threads=1)
        backend = ExperimentRunner(config).execution_backend()
        try:
            assert isinstance(backend, ThreadPoolBackend)
            assert backend.blas_threads == 1
        finally:
            backend.close()

    def test_cli_parses_blas_threads(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["reproduce"]).blas_threads == "auto"
        assert parser.parse_args(["reproduce", "--blas-threads", "2"]).blas_threads == 2
        assert parser.parse_args(["reproduce", "--blas-threads", "auto"]).blas_threads == "auto"
