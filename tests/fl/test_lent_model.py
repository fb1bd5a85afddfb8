"""A client computes on a lent model (see "Lent models" in ``repro.fl.client``).

Two things are pinned here:

* **Values** — any interleaving of the four uses over clients that share a
  factory, in either compute dtype, with BatchNorm buffers and train/eval
  switches, returns the bits a client with a model of its own for life
  returns (``ResidentModelClient`` in ``oracles.py``).
* **Ownership** — a roster holds one pristine template per compute dtype,
  each thread that computes holds one lent copy of it, and the factory is
  called once per client, also when four threads build and train at once.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.fl import (
    FederatedClient,
    FLConfig,
    SeededModelFactory,
    SerialBackend,
    ThreadPoolBackend,
    create_algorithm,
)
from repro.fl.client import _LENT
from repro.fl.parameters import flat_model_state, state_digest
from repro.models import FLNet, RouteNet
from test_state_door import load_fl_oracles

ResidentModelClient = load_fl_oracles().ResidentModelClient

CHANNELS = 3
GRID = 8
OPS = ("local_train", "fine_tune", "training_loss", "evaluate_auc")


class FLNetBuilder:
    def __call__(self, seed: int) -> FLNet:
        return FLNet(CHANNELS, hidden_filters=4, kernel_size=3, seed=seed)


class RouteNetBuilder:
    """RouteNet with BatchNorm: running statistics are state, and eval mode reads them."""

    def __init__(self, base_filters: int = 32):
        self.base_filters = base_filters

    def __call__(self, seed: int) -> RouteNet:
        return RouteNet(CHANNELS, base_filters=self.base_filters, seed=seed)


class CountingFactory(SeededModelFactory):
    def __init__(self, builder):
        super().__init__(builder, base_seed=0)
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        return super().__call__()


def dataset(seed: int, samples: int) -> RoutabilityDataset:
    draw = np.random.default_rng(seed)
    return RoutabilityDataset(
        [
            PlacementSample(
                draw.normal(size=(CHANNELS, GRID, GRID)),
                (draw.random((GRID, GRID)) < 0.3).astype(np.float64),
                f"d{seed}",
                "synthetic",
                index,
            )
            for index in range(samples)
        ],
        name=f"lent_{seed}",
    )


def config(dtype: str = "float64", local_steps: int = 2) -> FLConfig:
    return FLConfig(
        rounds=1,
        local_steps=local_steps,
        finetune_steps=2,
        learning_rate=3e-3,
        batch_size=2,
        ifca_eval_batches=1,
        proximal_mu=1e-3,
        compute_dtype=dtype,
    )


def make_roster(factory, dtypes, cls=FederatedClient, local_steps: int = 2):
    """One client per entry of ``dtypes``, all on ``factory``."""
    return [
        cls(client_id, dataset(client_id, 4), dataset(100 + client_id, 2), factory, config(dtype, local_steps))
        for client_id, dtype in enumerate(dtypes, start=1)
    ]


class TestLentEqualsResident:
    @pytest.mark.parametrize("builder", [FLNetBuilder(), RouteNetBuilder(4)], ids=["flnet", "routenet"])
    @given(
        dtypes=st.lists(st.sampled_from(["float64", "float32"]), min_size=3, max_size=3),
        ops=st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 2), st.integers(0, 63)),
            min_size=1,
            max_size=8,
        ),
    )
    @example(
        dtypes=["float64", "float32", "float64"],
        ops=[("local_train", 1, 0), ("evaluate_auc", 0, 3), ("local_train", 0, 3), ("fine_tune", 2, 4)],
    )
    @settings(max_examples=25, deadline=None)
    def test_any_interleaving_is_bit_identical(self, builder, dtypes, ops):
        lent = make_roster(SeededModelFactory(builder, base_seed=0), dtypes)
        resident = make_roster(SeededModelFactory(builder, base_seed=0), dtypes, cls=ResidentModelClient)
        states = [flat_model_state(builder(client.client_id)) for client in lent]
        for op, index, pick in ops:
            state = states[pick % len(states)]
            got = getattr(lent[index], op)(state)
            want = getattr(resident[index], op)(state)
            if op in ("local_train", "fine_tune"):
                (got, got_stats), (want, want_stats) = got, want
                assert state_digest(got) == state_digest(want), (op, index)
                assert got_stats == want_stats, (op, index)
                states.append(got)
            else:
                assert got == want, (op, index)
        assert [client.rng_state for client in lent] == [client.rng_state for client in resident]


# -- ownership ----------------------------------------------------------------------


def routenet8_roster(factory):
    return make_roster(factory, ["float64"] * 16, local_steps=1)


def train_once(clients, backend, then=lambda backend: None):
    """One FedAvg round on ``backend``: its result, and ``then(backend)`` run before it closes."""
    algorithm = create_algorithm(
        "fedavg", clients, SeededModelFactory(RouteNetBuilder(), base_seed=0), config(local_steps=1), backend=backend
    )
    try:
        return algorithm.run(), then(backend)
    finally:
        backend.close()


def lent_here() -> dict:
    """The calling thread's lent models, by template."""
    return dict(_LENT.models)


class TestOwnership:
    def test_sixteen_serial_clients_leave_one_lent_model(self):
        factory = CountingFactory(RouteNetBuilder())
        clients = routenet8_roster(factory)
        (template,) = {client._template for client in clients}
        pristine = state_digest(flat_model_state(template))
        with ThreadPoolExecutor(max_workers=1) as fresh_thread:
            run = fresh_thread.submit(train_once, clients, SerialBackend(), lambda backend: lent_here())
            _, lent = run.result(timeout=120)
        assert list(lent) == [template]
        assert lent[template] is not template
        assert state_digest(flat_model_state(template)) == pristine
        assert factory.calls == len(clients)

    def test_two_worker_threads_lend_two_models_and_match_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # the backend clamps to cores
        serial_factory = CountingFactory(RouteNetBuilder())
        serial, _ = train_once(routenet8_roster(serial_factory), SerialBackend())

        factory = CountingFactory(RouteNetBuilder())
        clients = routenet8_roster(factory)
        (template,) = {client._template for client in clients}
        together = threading.Barrier(2, timeout=30)
        for client in clients:
            # Tasks run in pairs, so both worker threads compute.
            def local_train(*args, _train=client.local_train, **kwargs):
                together.wait()
                return _train(*args, **kwargs)

            client.local_train = local_train

        def look():
            together.wait()
            return threading.get_ident(), lent_here()

        def look_at_both_workers(backend):
            futures = [backend._executor.submit(look) for _ in range(2)]
            return dict(future.result(timeout=30) for future in futures)

        threaded, lent = train_once(clients, ThreadPoolBackend(workers=2), look_at_both_workers)
        assert len(lent) == 2 and threading.get_ident() not in lent
        first, second = lent.values()
        assert list(first) == list(second) == [template]
        assert first[template] is not second[template]
        assert state_digest(threaded.global_state) == state_digest(serial.global_state)
        assert factory.calls == serial_factory.calls == len(clients)

    def test_one_template_per_factory_and_dtype(self):
        factory = CountingFactory(FLNetBuilder())
        clients = make_roster(factory, ["float64", "float32", "float64", "float32"])
        templates = [client._template for client in clients]
        assert templates[0] is templates[2] and templates[1] is templates[3]
        assert templates[0] is not templates[1]
        assert [template.compute_dtype for template in templates[:2]] == [np.float64, np.float32]
        assert factory.calls == len(clients)

    def test_a_dropped_roster_frees_its_template_and_lent_model(self):
        def train_and_forget():
            (client,) = make_roster(SeededModelFactory(FLNetBuilder(), base_seed=0), ["float64"])
            client.local_train(flat_model_state(FLNetBuilder()(client.client_id)))
            return weakref.ref(client._template), weakref.ref(lent_here()[client._template])

        template, lent = train_and_forget()
        gc.collect()
        assert template() is None and lent() is None

    def test_more_threads_than_cores_build_and_train_at_once(self):
        """Stress: clients built and trained concurrently on one factory share one
        template, call the factory once each, and return the serial bits."""
        workers, per_worker = 4, 3
        ids = [range(index * per_worker + 1, (index + 1) * per_worker + 1) for index in range(workers)]

        def build(factory, client_ids):
            return [
                FederatedClient(cid, dataset(cid, 4), dataset(100 + cid, 2), factory, config()) for cid in client_ids
            ]

        def train(clients):
            return [
                state_digest(client.local_train(flat_model_state(FLNetBuilder()(client.client_id)))[0])
                for client in clients
            ]

        expected = [train(build(SeededModelFactory(FLNetBuilder(), base_seed=0), client_ids)) for client_ids in ids]
        factory = CountingFactory(FLNetBuilder())
        results, templates = {}, {}
        start = threading.Barrier(workers, timeout=60)

        def work(index: int) -> None:
            start.wait()
            clients = build(factory, ids[index])
            templates[index] = {client._template for client in clients}
            results[index] = train(clients)

        threads = [threading.Thread(target=work, args=(index,)) for index in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[index] for index in range(workers)] == expected
        assert len(set().union(*templates.values())) == 1
        assert factory.calls == workers * per_worker
