"""The one tiny roster every ``tests/fl`` module trains on.

Client ``k`` (1-based) trains on the iscas89 partition when ``k`` is odd and
on the itc99 one when it is even, so two clients are heterogeneous and a
third repeats the first's data with a stream of its own.  Every roster is
built fresh (fresh RNG streams): two runs on the same client objects give
different numbers.  Test modules import the plain values with
``from conftest import TINY_CONFIG, make_factory, run_named``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.data.clients import ClientData, ClientSpec
from repro.fl import (
    ClientDirectory,
    FederatedClient,
    FLConfig,
    SchedulingOptions,
    SeededModelFactory,
    create_algorithm,
    create_scheduler,
)
from repro.fl.net import run_client
from repro.fl.parameters import state_digest
from repro.models import FLNet

#: The algorithms whose cross-round state is one global model.
GLOBAL_MODEL_ALGORITHMS = ["fedavg", "fedprox", "fedavgm", "dp_fedprox", "fedprox_finetune"]
#: The personalised rows, on the same loop: what the server keeps is theirs.
PERSONALISED = ["fedbn", "fedprox_lg", "ifca", "assigned_clustering", "fedprox_alpha"]
ROUND_ALGORITHMS = GLOBAL_MODEL_ALGORITHMS + PERSONALISED

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
    """A module-level builder, so a factory pickles (a directory ships it)."""

    def __init__(self, channels: int):
        self.channels = channels

    def __call__(self, seed: int) -> FLNet:
        return FLNet(self.channels, hidden_filters=8, kernel_size=5, seed=seed)


def make_factory(num_channels: int) -> SeededModelFactory:
    return SeededModelFactory(TinyModelBuilder(num_channels), base_seed=0)


def build_named(name, clients, num_channels, config=TINY_CONFIG, **options):
    """``create_algorithm`` on the tiny model; ``options`` go to it as they are."""
    return create_algorithm(name, clients, make_factory(num_channels), config, **options)


def run_named(name, clients, num_channels, config=TINY_CONFIG, **options):
    """Build and run one algorithm, then close its backend; returns the result."""
    algorithm = build_named(name, clients, num_channels, config, **options)
    try:
        return algorithm.run()
    finally:
        algorithm.backend.close()


def scheduled(**options):
    """A scheduler of ``SchedulingOptions(**options)``, seeded 0."""
    return create_scheduler(SchedulingOptions(**options), seed=0)


@contextmanager
def wire_joiner(backend, server_clients, joiner_clients, **join_options):
    """Serve ``server_clients`` on ``backend`` to an in-thread loopback joiner of ``joiner_clients``.

    Yields a dict that holds the joiner's report once it has said goodbye;
    ``join_options`` go to ``run_client``.  On leaving, the backend closes,
    and the joiner must have wound down with a report: one that raised (lost
    its session, gave up reconnecting) fails the caller.
    """
    port = backend.listen([client.client_id for client in server_clients])
    holder = {}

    def join():
        holder["report"] = run_client(joiner_clients, "127.0.0.1", port, **join_options)

    thread = threading.Thread(target=join, daemon=True)
    thread.start()
    try:
        yield holder
    finally:
        backend.close()
        thread.join(timeout=30)
    assert not thread.is_alive(), "the joiner did not wind down after GOODBYE"
    assert "report" in holder, "the joiner raised instead of saying goodbye"


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


def states_equal(left, right) -> bool:
    """Bit-exact equality of two states."""
    return set(left) == set(right) and all(np.array_equal(left[k], right[k]) for k in left)


def digests(result):
    """The global digest (``None`` when there is none) and every client's digest."""
    global_state = result.global_state
    return None if global_state is None else state_digest(global_state), {
        client_id: state_digest(state) for client_id, state in result.client_states.items()
    }


@pytest.fixture
def client_data(tiny_train_dataset, tiny_test_dataset, tiny_train_dataset_itc, tiny_test_dataset_itc):
    """The two base partitions: what a roster and a population cycle through."""
    return [
        ClientData(ClientSpec(1, "iscas89", 2, 2, 6, 4), tiny_train_dataset, tiny_test_dataset),
        ClientData(ClientSpec(2, "itc99", 2, 1, 6, 2), tiny_train_dataset_itc, tiny_test_dataset_itc),
    ]


@pytest.fixture
def make_clients(client_data, num_channels):
    """``make_clients(config, count=2, client_class=FederatedClient)``: a fresh roster."""

    def build(config: FLConfig = TINY_CONFIG, count: int = 2, client_class=FederatedClient):
        factory = make_factory(num_channels)
        return [
            client_class(k, client_data[(k - 1) % 2].train, client_data[(k - 1) % 2].test, factory, config)
            for k in range(1, count + 1)
        ]

    return build


@pytest.fixture
def make_directory(client_data, num_channels):
    """``make_directory(population, config=TINY_CONFIG)``: a fresh ``ClientDirectory`` cycling the partitions."""
    return lambda population, config=TINY_CONFIG: ClientDirectory(
        client_data, make_factory(num_channels), config, population=population
    )


@pytest.fixture
def make_trio(make_clients):
    """A fresh 3-client roster: the parity matrix's, and what one joiner hosts."""
    return lambda config=TINY_CONFIG, client_class=FederatedClient: make_clients(config, 3, client_class)
