"""Loopback integration tests for the wire federation runtime.

The anchor guarantees of the PR:

* a full wire run (server + joiner over a real TCP loopback socket,
  identity codec, no faults) is **bit-for-bit identical** to the serial
  backend — the wire is a transparent transport,
* a client that disconnects mid-round reconnects, replays its journal
  cursor, and resumes to the *same* final model (cached updates are
  resent without retraining),
* injected wire faults (disconnects, delays, frame corruption) heal to
  the fault-free model,
* network-level failures surface as first-class ``TaskFailure`` kinds
  (``disconnect``, ``heartbeat``) that the resilience machinery retries,
  and ``imap_outcomes`` never hangs even with ``timeout=None``,
* handshake rejections (fingerprint, unknown ids, protocol version) are
  typed and immediate,
* the resilience summary of a wire run carries the network counters,
* a broadcast state crosses a connection **once** per round however many
  clients the connection hosts, is resent exactly once to a connection
  that replaces a dropped one, and several distinct carriers in one
  broadcast (clustered / personalized algorithms) each cross once,
* a version-1 peer is told ``protocol`` and its pickle is never loaded,
* closing the backend awaits every connection task, so none is left
  pending for asyncio to destroy,
* a wire round holds each update once: by the time the next update
  arrives, the backend keeps no reference to an update it has yielded.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import gc
import logging
import pickle
import socket
import threading
import weakref

import numpy as np
import pytest

from repro.fl import (
    ClientTask,
    FederatedClient,
    FLConfig,
    ResilienceManager,
    SeededModelFactory,
    TaskFailure,
    create_algorithm,
    create_channel,
)
from repro.fl.net import (
    FederationServer,
    FrameError,
    FrameReader,
    HandshakeError,
    NETWORK_COUNTER_KEYS,
    WireBackend,
    WireFaultPlan,
    encode_frame,
    run_client,
)
from repro.fl.net.faults import corrupt_frame
from repro.fl.net.messages import (
    MSG_ERROR,
    MSG_HELLO,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    Hello,
    UpdateEnvelope,
    decode_message,
    encode_message,
)
from repro.fl.parameters import flat_model_state, state_digest
from repro.fl.transport.envelope import encode_carrier
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

# Short deadlines keep the loopback tests fast; loopback latency is tiny.
HEARTBEAT = 0.2
TIMEOUT = 1.5


class TinyModelBuilder:
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

    def build():
        factory = make_factory(num_channels)
        return [
            FederatedClient(1, tiny_train_dataset, tiny_test_dataset, factory, TINY_CONFIG),
            FederatedClient(2, tiny_train_dataset_itc, tiny_test_dataset_itc, factory, TINY_CONFIG),
        ]

    return build


@pytest.fixture
def make_trio(make_clients, tiny_train_dataset, tiny_test_dataset, num_channels):
    """A fresh 3-client roster: what one joiner hosts on one connection."""

    def build():
        third = FederatedClient(
            3, tiny_train_dataset, tiny_test_dataset, make_factory(num_channels), TINY_CONFIG
        )
        return [*make_clients(), third]

    return build


def states_equal(left, right) -> bool:
    return set(left) == set(right) and all(np.array_equal(left[k], right[k]) for k in left)


def serial_reference(make_clients, num_channels, name="fedprox"):
    algorithm = create_algorithm(name, make_clients(), make_factory(num_channels), TINY_CONFIG)
    return algorithm.run()


def run_over_wire(
    make_clients,
    num_channels,
    name="fedprox",
    fault_plan=None,
    drop_after=None,
    heartbeat=HEARTBEAT,
    timeout=TIMEOUT,
    reconnect_delay=0.05,
    supervised=True,
    compression=None,
):
    """One wire run: server-side algorithm + an in-thread loopback joiner.

    Returns ``(training_result, network_summary, join_report)``.
    """
    backend = WireBackend(
        port=0, heartbeat_interval=heartbeat, client_timeout=timeout, fault_plan=fault_plan
    )
    server_clients = make_clients()
    port = backend.listen([client.client_id for client in server_clients])
    joiner_clients = make_clients()
    holder = {}

    def join():
        holder["report"] = run_client(
            joiner_clients,
            "127.0.0.1",
            port,
            reconnect_delay=reconnect_delay,
            drop_after=drop_after,
        )

    thread = threading.Thread(target=join, daemon=True)
    thread.start()
    try:
        algorithm = create_algorithm(
            name,
            server_clients,
            make_factory(num_channels),
            TINY_CONFIG,
            backend=backend,
            resilience=ResilienceManager() if supervised else None,
            channel=create_channel(compression),
        )
        result = algorithm.run()
        network = backend.network_summary()
    finally:
        backend.close()
    thread.join(timeout=30)
    assert not thread.is_alive(), "joiner thread failed to wind down after GOODBYE"
    return result, network, holder["report"]


class TestLoopbackParity:
    def test_fault_free_wire_run_is_bit_identical_to_serial(self, make_clients, num_channels):
        reference = serial_reference(make_clients, num_channels)
        result, network, report = run_over_wire(make_clients, num_channels)
        assert states_equal(result.global_state, reference.global_state)
        assert state_digest(result.global_state) == state_digest(reference.global_state)
        assert network["dispatched"] == network["completed"] > 0
        assert network["disconnects"] == network["heartbeat_losses"] == 0
        assert report.tasks_run == network["dispatched"]
        assert report.acks == report.updates_sent

    def test_wire_parity_holds_for_fedavg(self, make_clients, num_channels):
        reference = serial_reference(make_clients, num_channels, name="fedavg")
        result, _, _ = run_over_wire(make_clients, num_channels, name="fedavg")
        assert states_equal(result.global_state, reference.global_state)

    def test_network_summary_has_every_counter(self, make_clients, num_channels):
        _, network, _ = run_over_wire(make_clients, num_channels)
        for key in NETWORK_COUNTER_KEYS:
            assert key in network
        assert network["bytes_sent"] > 0 and network["bytes_received"] > 0


class TestRoundMemory:
    def test_a_wire_round_holds_each_update_once(
        self,
        tiny_train_dataset,
        tiny_test_dataset,
        tiny_train_dataset_itc,
        tiny_test_dataset_itc,
        num_channels,
    ):
        data = [(tiny_train_dataset, tiny_test_dataset), (tiny_train_dataset_itc, tiny_test_dataset_itc)]

        def make_eight():
            factory = make_factory(num_channels)
            return [
                FederatedClient(index + 1, *data[index % 2], factory, TINY_CONFIG)
                for index in range(8)
            ]

        #: Per arrival: how many of its round's earlier updates are still alive.
        alive = []

        def watch(algorithm):
            map_client_updates = algorithm.map_client_updates

            def watched_map(*args, on_arrival, **kwargs):
                earlier = []

                def watched_arrival(update):
                    gc.collect()
                    alive.append(sum(ref() is not None for ref in earlier))
                    earlier.append(weakref.ref(update.state.vector))
                    on_arrival(update)

                return map_client_updates(*args, on_arrival=watched_arrival, **kwargs)

            algorithm.map_client_updates = watched_map

        reference = serial_reference(make_eight, num_channels, name="fedavg")
        backend = WireBackend(port=0, heartbeat_interval=HEARTBEAT, client_timeout=TIMEOUT)
        server_clients = make_eight()
        port = backend.listen([client.client_id for client in server_clients])
        joiner_clients = make_eight()
        thread = threading.Thread(
            target=lambda: run_client(joiner_clients, "127.0.0.1", port, reconnect_delay=0.05),
            daemon=True,
        )
        thread.start()
        try:
            algorithm = create_algorithm(
                "fedavg", server_clients, make_factory(num_channels), TINY_CONFIG, backend=backend
            )
            watch(algorithm)
            result = algorithm.run()
        finally:
            backend.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(alive) == 8 * TINY_CONFIG.rounds
        # The round loop folds and drops each update as it arrives; a drain
        # that kept its futures would show 0, 1, ..., 7 here.
        assert max(alive) <= 1, alive
        assert states_equal(result.global_state, reference.global_state)


class TestReconnectResume:
    def test_mid_round_disconnect_heals_bit_identically(self, make_clients, num_channels):
        reference = serial_reference(make_clients, num_channels)
        result, network, report = run_over_wire(make_clients, num_channels, drop_after=2)
        assert states_equal(result.global_state, reference.global_state)
        assert report.drops_simulated == 1
        assert report.reconnects >= 1
        assert network["reconnects"] >= 1
        assert network["replays"] >= 1

    def test_resilience_summary_carries_network_counters(self, make_clients, num_channels):
        algorithm_clients = make_clients()
        backend = WireBackend(port=0, heartbeat_interval=HEARTBEAT, client_timeout=TIMEOUT)
        port = backend.listen([client.client_id for client in algorithm_clients])
        joiner_clients = make_clients()
        thread = threading.Thread(
            target=lambda: run_client(joiner_clients, "127.0.0.1", port, reconnect_delay=0.05),
            daemon=True,
        )
        thread.start()
        manager = ResilienceManager()
        try:
            algorithm = create_algorithm(
                "fedprox",
                algorithm_clients,
                make_factory(num_channels),
                TINY_CONFIG,
                backend=backend,
                resilience=manager,
            )
            algorithm.run()
            summary = algorithm.ledger.resilience_summary(backend)
        finally:
            backend.close()
        thread.join(timeout=30)
        assert summary.network is not None
        assert summary.network["completed"] == summary.network["dispatched"]
        assert "network" in summary.to_dict()


class TestInjectedWireFaults:
    def test_chaos_run_heals_to_the_fault_free_model(self, make_clients, num_channels):
        reference = serial_reference(make_clients, num_channels)
        plan = WireFaultPlan(
            disconnect_rate=0.25, corrupt_rate=0.2, delay_rate=0.1, delay_seconds=0.01, seed=3
        )
        result, network, _ = run_over_wire(make_clients, num_channels, fault_plan=plan)
        assert states_equal(result.global_state, reference.global_state)
        injected = (
            network["injected_disconnects"]
            + network["injected_delays"]
            + network["injected_corruptions"]
        )
        assert injected >= 1

    def test_fault_plan_is_deterministic_for_a_seed(self):
        draws = []
        for _ in range(2):
            plan = WireFaultPlan(disconnect_rate=0.3, corrupt_rate=0.3, seed=11)
            draws.append([plan.draw(1).kind for _ in range(20)] + [plan.draw(2).kind for _ in range(20)])
        assert draws[0] == draws[1]
        assert any(kind is not None for kind in draws[0])

    def test_zero_rate_plan_never_fires(self):
        plan = WireFaultPlan(seed=0)
        assert not plan.any_faults
        assert all(plan.draw(1).kind is None for _ in range(50))

    def test_corrupt_frame_breaks_crc_detectably(self):
        frame = encode_frame(0x10, b"payload under test")
        for salt in range(8):
            mangled = corrupt_frame(frame, salt)
            assert mangled != frame
            assert len(mangled) == len(frame)
            reader = FrameReader()
            with pytest.raises(FrameError):
                reader.feed(mangled)
                reader.finish()


class TestStateCrossesOnce:
    def test_three_clients_on_one_connection_share_one_state_frame(self, make_trio, num_channels):
        reference = serial_reference(make_trio, num_channels)
        result, network, report = run_over_wire(make_trio, num_channels)
        assert states_equal(result.global_state, reference.global_state)
        rounds = TINY_CONFIG.rounds
        assert network["dispatched"] == 3 * rounds
        # One STATE frame per round on the one connection, not one per client...
        assert network["states_sent"] == rounds
        # ...so a round's downlink is one state plus task metadata and acks.
        state_bytes = len(encode_carrier(reference.global_state))
        assert network["bytes_sent"] / rounds < 2 * state_bytes
        assert network["bytes_received"] / rounds > 3 * state_bytes
        assert report.tasks_run == 3 * rounds

    def test_drop_between_state_and_last_task_resends_the_state_exactly_once(
        self, make_trio, num_channels
    ):
        reference = serial_reference(make_trio, num_channels)
        # The joiner hangs up on receiving round 0's second task: the STATE
        # frame and task 1 made it, tasks 2 and 3 must be replayed -- to a
        # new connection, which has to be sent the state again.
        result, network, report = run_over_wire(make_trio, num_channels, drop_after=2)
        assert state_digest(result.global_state) == state_digest(reference.global_state)
        assert report.drops_simulated == 1
        assert network["reconnects"] >= 1 and network["replays"] >= 2
        assert network["states_sent"] == TINY_CONFIG.rounds + 1

    @pytest.mark.parametrize("name", ["assigned_clustering", "ifca", "fedprox_finetune", "fedprox_alpha"])
    def test_several_carriers_in_one_broadcast_equal_serial(
        self, make_clients, make_trio, num_channels, name
    ):
        roster = make_trio if name == "fedprox_alpha" else make_clients
        reference = serial_reference(roster, num_channels, name=name)
        result, network, _ = run_over_wire(roster, num_channels, name=name)
        if reference.global_state is None:
            assert result.global_state is None
        else:
            assert states_equal(result.global_state, reference.global_state)
        assert result.client_states.keys() == reference.client_states.keys()
        for client_id, state in reference.client_states.items():
            assert states_equal(result.client_states[client_id], state)
        if name == "assigned_clustering":
            # Two clusters, one client each: two distinct carriers per round.
            assert network["states_sent"] == 2 * TINY_CONFIG.rounds
        if name == "fedprox_alpha":
            # One customized mix per client: three distinct carriers per round.
            assert network["states_sent"] == 3 * TINY_CONFIG.rounds

    @pytest.mark.parametrize("compression", ["none", "quantize", "topk"])
    def test_wire_envelopes_cross_the_socket_bit_exactly(self, make_trio, num_channels, compression):
        # With a channel the carrier is a WireTask (payload + codecs), rebuilt
        # on the joiner through the codec registry; uploads come back encoded.
        reference = create_algorithm(
            "fedavg", make_trio(), make_factory(num_channels), TINY_CONFIG,
            channel=create_channel(compression),
        ).run()
        result, network, _ = run_over_wire(make_trio, num_channels, name="fedavg", compression=compression)
        assert states_equal(result.global_state, reference.global_state)
        assert network["states_sent"] == TINY_CONFIG.rounds

    def test_states_are_released_when_their_last_task_is_acked(self, make_trio, num_channels):
        backend = WireBackend(port=0, heartbeat_interval=HEARTBEAT, client_timeout=TIMEOUT)
        server_clients = make_trio()
        port = backend.listen([client.client_id for client in server_clients])
        joiner_clients = make_trio()
        thread = threading.Thread(
            target=lambda: run_client(joiner_clients, "127.0.0.1", port, reconnect_delay=0.05),
            daemon=True,
        )
        thread.start()
        try:
            create_algorithm(
                "fedavg", server_clients, make_factory(num_channels), TINY_CONFIG, backend=backend
            ).run()
            # No knob, no cache: nothing outlives the round that used it.
            assert backend.server.state_refs == {}
            assert backend.server.journal._states == {}
            assert all(not session.state_ids for session in backend.server.sessions.values())
        finally:
            backend.close()
        thread.join(timeout=30)


class TestShutdown:
    def test_close_leaves_no_connection_task_pending(self, make_trio, num_channels, caplog):
        """Stop awaits the connection actors it says goodbye to: each one's
        connection task and its cancelled heartbeat watchdog are done before
        the loop closes, so collecting the loop destroys nothing pending."""
        gc.collect()  # earlier runs' loops are not this test's business
        backend = WireBackend(port=0, heartbeat_interval=HEARTBEAT, client_timeout=TIMEOUT)
        server_clients = make_trio()
        port = backend.listen([client.client_id for client in server_clients])
        joiner_clients = make_trio()
        thread = threading.Thread(
            target=lambda: run_client(joiner_clients, "127.0.0.1", port, reconnect_delay=0.05),
            daemon=True,
        )
        thread.start()
        loop = backend._loop

        async def stop_then_look():
            await backend.server.stop()
            return {task for task in asyncio.all_tasks() if task is not asyncio.current_task()}

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            try:
                create_algorithm(
                    "fedavg", server_clients, make_factory(num_channels), TINY_CONFIG, backend=backend
                ).run()
                pending = asyncio.run_coroutine_threadsafe(stop_then_look(), loop).result(timeout=10)
            finally:
                backend.close()
            thread.join(timeout=30)
            del loop
            gc.collect()
        assert pending == set()
        destroyed = [
            record.getMessage()
            for record in caplog.records
            if "Task was destroyed but it is pending" in record.getMessage()
        ]
        assert destroyed == []


class TestNetworkFailuresAsTaskFailures:
    def test_unconnected_client_reaps_to_disconnect_failure(self, make_clients, num_channels):
        """No joiner ever connects: the dispatch must fail, not hang."""
        clients = make_clients()
        backend = WireBackend(port=0, heartbeat_interval=0.1, client_timeout=0.4)
        backend.bind(clients)
        backend.listen([client.client_id for client in clients])
        try:
            state = flat_model_state(make_factory(num_channels)())
            outcomes = list(
                backend.imap_outcomes([ClientTask(client_index=0, state=state)], timeout=None)
            )
        finally:
            backend.close()
        assert len(outcomes) == 1
        failure = outcomes[0]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "disconnect"
        assert failure.client_id == clients[0].client_id

    def test_silent_connection_is_reaped_as_heartbeat_loss(self, make_clients, num_channels):
        """A peer that handshakes then goes silent trips the liveness deadline."""
        clients = make_clients()
        backend = WireBackend(port=0, heartbeat_interval=0.1, client_timeout=0.4)
        backend.bind(clients)
        port = backend.listen([client.client_id for client in clients])
        raw = socket.create_connection(("127.0.0.1", port))
        try:
            frame_type, body = encode_message(Hello(client_ids=(1, 2)))
            raw.sendall(encode_frame(frame_type, body))
            reader = FrameReader()
            welcome = None
            while welcome is None:
                frames = reader.feed(raw.recv(1 << 16))
                for received_type, received_body in frames:
                    if received_type == MSG_WELCOME:
                        welcome = decode_message(received_type, received_body)
            assert welcome.heartbeat_interval == backend.heartbeat_interval
            # Never answer anything again; dispatch and await the reaper.
            state = flat_model_state(make_factory(num_channels)())
            outcomes = list(
                backend.imap_outcomes([ClientTask(client_index=0, state=state)], timeout=None)
            )
            network = backend.network_summary()
        finally:
            raw.close()
            backend.close()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].kind == "heartbeat"
        assert network["heartbeat_losses"] >= 1

    def test_per_task_timeout_yields_timeout_failure(self, make_clients, num_channels):
        clients = make_clients()
        backend = WireBackend(port=0, heartbeat_interval=1.0, client_timeout=30.0)
        backend.bind(clients)
        backend.listen([client.client_id for client in clients])
        try:
            state = flat_model_state(make_factory(num_channels)())
            outcomes = list(
                backend.imap_outcomes([ClientTask(client_index=0, state=state)], timeout=0.2)
            )
        finally:
            backend.close()
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].kind == "timeout"

    def test_one_task_per_client_is_enforced(self, make_clients, num_channels):
        clients = make_clients()
        backend = WireBackend(port=0, heartbeat_interval=0.1, client_timeout=0.4)
        backend.bind(clients)
        state = flat_model_state(make_factory(num_channels)())
        tasks = [ClientTask(client_index=0, state=state), ClientTask(client_index=0, state=state)]
        with pytest.raises(ValueError):
            list(backend.imap_outcomes(tasks))
        backend.close()

    def test_update_whose_ack_cannot_be_sent_still_resolves_its_task(self, tmp_path):
        """A joiner SIGKILLed right after sending an update: the ack write
        fails, and the update must still reach the round, or it waits forever
        (the task has already left the pending set and the journal)."""

        class DeadPeer:
            async def send_ack(self, client_id, seq):
                raise ConnectionResetError("Connection lost")

        async def scenario():
            server = FederationServer(
                [1], heartbeat_interval=0.1, client_timeout=0.4, journal_dir=tmp_path
            )
            await server.start()
            try:
                future = concurrent.futures.Future()
                server._register_state(1, b"carrier", 1)
                await server._dispatch((1, "train", 1, False, 1, 0.0, None), future)
                update = UpdateEnvelope(client_id=1, seq=1, stats={"loss": 0.5})
                with pytest.raises(ConnectionResetError):
                    await server.handle_update(DeadPeer(), update)
                return future, dict(server.counters), dict(server.state_refs)
            finally:
                await server.stop()

        future, counters, state_refs = asyncio.run(scenario())
        assert future.done() and future.result(timeout=0) == UpdateEnvelope(
            client_id=1, seq=1, stats={"loss": 0.5}
        )
        assert counters["completed"] == 1
        assert state_refs == {}


class TestHandshake:
    def _server(self, make_clients, fingerprint=None):
        clients = make_clients()
        backend = WireBackend(
            port=0, heartbeat_interval=HEARTBEAT, client_timeout=TIMEOUT, fingerprint=fingerprint
        )
        port = backend.listen([client.client_id for client in clients])
        return backend, clients, port

    def test_fingerprint_mismatch_is_rejected(self, make_clients):
        backend, _, port = self._server(make_clients, fingerprint={"seed": 0, "model": "flnet"})
        try:
            with pytest.raises(HandshakeError) as excinfo:
                run_client(
                    make_clients(),
                    "127.0.0.1",
                    port,
                    fingerprint={"seed": 1, "model": "flnet"},
                    reconnect_delay=0.05,
                )
            assert excinfo.value.code == "fingerprint"
            assert "seed" in excinfo.value.detail
        finally:
            backend.close()

    def test_matching_fingerprint_is_accepted(self, make_clients, num_channels):
        fingerprint = {"seed": 0, "model": "flnet"}
        backend, clients, port = self._server(make_clients, fingerprint=fingerprint)
        thread = threading.Thread(
            target=lambda: run_client(
                make_clients(), "127.0.0.1", port, fingerprint=fingerprint, reconnect_delay=0.05
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert backend.wait_for_clients(timeout=10.0)
        finally:
            backend.close()
        thread.join(timeout=10)

    def test_unknown_client_ids_are_rejected(self, make_clients, num_channels):
        backend, _, port = self._server(make_clients)

        class Impostor:
            client_id = 99

            def __init__(self, real):
                self._real = real
                self.rng_state = real.rng_state

        try:
            with pytest.raises(HandshakeError) as excinfo:
                run_client([Impostor(make_clients()[0])], "127.0.0.1", port, reconnect_delay=0.05)
            assert excinfo.value.code == "rejected"
        finally:
            backend.close()

    def test_protocol_version_mismatch_is_rejected(self, make_clients):
        backend, _, port = self._server(make_clients)
        raw = socket.create_connection(("127.0.0.1", port))
        try:
            frame_type, body = encode_message(Hello(client_ids=(1,), protocol_version=99))
            raw.sendall(encode_frame(frame_type, body))
            reader = FrameReader()
            response = None
            while response is None:
                chunk = raw.recv(1 << 16)
                if not chunk:
                    break
                for received_type, received_body in reader.feed(chunk):
                    response = (received_type, received_body)
                    break
            assert response is not None
            assert response[0] == MSG_ERROR
            error = decode_message(*response)
            assert error.code == "protocol"
        finally:
            raw.close()
            backend.close()

    def test_fingerprint_with_tuples_matches_after_the_json_crossing(self, make_clients):
        # runner.wire_fingerprint holds tuples; JSON delivers lists.  Both
        # sides must canonicalise alike or every real join is rejected.
        fingerprint = {"model_kwargs": (("hidden_filters", 8),), "clients": (1, 2), "seed": 0}
        backend, _, port = self._server(make_clients, fingerprint=fingerprint)
        thread = threading.Thread(
            target=lambda: run_client(
                make_clients(), "127.0.0.1", port, fingerprint=dict(fingerprint), reconnect_delay=0.05
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert backend.wait_for_clients(timeout=10.0)
        finally:
            backend.close()
        thread.join(timeout=10)

    def test_v1_pickled_hello_is_rejected_without_being_unpickled(self, make_clients):
        assert PROTOCOL_VERSION == 2
        import builtins

        tripped = builtins._repro_v1_hello_trap = []

        class BoobyTrap:
            # What a hostile v1 HELLO is: code that runs when unpickled.
            def __reduce__(self):
                return (exec, ("import builtins; builtins._repro_v1_hello_trap.append('unpickled')",))

        backend, _, port = self._server(make_clients)
        raw = socket.create_connection(("127.0.0.1", port))
        try:
            body = pickle.dumps(BoobyTrap(), protocol=pickle.HIGHEST_PROTOCOL)
            pickle.loads(body)  # the trap is live...
            assert tripped == ["unpickled"]
            tripped.clear()
            raw.sendall(encode_frame(MSG_HELLO, body))
            reader = FrameReader()
            response = None
            while response is None:
                chunk = raw.recv(1 << 16)
                if not chunk:
                    break
                for frame in reader.feed(chunk):
                    response = frame
                    break
            assert response is not None and response[0] == MSG_ERROR
            error = decode_message(*response)
            assert error.code == "protocol"
            assert raw.recv(1 << 16) == b""  # ...and the server hung up
            assert tripped == []  # ...without ever loading it
        finally:
            del builtins._repro_v1_hello_trap
            raw.close()
            backend.close()

    def test_joiner_needs_at_least_one_client(self):
        with pytest.raises(ValueError):
            run_client([], "127.0.0.1", 1)


class TestStateDigest:
    def test_digest_is_order_invariant_and_value_sensitive(self, rng):
        a = {"w1": rng.normal(size=(3, 3)), "b1": rng.normal(size=(3,))}
        reordered = {"b1": a["b1"].copy(), "w1": a["w1"].copy()}
        assert state_digest(a) == state_digest(reordered)
        tweaked = {"w1": a["w1"].copy(), "b1": a["b1"].copy()}
        tweaked["w1"][0, 0] += 1e-12
        assert state_digest(a) != state_digest(tweaked)

    def test_digest_distinguishes_shapes(self):
        flat = {"w": np.zeros(4)}
        square = {"w": np.zeros((2, 2))}
        assert state_digest(flat) != state_digest(square)

    def test_digest_is_hex_sha256(self):
        digest = state_digest({"w": np.ones(2)})
        assert len(digest) == 64
        int(digest, 16)  # must be valid hex
