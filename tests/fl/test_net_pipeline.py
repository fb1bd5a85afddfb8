"""The joiner trains while it sends: each update's send runs behind the next task.

* **overlap** — with update sends held, the next task starts executing
  before the held update's send returns;
* **order** — one connection hosting eight clients delivers its updates
  in the order it ran their tasks, and the served run equals serial;
* **a cut send stays cut** — an update whose connection dies mid-send is
  never written to the next connection: the replayed task is answered
  from the cache, the server sees no stale update, and the run equals
  serial;
* **clean goodbye** — a GOODBYE that arrives with a send in flight leaves
  no pending joiner task and no "Task was destroyed" warning;
* **one worker thread** — every task of a run trains on the same thread,
  which has ended by the time the run returns.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import threading
import types
from collections import Counter

import pytest

from repro.fl import ResilienceManager, create_algorithm
from repro.fl.net import FrameReader, WireBackend
from repro.fl.net.client import FederationClientRunner
from repro.fl.net.framing import frame_parts
from repro.fl.net.messages import (
    MSG_HELLO,
    Goodbye,
    TaskEnvelope,
    UpdateEnvelope,
    Welcome,
    encode_message,
)
from repro.fl.parameters import state_digest
from conftest import TINY_CONFIG, make_factory, wire_joiner

#: How long a held send waits for the next task before giving up (so a
#: joiner that does not overlap fails the test instead of hanging it).
HOLD_S = 3.0


@pytest.fixture
def make_roster(make_clients, num_channels):
    """``make_roster(n)``: a fresh n-client roster (fresh RNG streams) and its algorithm's factory."""
    return lambda count: (make_clients(TINY_CONFIG, count), make_factory(num_channels))


def serial_digest(make_roster, count: int) -> str:
    clients, factory = make_roster(count)
    return state_digest(create_algorithm("fedavg", clients, factory, TINY_CONFIG).run().global_state)


def serve_and_join(make_roster, count: int, patch):
    """One FedAvg run over loopback with a joiner whose runner ``patch`` edits.

    ``patch(runner, loop)`` runs on the joiner's event loop before it
    connects; a joiner that raises fails the test (``conftest.wire_joiner``).
    Returns ``(final digest, network summary, join report)``.
    """
    backend = WireBackend(port=0, heartbeat_interval=0.2, client_timeout=1.5)
    server_clients, factory = make_roster(count)
    with wire_joiner(backend, server_clients, make_roster(count)[0], patch=patch, reconnect_delay=0.05) as joined:
        algorithm = create_algorithm(
            "fedavg", server_clients, factory, TINY_CONFIG, backend=backend, resilience=ResilienceManager()
        )
        digest = state_digest(algorithm.run().global_state)
        network = backend.network_summary()
    return digest, network, joined["report"]


def update_key(message):
    return (message.client_id, message.seq) if isinstance(message, UpdateEnvelope) else None


class TestPipeline:
    def test_next_task_runs_while_the_previous_update_is_sent(self, make_roster):
        events = []

        def patch(runner, loop):
            send, execute = runner._send, runner._execute
            release = asyncio.Event()

            async def held_send(message, *rest):
                key = update_key(message)
                if key is not None and not any(event[0] == "sent" for event in events):
                    events.append(("send", key))
                    try:
                        await asyncio.wait_for(release.wait(), timeout=HOLD_S)
                    except asyncio.TimeoutError:
                        pass
                    events.append(("sent", key))
                await send(message, *rest)

            def recorded_execute(envelope, held=None):
                events.append(("execute", (envelope.client_id, envelope.seq)))
                if sum(event[0] == "execute" for event in events) == 2:
                    loop.call_soon_threadsafe(release.set)
                return execute(envelope, held)

            runner._send, runner._execute = held_send, recorded_execute

        digest, _, _ = serve_and_join(make_roster, 2, patch)
        kinds = [kind for kind, _ in events]
        second_execute = [index for index, kind in enumerate(kinds) if kind == "execute"][1]
        assert second_execute < kinds.index("sent"), events
        assert digest == serial_digest(make_roster, 2)

    def test_one_connection_sends_updates_in_task_order(self, make_roster):
        executed, delivered = [], []

        def patch(runner, loop):
            send, execute = runner._send, runner._execute

            async def recorded_send(message, *rest):
                key = update_key(message)
                if key is not None and key[0] % 2:
                    # A slow send, as a 2.9 MB drain is: a later update that
                    # does not wait its turn would overtake this one.
                    await asyncio.sleep(0.02)
                await send(message, *rest)
                if key is not None:
                    delivered.append(key)

            def recorded_execute(envelope, held=None):
                executed.append((envelope.client_id, envelope.seq))
                return execute(envelope, held)

            runner._send, runner._execute = recorded_send, recorded_execute

        digest, network, report = serve_and_join(make_roster, 8, patch)
        assert len(executed) == 8 * TINY_CONFIG.rounds
        assert delivered == executed
        assert report.cache_hits == 0 and network["stale_updates"] == 0
        assert digest == serial_digest(make_roster, 8)

    def test_a_send_cut_by_a_disconnect_never_reaches_the_next_connection(self, make_roster):
        delivered = Counter()
        cut = []

        def patch(runner, loop):
            send = runner._send

            async def cutting_send(message, *rest):
                key = update_key(message)
                writer = rest[0] if rest else runner._writer
                if key is not None and not cut:
                    # The connection dies with this update half sent.
                    cut.append((key, writer))
                    writer.transport.abort()
                await send(message, *rest)
                if key is not None:
                    delivered[key, writer is cut[0][1]] += 1

            runner._send = cutting_send

        digest, network, report = serve_and_join(make_roster, 1, patch)
        (key, _), = cut
        assert report.reconnects == 1
        assert report.cache_hits == 1
        assert network["stale_updates"] == 0
        # Delivered once, on the next connection, as the replay's cache hit.
        assert delivered[key, False] == 1
        assert not any(on_cut for _, on_cut in delivered)
        assert sum(delivered.values()) == TINY_CONFIG.rounds
        assert digest == serial_digest(make_roster, 1)

    def test_every_task_trains_on_one_thread(self, make_roster):
        # A model and a scratch pool are lent per thread: a second thread
        # would make the joiner hold two of each.
        threads = []

        def patch(runner, loop):
            execute = runner._execute

            def recorded_execute(envelope, held=None):
                threads.append(threading.current_thread())
                return execute(envelope, held)

            runner._execute = recorded_execute

        digest, _, report = serve_and_join(make_roster, 32, patch)
        assert report.tasks_run == len(threads) == 32 * TINY_CONFIG.rounds
        distinct = set(threads)
        assert len(distinct) == 1, sorted(thread.name for thread in distinct)
        (thread,) = distinct
        assert thread is not threading.main_thread() and not thread.is_alive()
        assert digest == serial_digest(make_roster, 32)

    def test_goodbye_with_a_send_in_flight_leaves_no_task_behind(self, caplog):
        async def scenario():
            sending, finished = asyncio.Event(), asyncio.Event()

            async def fake_server(reader, writer):
                frames = FrameReader()
                hello = []
                while not hello:
                    hello = frames.feed(await reader.read(1 << 16))
                assert hello[0][0] == MSG_HELLO
                for message in (
                    Welcome(heartbeat_interval=5.0, client_timeout=30.0),
                    TaskEnvelope(client_id=1, seq=1, op="train", blob=b"", is_wire=False),
                ):
                    for part in frame_parts(*encode_message(message)):
                        writer.write(part)
                await sending.wait()
                for part in frame_parts(*encode_message(Goodbye(reason="done"))):
                    writer.write(part)
                await writer.drain()
                while await reader.read(1 << 16):
                    pass
                writer.close()
                finished.set()

            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            runner = FederationClientRunner(
                [types.SimpleNamespace(client_id=1)], "127.0.0.1", port, max_reconnects=0
            )
            send = runner._send

            async def stuck_send(message, *rest):
                if update_key(message) is not None:
                    sending.set()
                    await asyncio.Event().wait()  # never returns: the send is in flight
                await send(message, *rest)

            runner._send = stuck_send
            runner._execute = lambda envelope, held=None: UpdateEnvelope(
                client_id=envelope.client_id, seq=envelope.seq, error="stub"
            )
            report = await asyncio.wait_for(runner.run(), timeout=30)
            left = [
                task
                for task in asyncio.all_tasks()
                if not task.done() and "FederationClientRunner" in task.get_coro().__qualname__
            ]
            await asyncio.wait_for(finished.wait(), timeout=5)
            server.close()
            await server.wait_closed()
            return report, left

        # A loop closed with a joiner task still pending would log "Task was
        # destroyed" once the collector frees it.  (Earlier tests' server
        # loops can log the same for server tasks; those are not counted.)
        loop = asyncio.new_event_loop()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            try:
                report, left = loop.run_until_complete(scenario())
            finally:
                loop.close()
            del loop
            gc.collect()
        destroyed = [
            record.getMessage()
            for record in caplog.records
            if "Task was destroyed" in record.getMessage() and "FederationClientRunner" in record.getMessage()
        ]
        assert left == [] and destroyed == []
        assert report.tasks_run == 1 and report.updates_sent == 0
