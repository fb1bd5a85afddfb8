"""The federation joiner: a client-side runtime with reconnect-and-resume.

A joiner process owns one or more :class:`~repro.fl.FederatedClient`
objects (rebuilt deterministically from the same preset / seed / corpus
cache the server used) and services the server's task stream:

* **handshake** — HELLO carries the client ids, protocol version, the run
  fingerprint, and a per-client *cursor* (highest server-acknowledged task
  seq); the server replays everything journaled after it.
* **states** — a :class:`StateMessage` delivers one encoded state carrier
  per connection per broadcast; the joiner holds it until an ``Ack`` names
  it as released, fills it into every :class:`TaskEnvelope` that refers to
  it, and decodes it once for all the clients it hosts.
* **execution** — each :class:`TaskEnvelope` is one client task: set the
  client's RNG state from the envelope, run
  :func:`~repro.fl.execution.run_client_task`, capture the RNG state,
  release a virtual client, and ship an :class:`UpdateEnvelope` back.
  Decoding and training run in a thread-pool executor so the asyncio loop
  keeps answering heartbeats mid-step.  Sending runs behind the compute:
  a finished update goes to the connection's sender, which encodes, frames
  and drains the updates one at a time in task order while the next task
  trains.  A send is bound to the connection it was handed to; if that
  connection dies first, the update is never written to the next one.
* **resume without re-training** — computed-but-unacknowledged updates
  stay in an in-memory cache keyed ``(client id, seq)``; when a replayed
  task arrives for a cached seq the cached update is resent as-is
  (``cache_hits`` counts these).  That is the only way an update cut off
  by a disconnect comes back.  A task that *does* re-run is harmless
  for bit-parity either way: the envelope carries the RNG snapshot, so a
  re-run reproduces the identical update.
* **reconnect loop** — connection refused, socket death, frame errors,
  and liveness silence all funnel into one retry loop with a fixed delay;
  only a typed server rejection (protocol / fingerprint / unknown ids) is
  permanent.

It serves ``repro join`` and the local joiners of ``--backend process``.

Test/chaos knobs: ``drop_after=N`` closes the transport once, upon
receiving the N-th task (a seeded "network blip" the CI wire-smoke job
uses); ``kill_after=N`` SIGKILLs the *process* after sending the N-th
update (the SIGKILL chaos test — no cleanup, no goodbye, exactly like a
real client host dying).
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import os
import signal
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fl.execution.backend import ClientTask, run_client_task
from repro.fl.net.errors import FrameError, HandshakeError, MessageDecodeError, SessionLost
from repro.fl.net.framing import FrameReader, frame_parts
from repro.fl.net.messages import (
    MSG_ACK,
    MSG_ERROR,
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_HEARTBEAT_ACK,
    MSG_STATE,
    MSG_TASK,
    MSG_WELCOME,
    HeartbeatAck,
    Hello,
    TaskEnvelope,
    UpdateEnvelope,
    decode_message,
    encode_message,
)
from repro.fl.transport.envelope import decode_carrier

logger = logging.getLogger(__name__)

_READ_CHUNK = 1 << 16


@dataclass
class JoinReport:
    """What one joiner run did (printed by ``repro join``)."""

    tasks_run: int = 0
    updates_sent: int = 0
    cache_hits: int = 0
    reconnects: int = 0
    replays_received: int = 0
    acks: int = 0
    heartbeats_answered: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    drops_simulated: int = 0
    cursors: Dict[int, int] = field(default_factory=dict)


class HeldState:
    """One received state carrier: its bytes, and its decoded form on demand.

    Every task that names the state shares this object, so the carrier is
    decoded once however many hosted clients start from it — and lives
    exactly as long as the joiner's state table or a queued task refers to it.
    """

    def __init__(self, blob: bytes):
        self.blob = blob
        self._carrier = None

    def carrier(self):
        if self._carrier is None:
            self._carrier = decode_carrier(self.blob)
        return self._carrier


async def _cancel(task: asyncio.Task) -> None:
    """Cancel ``task`` and wait it out; an error it had died of is raised here."""
    task.cancel()
    await asyncio.wait([task])
    if not task.cancelled():
        task.result()


class FederationClientRunner:
    """Drives one joiner process until the server says goodbye."""

    def __init__(
        self,
        clients,
        host: str,
        port: int,
        *,
        fingerprint: Optional[Dict[str, object]] = None,
        reconnect_delay: float = 0.5,
        max_reconnects: int = 60,
        drop_after: Optional[int] = None,
        kill_after: Optional[int] = None,
    ):
        if not clients:
            raise ValueError("a joiner needs at least one federated client")
        self._by_id = {int(client.client_id): client for client in clients}
        if len(self._by_id) != len(clients):
            raise ValueError("duplicate client ids in the joiner roster")
        self.host = host
        self.port = int(port)
        self.fingerprint = dict(fingerprint) if fingerprint else {}
        self.reconnect_delay = float(reconnect_delay)
        self.max_reconnects = int(max_reconnects)
        self.drop_after = drop_after
        self.kill_after = kill_after
        self.report = JoinReport(cursors={cid: 0 for cid in self._by_id})
        #: (client id, seq) -> computed UpdateEnvelope awaiting an ACK.
        self._cache: Dict[Tuple[int, int], UpdateEnvelope] = {}
        #: state id -> the carrier the server sent under it on this connection.
        self._states: Dict[int, HeldState] = {}
        #: Frames that arrived in the same read as WELCOME, for the read loop.
        self._pending_frames: List[Tuple[int, bytes]] = []
        self._tasks_seen = 0
        self._dropped_once = False
        self._done = False
        self._queue: Optional[asyncio.Queue] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: The live connection's last update send; each send awaits the one
        #: handed over before it, so this is the tail of an ordered chain.
        self._sending: Optional[asyncio.Task] = None
        self._heartbeat_interval = 2.0
        self._client_timeout = 10.0

    # -- entry point ---------------------------------------------------------------
    async def run(self) -> JoinReport:
        """Serve the federation until GOODBYE; returns the join report."""
        self._queue = asyncio.Queue()
        worker = asyncio.get_event_loop().create_task(self._worker_loop())
        attempts = 0
        try:
            while not self._done:
                try:
                    await self._serve_once()
                    attempts = 0
                except HandshakeError:
                    raise
                except (
                    SessionLost,
                    FrameError,
                    MessageDecodeError,
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                ) as error:
                    if self._done:
                        break
                    attempts += 1
                    if attempts > self.max_reconnects:
                        raise SessionLost(
                            "disconnect",
                            f"gave up after {attempts - 1} reconnect attempts: {error!r}",
                        )
                    self.report.reconnects += 1
                    logger.info(
                        "connection lost (%r); reconnecting in %.1fs (attempt %d/%d)",
                        error,
                        self.reconnect_delay,
                        attempts,
                        self.max_reconnects,
                    )
                    await asyncio.sleep(self.reconnect_delay)
        finally:
            await _cancel(worker)
            self._close_writer()
        return self.report

    # -- one connection ------------------------------------------------------------
    async def _serve_once(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        frames = FrameReader()
        try:
            await self._send(
                Hello(
                    client_ids=tuple(sorted(self._by_id)),
                    cursors=dict(self.report.cursors),
                    fingerprint=dict(self.fingerprint),
                )
            )
            # The server resends every state this connection's tasks name.
            self._states.clear()
            welcome = await self._expect_welcome(reader, frames)
            self._heartbeat_interval = float(welcome.heartbeat_interval)
            self._client_timeout = float(welcome.client_timeout)
            self.report.replays_received += sum(welcome.replayed.values())
            await self._read_loop(reader, frames)
        finally:
            # Writer first: from here on no update is handed to this
            # connection, and what it still holds is cancelled, not moved.
            self._close_writer()
            await self._stop_sending()

    async def _expect_welcome(self, reader, frames: FrameReader):
        deadline = self._client_timeout
        while True:
            chunk = await asyncio.wait_for(reader.read(_READ_CHUNK), timeout=deadline)
            if not chunk:
                raise SessionLost("disconnect", "server closed during handshake")
            self.report.bytes_received += len(chunk)
            decoded = frames.feed(chunk)
            if not decoded:
                continue
            frame_type, body = decoded[0]
            if frame_type == MSG_ERROR:
                error = decode_message(frame_type, body)
                raise HandshakeError(error.code, error.detail)
            if frame_type != MSG_WELCOME:
                raise MessageDecodeError(frame_type, reason="expected WELCOME (or ERROR) after HELLO")
            self._pending_frames = decoded[1:]
            return decode_message(frame_type, body)

    async def _read_loop(self, reader, frames: FrameReader) -> None:
        # Liveness from the client's side: the server probes every
        # heartbeat_interval, so a silence longer than the liveness deadline
        # means the server (or the path to it) is gone.
        timeout = self._client_timeout + self._heartbeat_interval
        pending, self._pending_frames = self._pending_frames, []
        for frame_type, body in pending:
            await self._handle_frame(frame_type, body)
        while not self._done:
            chunk = await asyncio.wait_for(reader.read(_READ_CHUNK), timeout=timeout)
            if not chunk:
                raise SessionLost("disconnect", "server closed the connection")
            self.report.bytes_received += len(chunk)
            for frame_type, body in frames.feed(chunk):
                await self._handle_frame(frame_type, body)

    async def _handle_frame(self, frame_type: int, body: bytes) -> None:
        if frame_type == MSG_TASK:
            envelope = decode_message(frame_type, body)
            self._tasks_seen += 1
            if (
                self.drop_after is not None
                and not self._dropped_once
                and self._tasks_seen >= int(self.drop_after)
            ):
                # Seeded network blip: close the transport once, *before*
                # executing this task.  The server journals every task, so
                # the reconnect replays it and the run heals bit-identically.
                self._dropped_once = True
                self.report.drops_simulated += 1
                logger.info("simulating a network drop after task %d", self._tasks_seen)
                raise SessionLost("disconnect", "simulated drop (--drop-after)")
            key = (int(envelope.client_id), int(envelope.seq))
            if key in self._cache:
                # Replayed task whose update we already computed: resume
                # without re-training.
                self.report.cache_hits += 1
                self._post_update(self._cache[key])
                return
            held = None
            if envelope.state_id is not None:
                held = self._states.get(envelope.state_id)
                if held is None:
                    raise MessageDecodeError(
                        frame_type, reason=f"task names state {envelope.state_id}, which was never sent"
                    )
                envelope = dataclasses.replace(envelope, blob=held.blob)
            await self._queue.put((envelope, held))
        elif frame_type == MSG_STATE:
            message = decode_message(frame_type, body)
            self._states[message.state_id] = HeldState(message.blob)
        elif frame_type == MSG_ACK:
            ack = decode_message(frame_type, body)
            cid, seq = int(ack.client_id), int(ack.seq)
            self.report.acks += 1
            self.report.cursors[cid] = max(self.report.cursors.get(cid, 0), seq)
            self._cache.pop((cid, seq), None)
            for state_id in ack.released:
                self._states.pop(state_id, None)
        elif frame_type == MSG_HEARTBEAT:
            probe = decode_message(frame_type, body)
            self.report.heartbeats_answered += 1
            await self._send(HeartbeatAck(seq=probe.seq))
        elif frame_type == MSG_HEARTBEAT_ACK:
            pass
        elif frame_type == MSG_GOODBYE:
            self._done = True
        elif frame_type == MSG_ERROR:
            error = decode_message(frame_type, body)
            raise HandshakeError(error.code, error.detail)
        else:
            raise MessageDecodeError(frame_type, reason="unexpected frame type mid-session")

    # -- task execution ------------------------------------------------------------
    async def _worker_loop(self) -> None:
        """Sequentially executes queued tasks off the event loop's thread.

        A finished update is handed to the connection's sender and the next
        task starts at once: update k is encoded, framed and drained while
        task k + 1 trains.
        """
        loop = asyncio.get_event_loop()
        while True:
            envelope, held = await self._queue.get()
            update = await loop.run_in_executor(None, self._execute, envelope, held)
            self._cache[(int(envelope.client_id), int(envelope.seq))] = update
            self.report.tasks_run += 1
            self._post_update(update)

    def _execute(self, envelope: TaskEnvelope, held: Optional[HeldState] = None) -> UpdateEnvelope:
        """Run one task and release its client, whether it trained or failed.

        ``envelope`` is self-contained (``blob`` filled in); ``held`` is the
        shared state it was filled from, whose one decoded carrier is used
        instead of decoding ``blob`` again.
        """
        client = None
        try:
            client = self._by_id[int(envelope.client_id)]
            carrier = held.carrier() if held is not None else decode_carrier(envelope.blob)
            if envelope.rng_state is not None:
                client.rng_state = envelope.rng_state
            task = ClientTask(
                client_index=0,
                op=envelope.op,
                steps=envelope.steps,
                proximal_mu=envelope.proximal_mu,
                **{"wire" if envelope.is_wire else "state": carrier},
            )
            new_state, upload_payload, stats = run_client_task(client, task)
            rng_state = client.rng_state
        except Exception as error:
            # Ship the failure back as data: a client-side exception must
            # reach the supervisor as a typed TaskFailure, not as a dead
            # connection.
            return UpdateEnvelope(
                client_id=int(envelope.client_id),
                seq=int(envelope.seq),
                error=repr(error),
                traceback=traceback_module.format_exc(),
            )
        finally:
            # A virtual client handle drops its materialised client (its RNG state is in
            # the update already): a joiner's memory is bounded by its task, not its roster.
            release = getattr(client, "release", None)
            if release is not None:
                release()
        return UpdateEnvelope(
            client_id=int(envelope.client_id),
            seq=int(envelope.seq),
            state=new_state,
            payload=upload_payload,
            stats=stats,
            rng_state=rng_state,
        )

    # -- sending -------------------------------------------------------------------
    def _post_update(self, update: UpdateEnvelope) -> None:
        """Hand ``update`` to the live connection's sender; returns at once.

        The sender sends one update at a time, in the order they were handed
        over, so at most one encoded update is in flight.  With no live
        connection the update just stays cached for the replay.
        """
        writer = self._writer
        if writer is None:
            return
        self._sending = asyncio.get_running_loop().create_task(
            self._send_update(update, writer, self._sending)
        )

    async def _send_update(
        self, update: UpdateEnvelope, writer: asyncio.StreamWriter, previous: Optional[asyncio.Task]
    ) -> None:
        if previous is not None:
            await previous
        try:
            await self._send(update, writer)
        except (ConnectionError, OSError):
            # The connection died under us.  The update stays cached and is
            # resent only when the next connection replays its task.
            return
        self.report.updates_sent += 1
        if self.kill_after is not None and self.report.updates_sent >= int(self.kill_after):
            # Chaos knob: die like a real host -- no goodbye, no cleanup.
            logger.info("SIGKILLing self after %d updates (--kill-after)", self.report.updates_sent)
            os.kill(os.getpid(), signal.SIGKILL)

    async def _stop_sending(self) -> None:
        """Cancel the closed connection's unsent updates (they stay cached)."""
        sending, self._sending = self._sending, None
        if sending is not None:
            # Cancelling the tail cancels the send it awaits, and so on down.
            await _cancel(sending)

    async def _send(self, message, writer: Optional[asyncio.StreamWriter] = None) -> None:
        """Frame ``message`` onto ``writer`` (default: the live connection)."""
        writer = self._writer if writer is None else writer
        if writer is None or writer.is_closing():
            raise ConnectionResetError("no live connection")
        parts = frame_parts(*encode_message(message))
        for part in parts:
            writer.write(part)
        await writer.drain()
        self.report.bytes_sent += sum(map(len, parts))

    def _close_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass


def run_client(
    clients,
    host: str,
    port: int,
    *,
    fingerprint: Optional[Dict[str, object]] = None,
    reconnect_delay: float = 0.5,
    max_reconnects: int = 60,
    drop_after: Optional[int] = None,
    kill_after: Optional[int] = None,
) -> JoinReport:
    """Synchronous wrapper: join the federation and serve until goodbye."""
    runner = FederationClientRunner(
        clients,
        host,
        port,
        fingerprint=fingerprint,
        reconnect_delay=reconnect_delay,
        max_reconnects=max_reconnects,
        drop_after=drop_after,
        kill_after=kill_after,
    )
    return asyncio.run(runner.run())


__all__ = ["FederationClientRunner", "JoinReport", "run_client"]
