"""The asyncio federation server: supervised connection actors + sessions.

Architecture (gridworks-scada style supervised actors):

* A :class:`FederationServer` owns one :class:`ClientSession` per roster
  client.  Sessions are *persistent*: they hold the per-client task
  sequence counter, the pending-result futures, and the journal cursor,
  and they survive any number of connections coming and going.
* Each accepted TCP connection runs one :class:`ConnectionActor` — a
  supervised coroutine that performs the handshake, claims the sessions
  its HELLO names, replays their journaled backlog, then services the
  connection (task sends, update receipts, heartbeats) until it dies.
  An actor failure never touches session state beyond detaching itself.
* Liveness: the actor probes with a :class:`Heartbeat` every
  ``heartbeat_interval`` seconds and declares the peer lost when nothing
  (acks, updates, anything) has arrived for ``client_timeout`` seconds.
* A detached session with pending tasks starts a *reaper* countdown; if no
  reconnect claims the session within ``client_timeout``, every pending
  future resolves to a :class:`WireFailure` whose ``kind`` ("disconnect"
  or "heartbeat") feeds the PR 9 resilience machinery as a first-class
  :class:`~repro.fl.faults.TaskFailure` — socket death is just another
  fault kind to retry from the pre-captured RNG snapshot.

State carriers: the backend hands each distinct carrier of a broadcast to
:meth:`FederationServer.submit_state` once, with the number of tasks that
start from it.  The server numbers it, journals it once, and each
connection actor sends it as one ``STATE`` frame ahead of the first task
that names it — so a model crosses a connection once per round, however
many clients the connection hosts.  A state lives as long as a task naming
it is un-acked: the last ack (or abandonment) releases it from the journal,
and the next ``Ack`` on every connection that carried it says so.

Thread model: everything here runs on one asyncio loop (the wire backend
hosts it in a daemon thread).  The only thread-safe entry points are
:meth:`FederationServer.submit_state`, :meth:`submit_task`, :meth:`abandon`,
:meth:`network_summary`, and the start/stop/wait wrappers on the backend.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import itertools
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fl.net.errors import FrameError, MessageDecodeError, SessionLost
from repro.fl.net.faults import WireFaultPlan, corrupt_frame
from repro.fl.net.framing import FrameReader, frame_parts
from repro.fl.net.journal import MessageJournal
from repro.fl.net.messages import (
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_HEARTBEAT_ACK,
    MSG_HELLO,
    MSG_TASK,
    MSG_UPDATE,
    PROTOCOL_VERSION,
    Ack,
    ErrorMessage,
    Goodbye,
    Heartbeat,
    HeartbeatAck,
    Hello,
    StateMessage,
    TaskEnvelope,
    UpdateEnvelope,
    Welcome,
    canonical_fingerprint,
    decode_message,
    encode_message,
)

logger = logging.getLogger(__name__)

#: Socket read chunk size.
_READ_CHUNK = 1 << 16

#: Counter keys of :meth:`FederationServer.network_summary`, in report order.
NETWORK_COUNTER_KEYS = (
    "dispatched",
    "completed",
    "states_sent",
    "reconnects",
    "replays",
    "disconnects",
    "heartbeat_losses",
    "decode_failures",
    "stale_updates",
    "injected_disconnects",
    "injected_delays",
    "injected_corruptions",
)


@dataclass
class WireFailure:
    """A network-level task failure, resolved into the pending future.

    A *value*, not an exception, so the backend's ``imap_outcomes`` can
    convert it to a :class:`~repro.fl.faults.TaskFailure` of the same
    ``kind`` without ever letting a socket event kill the iterator.  Kinds:
    ``disconnect``, ``heartbeat``, ``decode``, ``timeout``, ``exception``,
    and ``crash`` (a local joiner that kept dying on the task).
    """

    kind: str
    error: str
    traceback: Optional[str] = None


class ClientSession:
    """Persistent per-client server state (outlives any one connection)."""

    def __init__(self, client_id: int):
        self.client_id = int(client_id)
        #: Last task sequence number assigned (monotonic per client).
        self.seq = 0
        #: seq -> concurrent future the backend is waiting on.
        self.pending: Dict[int, concurrent.futures.Future] = {}
        #: seq -> id of the state the pending task starts from.
        self.state_ids: Dict[int, int] = {}
        #: The connection actor currently serving this client, if any.
        self.actor: Optional["ConnectionActor"] = None
        #: Whether any connection ever claimed this session (reconnect
        #: accounting: the second claim onward counts as a reconnect).
        self.ever_connected = False
        #: How the last connection was lost ("disconnect" / "heartbeat");
        #: the reaper stamps this kind onto the failures it produces.
        self.loss_kind = "disconnect"
        #: Reaper countdown handle (armed while detached with work pending).
        self.reaper: Optional[asyncio.TimerHandle] = None

    @property
    def connected(self) -> bool:
        return self.actor is not None


class FederationServer:
    """Accepts joiners and brokers task dispatch for the wire backend."""

    def __init__(
        self,
        client_ids: Sequence[int],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 2.0,
        client_timeout: float = 10.0,
        journal_dir=None,
        fault_plan: Optional[WireFaultPlan] = None,
        fingerprint: Optional[Dict[str, object]] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be positive, got {heartbeat_interval}")
        if client_timeout <= heartbeat_interval:
            raise ValueError(
                f"client_timeout ({client_timeout}) must exceed heartbeat_interval "
                f"({heartbeat_interval}); liveness needs at least one missed probe"
            )
        self.host = host
        self.port = int(port)
        self.heartbeat_interval = float(heartbeat_interval)
        self.client_timeout = float(client_timeout)
        self.journal_dir = journal_dir
        self.fault_plan = fault_plan
        self.fingerprint = canonical_fingerprint(fingerprint)
        self.sessions: Dict[int, ClientSession] = {
            int(client_id): ClientSession(client_id) for client_id in client_ids
        }
        self.counters: Dict[str, int] = {key: 0 for key in NETWORK_COUNTER_KEYS}
        self.bytes_sent = 0
        self.bytes_received = 0
        self.journal: Optional[MessageJournal] = None
        self._tmp_journal = None
        #: state id -> number of un-acked tasks that start from it.
        self.state_refs: Dict[int, int] = {}
        self._state_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._claim_event: Optional[asyncio.Event] = None
        self._closing = False
        #: Every live connection's actor and the task running it.
        self._connections: Dict["ConnectionActor", asyncio.Task] = {}

    # -- lifecycle (loop-side) ----------------------------------------------------
    async def start(self) -> int:
        """Bind, start accepting, and return the bound port."""
        self._loop = asyncio.get_event_loop()
        self._claim_event = asyncio.Event()
        if self.journal is None:
            journal_dir = self.journal_dir
            if journal_dir is None:
                import tempfile

                self._tmp_journal = tempfile.TemporaryDirectory(prefix="repro-wire-journal-")
                journal_dir = self._tmp_journal.name
            self.journal = MessageJournal(journal_dir)
            self._state_ids = itertools.count(self.journal.high_state_id + 1)
        self._server = await asyncio.start_server(self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("federation server listening on %s:%d", self.host, self.port)
        return self.port

    async def stop(self) -> None:
        """Orderly shutdown: GOODBYE to every live peer, close, await every connection's task."""
        self._closing = True
        for session in self.sessions.values():
            if session.reaper is not None:
                session.reaper.cancel()
                session.reaper = None
        actors = {session.actor for session in self.sessions.values() if session.actor}
        for actor in actors:
            await actor.say_goodbye("run complete")
        for actor in set(self._connections) - actors:
            actor.kill()  # still in its handshake, or already rejected
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            await asyncio.wait(list(self._connections.values()), timeout=self.client_timeout)
        if self.journal is not None:
            self.journal.close()
        if self._tmp_journal is not None:
            self._tmp_journal.cleanup()
            self._tmp_journal = None

    async def wait_for_clients(self, timeout: Optional[float] = None) -> bool:
        """Wait until every roster session has a live connection."""
        loop = asyncio.get_event_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            # Clear before checking so a claim landing between the check
            # and the wait still wakes the next iteration.
            self._claim_event.clear()
            if all(session.connected for session in self.sessions.values()):
                return True
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._claim_event.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return False

    # -- thread-safe entry points (called from the backend thread) ----------------
    def submit_state(self, blob: bytes, references: int) -> int:
        """Register one encoded carrier that ``references`` tasks will start from.

        Returns its ``state_id`` (monotonically increasing) for
        :meth:`submit_task`; the state is released when that many tasks
        naming it have been acked, abandoned or reaped.
        """
        state_id = next(self._state_ids)
        self._loop.call_soon_threadsafe(self._register_state, state_id, bytes(blob), int(references))
        return state_id

    def submit_task(
        self,
        client_id: int,
        op: str,
        state_id: int,
        is_wire: bool,
        steps: Optional[int],
        proximal_mu: Optional[float],
        rng_state: Optional[dict],
    ) -> concurrent.futures.Future:
        """Dispatch one task starting from a submitted state; the future
        resolves to an :class:`UpdateEnvelope` or a :class:`WireFailure`."""
        future: concurrent.futures.Future = concurrent.futures.Future()
        fields = (int(client_id), op, int(state_id), bool(is_wire), steps, proximal_mu, rng_state)
        self._loop.call_soon_threadsafe(self._schedule_dispatch, fields, future)
        return future

    def abandon(self, future: concurrent.futures.Future, kind: str, error: str) -> None:
        """Give up on a submitted task (backend-side timeout).

        The pending entry is removed and journal-acked so a later reconnect
        will not replay a task nobody is waiting for; a late update for it
        is acknowledged and discarded (``stale_updates``).
        """
        self._loop.call_soon_threadsafe(self._abandon, future, kind, error)

    def network_summary(self) -> Dict[str, int]:
        """Monotonic network accounting (safe to read from any thread)."""
        summary = dict(self.counters)
        summary["bytes_sent"] = self.bytes_sent
        summary["bytes_received"] = self.bytes_received
        if self.journal is not None:
            summary["journal_truncated_bytes"] = self.journal.truncated_bytes
        return summary

    # -- dispatch (loop-side) ------------------------------------------------------
    def _schedule_dispatch(self, fields: tuple, future: concurrent.futures.Future) -> None:
        self._loop.create_task(self._dispatch(fields, future))

    def _register_state(self, state_id: int, blob: bytes, references: int) -> None:
        self.journal.record_state(state_id, blob)
        self.state_refs[state_id] = references

    def _settle(self, session: ClientSession, seq: int) -> None:
        """A task left the pending set (acked, abandoned or reaped): journal
        the ack and release its state if it was the last task naming it."""
        self.journal.record_ack(session.client_id, seq)
        state_id = session.state_ids.pop(seq, None)
        if state_id is not None:
            self._drop_state_reference(state_id)

    def _drop_state_reference(self, state_id: int) -> None:
        self.state_refs[state_id] -= 1
        if not self.state_refs[state_id]:
            del self.state_refs[state_id]
            self.journal.release_state(state_id)

    async def _dispatch(self, fields: tuple, future: concurrent.futures.Future) -> None:
        client_id, op, state_id, is_wire, steps, proximal_mu, rng_state = fields
        session = self.sessions.get(client_id)
        if session is None:
            self._drop_state_reference(state_id)
            future.set_result(WireFailure(kind="disconnect", error=f"unknown client id {client_id}"))
            return
        session.seq += 1
        seq = session.seq
        envelope = TaskEnvelope(
            client_id=client_id,
            seq=seq,
            op=op,
            blob=b"",
            is_wire=is_wire,
            steps=steps,
            proximal_mu=proximal_mu,
            rng_state=rng_state,
            state_id=state_id,
        )
        _, body = encode_message(envelope)
        # Journal before any socket touch: once recorded, the task survives
        # every disconnect via replay.
        self.journal.record_task(client_id, seq, body)
        future._wire_ref = (client_id, seq)  # for abandon()
        session.pending[seq] = future
        session.state_ids[seq] = state_id
        self.counters["dispatched"] += 1
        if session.actor is not None:
            await session.actor.send_task(client_id, body, state_id)
        else:
            self._arm_reaper(session)

    def _abandon(self, future: concurrent.futures.Future, kind: str, error: str) -> None:
        ref = getattr(future, "_wire_ref", None)
        if ref is None:
            return
        client_id, seq = ref
        session = self.sessions.get(client_id)
        if session is not None and session.pending.get(seq) is future:
            session.pending.pop(seq, None)
            self._settle(session, seq)
        if not future.done():
            future.set_result(WireFailure(kind=kind, error=error))

    # -- session claims / detach / reaping ----------------------------------------
    def claim(self, actor: "ConnectionActor", client_id: int, cursor: int) -> List[Tuple[int, bytes]]:
        """Attach ``actor`` to a session; returns the replay set after ``cursor``."""
        session = self.sessions[client_id]
        if session.actor is not None and session.actor is not actor:
            # Takeover: a rejoining client beat the liveness deadline (the
            # SIGKILL case - the old socket is dead but not yet detected).
            old = session.actor
            logger.info("client %d reconnected; superseding its previous connection", client_id)
            old.release(client_id)
            old.kill()
        if session.reaper is not None:
            session.reaper.cancel()
            session.reaper = None
        if session.ever_connected:
            self.counters["reconnects"] += 1
        session.ever_connected = True
        session.actor = actor
        session.loss_kind = "disconnect"
        replay = self.journal.pending_after(client_id, cursor)
        self.counters["replays"] += len(replay)
        self._claim_event.set()
        return replay

    def detach(self, actor: "ConnectionActor", client_id: int, loss_kind: str) -> None:
        """Detach a dying actor from one of its sessions."""
        session = self.sessions.get(client_id)
        if session is None or session.actor is not actor:
            return
        session.actor = None
        session.loss_kind = loss_kind
        if loss_kind == "heartbeat":
            self.counters["heartbeat_losses"] += 1
        if session.pending:
            # Only a disconnect that strands in-flight work is a fault the
            # resilience layer might see; end-of-run goodbyes don't count.
            self.counters["disconnects"] += 1
            if not self._closing:
                self._arm_reaper(session)
            else:
                self._reap(session)

    def _arm_reaper(self, session: ClientSession) -> None:
        if session.reaper is not None or not session.pending:
            return
        session.reaper = self._loop.call_later(self.client_timeout, self._reap, session)

    def _reap(self, session: ClientSession) -> None:
        """Liveness deadline passed with no reconnect: fail pending tasks."""
        session.reaper = None
        if session.connected:
            return
        kind = session.loss_kind
        pending, session.pending = session.pending, {}
        for seq, future in sorted(pending.items()):
            self._settle(session, seq)
            if not future.done():
                future.set_result(
                    WireFailure(
                        kind=kind,
                        error=(
                            f"client {session.client_id} lost ({kind}) and did not "
                            f"reconnect within {self.client_timeout:g}s; task seq {seq} abandoned"
                        ),
                    )
                )

    # -- update receipt ------------------------------------------------------------
    async def handle_update(self, actor: "ConnectionActor", update: UpdateEnvelope) -> None:
        session = self.sessions.get(int(update.client_id))
        if session is None:
            return
        future = session.pending.pop(update.seq, None)
        self._settle(session, update.seq)
        if future is None:
            # A replayed task whose original result already arrived (or was
            # abandoned): acknowledge so the client drops its cache, fold
            # nothing.
            self.counters["stale_updates"] += 1
        else:
            self.counters["completed"] += 1
            if update.error is not None:
                future.set_result(
                    WireFailure(kind="exception", error=update.error, traceback=update.traceback)
                )
            else:
                future.set_result(update)
        # The ack goes out last.  The task already left the pending set and
        # the journal's replay set, so a peer that died right after sending
        # its update (the ack write fails) must not take the result with it:
        # nothing would ever resolve the future again.
        await actor.send_ack(update.client_id, update.seq)

    # -- connection acceptance ------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        actor = ConnectionActor(self, reader, writer)
        self._connections[actor] = asyncio.current_task()
        try:
            await actor.run()
        finally:
            del self._connections[actor]


class ConnectionActor:
    """One supervised connection: handshake, replay, heartbeats, dispatch."""

    def __init__(self, server: FederationServer, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.server = server
        self._reader = reader
        self._writer = writer
        self._frames = FrameReader()
        self._claimed: List[int] = []
        self._loop = asyncio.get_event_loop()
        self._last_inbound = self._loop.time()
        self._heartbeat_seq = 0
        self._loss_kind = "disconnect"
        self._send_lock = asyncio.Lock()
        #: Frames the peer pipelined behind its HELLO, for the read loop.
        self._early_frames: List[Tuple[int, bytes]] = []
        #: Ids of the states sent on this connection and not yet announced
        #: as released: what a task here may name without a STATE frame first.
        self._states_sent: set = set()

    # -- low-level sends -----------------------------------------------------------
    async def _send_frames(self, *frames: Tuple[bytes, ...]) -> None:
        # Each frame comes in parts (see frame_parts), written in turn.  One
        # lock hold for the lot: a STATE frame and the task behind it reach
        # the peer back to back, in that order.
        async with self._send_lock:
            for parts in frames:
                for part in parts:
                    self._writer.write(part)
            await self._writer.drain()
        self.server.bytes_sent += sum(len(part) for parts in frames for part in parts)

    async def send_message(self, message) -> None:
        await self._send_frames(frame_parts(*encode_message(message)))

    async def send_ack(self, client_id: int, seq: int) -> None:
        """ACK one update, naming every state sent here that has since been released."""
        released = sorted(self._states_sent - self.server.state_refs.keys())
        self._states_sent.difference_update(released)
        await self.send_message(Ack(client_id=client_id, seq=seq, released=tuple(released)))

    async def send_task(self, client_id: int, body: bytes, state_id: int) -> None:
        """Send one (journaled) task frame, with seeded fault injection.

        The task's state goes first, as one STATE frame, unless this
        connection already carried it.  The fault plan draws once per task
        and acts on the task frame; a STATE frame lost with the connection
        is resent by the next one, like the task.
        """
        plan = self.server.fault_plan
        frame = frame_parts(MSG_TASK, body)
        if plan is not None:
            decision = plan.draw(client_id)
            if decision.kind == "disconnect":
                self.server.counters["injected_disconnects"] += 1
                logger.info("injected disconnect while dispatching to client %d", client_id)
                self.kill()
                return
            if decision.kind == "delay":
                self.server.counters["injected_delays"] += 1
                await asyncio.sleep(plan.hold_seconds(decision))
            elif decision.kind == "corrupt":
                self.server.counters["injected_corruptions"] += 1
                frame = (corrupt_frame(b"".join(frame), decision.salt),)
        frames = [frame]
        if state_id is not None and state_id not in self._states_sent:
            blob = self.server.journal.state(state_id)
            if blob is None:
                # Settled while this send was held back (or journaled by a
                # previous server life): nobody is waiting for the task.
                return
            self._states_sent.add(state_id)
            self.server.counters["states_sent"] += 1
            frames.insert(0, frame_parts(*encode_message(StateMessage(state_id, blob))))
        try:
            await self._send_frames(*frames)
        except (ConnectionError, OSError):
            # The read loop will observe the death and detach; the journal
            # already holds the task for replay.
            pass

    async def say_goodbye(self, reason: str) -> None:
        try:
            await self.send_message(Goodbye(reason=reason))
        except (ConnectionError, OSError):  # pragma: no cover - racing a dead peer
            pass
        self.kill()

    def kill(self) -> None:
        """Close the transport; the read loop unwinds from the EOF."""
        try:
            self._writer.close()
        except Exception:  # pragma: no cover - best-effort close
            pass

    def release(self, client_id: int) -> None:
        """Drop a session claim without counting a disconnect (takeover)."""
        if client_id in self._claimed:
            self._claimed.remove(client_id)

    # -- lifecycle -----------------------------------------------------------------
    async def run(self) -> None:
        peer = self._writer.get_extra_info("peername")
        try:
            hello = await asyncio.wait_for(self._read_hello(), timeout=self.server.client_timeout)
            await self._handshake(hello)
            watchdog = self._loop.create_task(self._heartbeat_loop())
            try:
                await self._read_loop()
            finally:
                watchdog.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await watchdog
        except (SessionLost, asyncio.TimeoutError, ConnectionError, OSError) as error:
            # A heartbeat-loss verdict (stamped by the watchdog) outranks
            # the generic EOF the read loop observes right after the kill.
            if self._loss_kind != "heartbeat":
                self._loss_kind = getattr(error, "kind", "disconnect")
            logger.info("connection %s lost: %r", peer, error)
        except (FrameError, MessageDecodeError) as error:
            self.server.counters["decode_failures"] += 1
            logger.warning("connection %s sent an undecodable stream: %s", peer, error)
        finally:
            for client_id in list(self._claimed):
                self.server.detach(self, client_id, self._loss_kind)
            self._claimed.clear()
            self.kill()

    async def _read_hello(self) -> Hello:
        while True:
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                raise SessionLost("disconnect", "peer closed before HELLO")
            self.server.bytes_received += len(chunk)
            frames = self._frames.feed(chunk)
            if frames:
                frame_type, body = frames[0]
                if frame_type != MSG_HELLO:
                    raise MessageDecodeError(frame_type, reason="expected HELLO first")
                # Any pipelined frames after HELLO are handled by the read
                # loop; with one frame per feed round-trip in practice this
                # list is empty.
                self._early_frames = frames[1:]
                try:
                    return decode_message(frame_type, body)
                except MessageDecodeError as error:
                    # Not a v2 body -- a v1 peer's pickle, most likely.  It is
                    # told so and dropped; its bytes are never interpreted.
                    self.server.counters["decode_failures"] += 1
                    await self._reject_protocol(f"undecodable HELLO ({error.reason})")

    async def _reject_protocol(self, detail: str) -> None:
        await self.send_message(
            ErrorMessage(code="protocol", detail=f"server speaks v{PROTOCOL_VERSION}; {detail}")
        )
        raise SessionLost("disconnect", f"protocol mismatch: {detail}")

    async def _handshake(self, hello: Hello) -> None:
        if hello.protocol_version != PROTOCOL_VERSION:
            await self._reject_protocol(f"client spoke v{hello.protocol_version}")
        if self.server.fingerprint and hello.fingerprint:
            mismatched = sorted(
                key
                for key in set(self.server.fingerprint) | set(hello.fingerprint)
                if self.server.fingerprint.get(key) != hello.fingerprint.get(key)
            )
            if mismatched:
                await self.send_message(
                    ErrorMessage(
                        code="fingerprint",
                        detail=f"run identity mismatch on {mismatched}",
                    )
                )
                raise SessionLost("disconnect", f"fingerprint mismatch: {mismatched}")
        unknown = [cid for cid in hello.client_ids if int(cid) not in self.server.sessions]
        if unknown:
            await self.send_message(
                ErrorMessage(code="rejected", detail=f"unknown client ids {unknown}")
            )
            raise SessionLost("disconnect", f"unknown client ids {unknown}")
        replays: Dict[int, List[Tuple[int, bytes]]] = {}
        for cid in hello.client_ids:
            cid = int(cid)
            cursor = int(hello.cursors.get(cid, 0))
            replays[cid] = self.server.claim(self, cid, cursor)
            self._claimed.append(cid)
        await self.send_message(
            Welcome(
                heartbeat_interval=self.server.heartbeat_interval,
                client_timeout=self.server.client_timeout,
                replayed={cid: len(items) for cid, items in replays.items()},
            )
        )
        for cid, items in replays.items():
            for _seq, body in items:
                await self.send_task(cid, body, decode_message(MSG_TASK, body).state_id)

    async def _read_loop(self) -> None:
        for frame_type, body in self._early_frames:
            await self._handle_frame(frame_type, body)
        while True:
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                raise SessionLost("disconnect", "peer closed the connection")
            self.server.bytes_received += len(chunk)
            self._last_inbound = self._loop.time()
            for frame_type, body in self._frames.feed(chunk):
                await self._handle_frame(frame_type, body)

    async def _handle_frame(self, frame_type: int, body: bytes) -> None:
        if frame_type == MSG_UPDATE:
            update = decode_message(frame_type, body)
            await self.server.handle_update(self, update)
        elif frame_type == MSG_HEARTBEAT_ACK:
            pass  # _last_inbound already refreshed by the read loop
        elif frame_type == MSG_HEARTBEAT:
            probe = decode_message(frame_type, body)
            await self.send_message(HeartbeatAck(seq=probe.seq))
        elif frame_type == MSG_GOODBYE:
            raise SessionLost("disconnect", "peer said goodbye")
        else:
            raise MessageDecodeError(frame_type, reason="unexpected frame type mid-session")

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.server.heartbeat_interval)
            silent = self._loop.time() - self._last_inbound
            if silent > self.server.client_timeout:
                self._loss_kind = "heartbeat"
                for cid in self._claimed:
                    session = self.server.sessions.get(cid)
                    if session is not None:
                        session.loss_kind = "heartbeat"
                self.kill()
                return
            self._heartbeat_seq += 1
            try:
                await self.send_message(Heartbeat(seq=self._heartbeat_seq))
            except (ConnectionError, OSError):
                return


__all__ = [
    "ClientSession",
    "ConnectionActor",
    "FederationServer",
    "NETWORK_COUNTER_KEYS",
    "WireFailure",
]
