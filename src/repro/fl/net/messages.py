"""The federation protocol's message vocabulary (protocol version 2).

One dataclass per message, one frame-type byte per dataclass, one
:class:`~repro.fl.transport.envelope.Schema` per dataclass: a body is a
schema'd envelope — struct header, JSON metadata, raw byte sections — and
nothing in it is executable.  The first body byte is the protocol version,
so a version-1 peer (whose bodies were pickles, first byte ``0x80``) is
recognised and rejected without its bytes ever being interpreted.  The
frame CRC is checked *before* a body is decoded, so a flipped byte is
always a :class:`~repro.fl.net.errors.FrameError`; a body that arrives
intact but breaks its schema — wrong fields, wrong types, lengths that do
not tile the body, a layout that disagrees with its buffer, an unknown
codec — is a :class:`~repro.fl.net.errors.MessageDecodeError` and never
any other exception.

Dispatch flow
-------------
========================  ====================================================
message                   direction / meaning
========================  ====================================================
``Hello``                 client -> server: identity, protocol version, config
                          fingerprint, and per-client replay cursors
``Welcome``               server -> client: session accepted; heartbeat cadence
                          and how many journaled tasks will be replayed
``StateMessage``          server -> client: one encoded state carrier under a
                          ``state_id``, sent once per connection before the
                          first task that references it
``TaskEnvelope``          server -> client: one :class:`ClientTask` — op,
                          options, RNG snapshot, and the ``state_id`` of the
                          carrier it starts from
``UpdateEnvelope``        client -> server: the task's result (state/payload,
                          stats, RNG state) or its failure
``Ack``                   server -> client: update received and recorded; the
                          client may drop its cached copy, move its cursor,
                          and free the states the ack names as ``released``
``Heartbeat``             server -> client liveness probe
``HeartbeatAck``          client -> server liveness reply
``ErrorMessage``          either direction: typed, fatal protocol complaint
``Goodbye``               either direction: orderly shutdown
========================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.fl.net.errors import MessageDecodeError
from repro.fl.trainer import StepStatistics
from repro.fl.transport.envelope import (
    BOOL,
    BYTES,
    ENVELOPE_VERSION,
    INT,
    INT_MAP,
    INT_TUPLE,
    NUMBER,
    OBJECT,
    PAYLOAD,
    STATE,
    STR,
    Schema,
    optional,
)
from repro.fl.transport.errors import TransportDecodeError

#: Protocol version: the first byte of every body, sent again in every HELLO
#: and checked by the server; bump on any incompatible change to the frame
#: layout, the envelope or the message vocabulary.
PROTOCOL_VERSION = ENVELOPE_VERSION

# Frame-type bytes (grouped by role; gaps left for future messages).
MSG_HELLO = 0x01
MSG_WELCOME = 0x02
MSG_TASK = 0x10
MSG_UPDATE = 0x11
MSG_ACK = 0x12
MSG_STATE = 0x13
MSG_HEARTBEAT = 0x20
MSG_HEARTBEAT_ACK = 0x21
MSG_ERROR = 0x7E
MSG_GOODBYE = 0x7F


@dataclass(frozen=True)
class Hello:
    """Client -> server greeting opening (or resuming) a session."""

    #: Roster client ids this connection serves (one joiner process may
    #: host several federated clients).
    client_ids: Tuple[int, ...]
    protocol_version: int = PROTOCOL_VERSION
    #: Per-client replay cursor: the highest task ``seq`` this client has
    #: seen the server *acknowledge*; journaled tasks after it are replayed.
    cursors: Dict[int, int] = field(default_factory=dict)
    #: Run-identity fingerprint (model, seed, corpus hash, dtype...); the
    #: server rejects a joiner whose fingerprint disagrees with its own, so
    #: a mis-configured client can never silently poison a run.
    fingerprint: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Welcome:
    """Server -> client: the session is open."""

    heartbeat_interval: float
    client_timeout: float
    #: Per-client count of journaled tasks about to be replayed.
    replayed: Dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class StateMessage:
    """Server -> client: one encoded state carrier, named by ``state_id``.

    ``blob`` is :func:`~repro.fl.transport.envelope.encode_carrier` of a raw
    state or a transport wire envelope.  The server encodes each distinct
    carrier of a broadcast once, journals it once, and sends it once per
    connection; every task that starts from it carries only the id.
    """

    state_id: int
    blob: bytes


@dataclass(frozen=True)
class TaskEnvelope:
    """One dispatched client task: the process-pool worker payload, framed.

    The task's state carrier is ``blob`` — on the wire it is empty and
    ``state_id`` names the :class:`StateMessage` that holds it; the joiner
    fills ``blob`` in from that message when the task arrives, so whoever
    executes an envelope sees a self-contained one.  ``rng_state`` is the
    coordinator's RNG snapshot for the client, whose hand-off is what keeps
    a wire run bit-identical to a serial one.
    """

    client_id: int
    seq: int
    op: str
    blob: bytes
    is_wire: bool
    steps: Optional[int] = None
    proximal_mu: Optional[float] = None
    rng_state: Optional[dict] = None
    state_id: Optional[int] = None


@dataclass
class UpdateEnvelope:
    """The client's reply to one :class:`TaskEnvelope`.

    Either a result (``state`` or encoded ``payload``, plus ``stats`` and
    the post-training ``rng_state``) or a failure (``error`` set, mirroring
    the process pool's ``_WorkerFailure`` value semantics: a client-side
    exception travels back as data, never as a broken connection).
    """

    client_id: int
    seq: int
    state: Optional[object] = None
    payload: Optional[object] = None
    stats: Optional[object] = None
    rng_state: Optional[dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None


@dataclass(frozen=True)
class Ack:
    """Server -> client: update ``seq`` for ``client_id`` is safely folded."""

    client_id: int
    seq: int
    #: Ids of states sent on this connection that no un-acked task refers
    #: to any more; the client frees them.
    released: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Heartbeat:
    """Liveness probe; ``seq`` lets either side match probe to reply."""

    seq: int


@dataclass(frozen=True)
class HeartbeatAck:
    """Liveness reply echoing the probe's ``seq``."""

    seq: int


@dataclass(frozen=True)
class ErrorMessage:
    """A fatal, typed protocol complaint (precedes closing the connection)."""

    code: str
    detail: str = ""


@dataclass(frozen=True)
class Goodbye:
    """Orderly end of the session (``reason`` is human-readable)."""

    reason: str = ""


_STATS = Schema(StepStatistics, steps=INT, mean_loss=NUMBER, final_loss=NUMBER).kind

#: frame-type byte -> the body's schema (the message class is its factory).
SCHEMAS: Dict[int, Schema] = {
    MSG_HELLO: Schema(
        Hello, client_ids=INT_TUPLE, protocol_version=INT, cursors=INT_MAP, fingerprint=OBJECT
    ),
    MSG_WELCOME: Schema(Welcome, heartbeat_interval=NUMBER, client_timeout=NUMBER, replayed=INT_MAP),
    MSG_STATE: Schema(StateMessage, state_id=INT, blob=BYTES),
    MSG_TASK: Schema(
        TaskEnvelope,
        client_id=INT,
        seq=INT,
        op=STR,
        blob=BYTES,
        is_wire=BOOL,
        steps=optional(INT),
        proximal_mu=optional(NUMBER),
        rng_state=optional(OBJECT),
        state_id=optional(INT),
    ),
    MSG_UPDATE: Schema(
        UpdateEnvelope,
        client_id=INT,
        seq=INT,
        state=optional(STATE),
        payload=optional(PAYLOAD),
        stats=optional(_STATS),
        rng_state=optional(OBJECT),
        error=optional(STR),
        traceback=optional(STR),
    ),
    MSG_ACK: Schema(Ack, client_id=INT, seq=INT, released=INT_TUPLE),
    MSG_HEARTBEAT: Schema(Heartbeat, seq=INT),
    MSG_HEARTBEAT_ACK: Schema(HeartbeatAck, seq=INT),
    MSG_ERROR: Schema(ErrorMessage, code=STR, detail=STR),
    MSG_GOODBYE: Schema(Goodbye, reason=STR),
}


#: message class <-> frame-type byte (bijective).
MESSAGE_TYPES = {schema.factory: frame_type for frame_type, schema in SCHEMAS.items()}


def encode_message(message) -> Tuple[int, bytes]:
    """``message`` as an envelope body; returns ``(frame_type, body_bytes)``."""
    frame_type = MESSAGE_TYPES.get(type(message))
    if frame_type is None:
        raise TypeError(f"not a protocol message: {type(message).__name__}")
    return frame_type, SCHEMAS[frame_type].pack(message)


def decode_message(frame_type: int, body: bytes):
    """Decode a frame body against the schema its frame-type byte names.

    Raises :class:`MessageDecodeError` for unknown type bytes and for every
    body that is not a well-formed version-2 envelope of that schema —
    never any other exception, and allocating only in proportion to the
    bytes the body actually holds, never to what a length or shape claims.
    """
    schema = SCHEMAS.get(frame_type)
    if schema is None:
        raise MessageDecodeError(frame_type, reason="unknown frame type")
    try:
        return schema.unpack(body)
    except TransportDecodeError as error:
        raise MessageDecodeError(frame_type, reason=error.reason) from error


def canonical_fingerprint(fingerprint: Optional[Dict[str, object]]) -> Dict[str, object]:
    """A run fingerprint as the peer will see it after the JSON crossing.

    Tuples become lists and keys strings on the wire; comparing a local
    fingerprint against a received one is only meaningful once the local
    one has taken the same trip.
    """
    return json.loads(json.dumps(fingerprint or {}))


__all__ = [
    "MESSAGE_TYPES",
    "MSG_ACK",
    "MSG_ERROR",
    "MSG_GOODBYE",
    "MSG_HEARTBEAT",
    "MSG_HEARTBEAT_ACK",
    "MSG_HELLO",
    "MSG_STATE",
    "MSG_TASK",
    "MSG_UPDATE",
    "MSG_WELCOME",
    "PROTOCOL_VERSION",
    "Ack",
    "ErrorMessage",
    "Goodbye",
    "Heartbeat",
    "HeartbeatAck",
    "Hello",
    "SCHEMAS",
    "StateMessage",
    "TaskEnvelope",
    "UpdateEnvelope",
    "Welcome",
    "canonical_fingerprint",
    "decode_message",
    "encode_message",
]
