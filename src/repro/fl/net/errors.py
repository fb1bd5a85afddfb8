"""Typed errors of the wire-level federation runtime.

Everything that can go wrong on the wire raises (or is reported as) one of
these, mirroring the transport layer's :class:`TransportDecodeError` style:
machine-readable fields first, a formatted message second, so tests and the
resilience layer can dispatch on *what* failed without parsing strings.
"""

from __future__ import annotations


class WireProtocolError(ValueError):
    """Base class for every wire-protocol violation."""


class FrameError(WireProtocolError):
    """A byte stream violated the frame format.

    ``reason`` is one of a small closed vocabulary (``"bad magic"``,
    ``"oversized"``, ``"crc mismatch"``, ``"truncated"``) so fuzz tests can
    assert the *class* of failure deterministically; ``offset`` is the
    stream offset (bytes consumed by previously accepted frames included)
    at which the offending frame started; ``frames`` holds the
    ``(frame_type, payload)`` pairs the failing ``feed`` call had completed
    before it (empty when a poisoned reader re-raises).
    """

    def __init__(self, reason: str, *, offset: int = 0, detail: str = "", frames=()):
        self.reason = reason
        self.offset = int(offset)
        self.detail = detail
        self.frames = list(frames)
        message = f"frame error at byte {offset}: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class MessageDecodeError(WireProtocolError):
    """A structurally valid frame carried an undecodable message body.

    Raised when the body is not a well-formed version-2 envelope of the
    schema its frame-type byte names (:mod:`repro.fl.net.messages`).  The
    CRC check runs *before* body decoding, so reaching this error means the
    bytes arrived intact but the peer produced garbage — or speaks version 1.
    """

    def __init__(self, frame_type: int, *, reason: str):
        self.frame_type = int(frame_type)
        self.reason = reason
        super().__init__(f"undecodable message body for frame type 0x{frame_type:02X}: {reason}")


class HandshakeError(WireProtocolError):
    """The HELLO/WELCOME exchange failed (version, identity, or fingerprint).

    ``code`` is a short machine-readable slug (``"protocol"``,
    ``"fingerprint"``, ``"rejected"``) so joiners can decide whether a
    reconnect could ever succeed (it cannot — handshake failures are
    permanent, unlike socket drops).
    """

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        message = f"handshake failed ({code})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class SessionLost(ConnectionError):
    """The peer went away mid-conversation (socket death or liveness loss).

    A :class:`ConnectionError` rather than a protocol error: losing a peer
    is an expected runtime event the reconnect loop handles, not a bug in
    the byte stream.  ``kind`` says how the peer was lost (``"disconnect"``
    for socket death, ``"heartbeat"`` for a missed liveness deadline).
    """

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        message = f"session lost ({kind})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class JournalError(WireProtocolError):
    """A message journal could not be read or written.

    Only *structural* problems raise (an unwritable directory, a record
    whose frame is intact but whose body breaks its schema); a truncated or
    torn tail — the normal signature of a crash mid-append — is cut off by
    the loader instead, because the sender never got an acknowledgment for
    it anyway.
    """

    def __init__(self, path: str, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"journal {path}: {reason}")


__all__ = [
    "FrameError",
    "HandshakeError",
    "JournalError",
    "MessageDecodeError",
    "SessionLost",
    "WireProtocolError",
]
