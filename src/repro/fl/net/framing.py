"""Length-prefixed, CRC-framed wire format (sans-io).

Every message of the federation protocol travels as one frame::

    +-------+------+----------------+---------+-------+
    | magic | type | length (u32 BE)| payload | crc32 |
    | 2 B   | 1 B  | 4 B            | len B   | 4 B   |
    +-------+------+----------------+---------+-------+

The CRC-32 covers ``type + length + payload`` (everything except the magic,
whose corruption is caught by the magic check itself), so a flipped byte
anywhere in a frame is rejected before the payload is ever interpreted.

The codec is *sans-io*: :func:`encode_frame` produces bytes (or
:func:`frame_parts` the same bytes in three pieces, for writers) and
:class:`FrameReader` consumes arbitrarily chunked bytes, so the same state
machine serves the asyncio sockets, the on-disk journal, and the fuzz tests.
Three properties the fuzz suite pins down:

never hang
    A reader either yields a complete frame, raises a typed
    :class:`~repro.fl.net.errors.FrameError`, or asks for more bytes — and
    an *oversized* length prefix raises immediately, without waiting for
    the (unbounded) payload it announces.
chunking invariance
    Feeding a byte stream one byte at a time, in random chunks, or all at
    once yields the identical frame sequence (or the identical error at
    the identical offset).
fail fast, fail typed
    Garbage raises :class:`FrameError` with a closed-vocabulary ``reason``
    — never a bare ``struct.error``/``IndexError``, and never a silently
    skipped frame.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from repro.fl.net.errors import FrameError

#: Frame preamble; deliberately asymmetric bytes so a shifted/garbled stream
#: cannot resynchronize on it by accident.
MAGIC = b"\xf7\x4c"

#: ``type + length`` packed layout (after the magic).
_HEAD = struct.Struct(">BI")

#: Bytes before the payload: magic + type + length.
HEADER_BYTES = len(MAGIC) + _HEAD.size

#: Bytes after the payload: the CRC-32 trailer.
TRAILER_BYTES = 4

#: Hard bound on a frame's payload size (64 MiB).  Large enough for any
#: uncompressed model state this project ships, small enough that a
#: corrupted (or hostile) length prefix fails immediately instead of
#: making the reader buffer gigabytes waiting for a payload that will
#: never arrive.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


def frame_crc(frame_type: int, payload: bytes) -> int:
    """The CRC-32 a well-formed frame carries (over type + length + payload)."""
    head = _HEAD.pack(frame_type & 0xFF, len(payload))
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


def frame_parts(
    frame_type: int, payload: bytes, max_payload_bytes: int = MAX_PAYLOAD_BYTES
) -> Tuple[bytes, bytes, bytes]:
    """One frame as ``(prefix, payload, trailer)``, for writing part by part.

    The three parts back to back are :func:`encode_frame`'s bytes; writing
    them in turn spares a sender the concatenated copy of the payload.
    """
    if not 0 <= frame_type <= 0xFF:
        raise ValueError(f"frame type must fit one byte, got {frame_type}")
    payload = bytes(payload)
    if len(payload) > max_payload_bytes:
        raise FrameError(
            "oversized",
            detail=f"payload of {len(payload)} bytes exceeds the {max_payload_bytes}-byte frame bound",
        )
    head = _HEAD.pack(frame_type, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
    return MAGIC + head, payload, struct.pack(">I", crc)


def encode_frame(frame_type: int, payload: bytes, max_payload_bytes: int = MAX_PAYLOAD_BYTES) -> bytes:
    """Encode one frame; the inverse of what :class:`FrameReader` accepts."""
    return b"".join(frame_parts(frame_type, payload, max_payload_bytes))


class FrameReader:
    """Incremental frame parser over an arbitrarily chunked byte stream.

    Feed bytes as they arrive; each :meth:`feed` returns the frames that
    became complete, as ``(frame_type, payload)`` pairs.  A malformed
    stream raises :class:`FrameError` and poisons the reader — once the
    framing is lost there is no trustworthy way to resynchronize, so the
    connection (or journal scan) must be abandoned.  :attr:`offset` is the
    stream position of the frame currently being parsed, which makes error
    reports (and journal-truncation decisions) exact.
    """

    def __init__(self, max_payload_bytes: int = MAX_PAYLOAD_BYTES):
        self.max_payload_bytes = int(max_payload_bytes)
        self._buffer = bytearray()
        #: Stream offset of the first byte in ``_buffer``.
        self.offset = 0
        #: Completed frames so far (diagnostics / tests).
        self.frames_decoded = 0
        self._error: Optional[FrameError] = None

    def _fail(self, reason: str, detail: str = "", frames=()) -> None:
        # The stored copy is what a poisoned reader re-raises: no frames on it.
        self._error = FrameError(reason, offset=self.offset, detail=detail)
        raise FrameError(reason, offset=self.offset, detail=detail, frames=frames)

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Consume ``data``; return every frame it completed, in order.

        A malformed frame raises; the frames this call completed before it
        ride on the error (``FrameError.frames``), so one pass over a
        journal file recovers its clean prefix.
        """
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        frames: List[Tuple[int, bytes]] = []
        while True:
            if len(self._buffer) < len(MAGIC):
                # Not enough to check the magic yet -- unless what we do
                # have already disagrees with it (fail on the first bad
                # byte, not once a full header happens to arrive).
                if self._buffer and not MAGIC.startswith(bytes(self._buffer[: len(MAGIC)])):
                    self._fail("bad magic", f"got 0x{bytes(self._buffer).hex()}", frames)
                return frames
            if bytes(self._buffer[: len(MAGIC)]) != MAGIC:
                self._fail("bad magic", f"got 0x{bytes(self._buffer[:len(MAGIC)]).hex()}", frames)
            if len(self._buffer) < HEADER_BYTES:
                return frames
            frame_type, length = _HEAD.unpack_from(self._buffer, len(MAGIC))
            if length > self.max_payload_bytes:
                # Reject before waiting for the announced payload: this is
                # what keeps a corrupted length prefix from hanging the
                # reader (or ballooning its buffer) forever.
                self._fail(
                    "oversized",
                    f"length prefix {length} exceeds the {self.max_payload_bytes}-byte bound",
                    frames,
                )
            total = HEADER_BYTES + length + TRAILER_BYTES
            if len(self._buffer) < total:
                return frames
            # One copy, straight out of the buffer; the view is released
            # before the buffer shrinks (a bytearray with a live export
            # cannot be resized).
            with memoryview(self._buffer) as view:
                payload = bytes(view[HEADER_BYTES : HEADER_BYTES + length])
            (crc,) = struct.unpack_from(">I", self._buffer, HEADER_BYTES + length)
            expected = frame_crc(frame_type, payload)
            if crc != expected:
                self._fail("crc mismatch", f"expected 0x{expected:08X}, got 0x{crc:08X}", frames)
            del self._buffer[:total]
            self.offset += total
            self.frames_decoded += 1
            frames.append((frame_type, payload))

    def finish(self) -> None:
        """Declare end-of-stream; leftover bytes mean a truncated frame."""
        if self._error is not None:
            raise self._error
        if self._buffer:
            self._fail("truncated", detail=f"{len(self._buffer)} byte(s) of partial frame at end of stream")


__all__ = [
    "HEADER_BYTES",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "TRAILER_BYTES",
    "FrameReader",
    "encode_frame",
    "frame_crc",
    "frame_parts",
]
