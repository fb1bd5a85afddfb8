"""Fuzz/property tests for the wire frame codec and message vocabulary.

The frame layer is the trust boundary of the federation runtime: every
byte that arrives from a socket passes through :class:`FrameReader`
before anything is decoded. The properties under test:

* encode/decode round-trips bit for bit, regardless of how the byte
  stream is chunked (byte-at-a-time == one-shot),
* corruption anywhere in a frame (every single byte position) raises a
  typed :class:`FrameError` or delivers nothing — it never produces a
  wrong payload and never hangs a reader,
* truncation at every possible split point either waits for more bytes
  or raises ``truncated`` from ``finish()`` — no partial frames leak,
* an oversized length prefix fails immediately, before any payload
  arrives (no unbounded buffering),
* a poisoned reader stays poisoned (feeding more bytes re-raises),
* message encode/decode rejects unknown types, garbage bodies, version-1
  (pickled) bodies and schema violations with :class:`MessageDecodeError`,
  never any other exception — ``test_net_fuzz.py`` drives the same
  boundary with generated input.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.fl.net import FrameError, FrameReader, MessageDecodeError, encode_frame
from repro.fl.net.framing import HEADER_BYTES, MAGIC, MAX_PAYLOAD_BYTES, TRAILER_BYTES, frame_crc
from repro.fl.parameters import FlatState
from repro.fl.trainer import StepStatistics
from repro.fl.transport import IdentityCodec
from repro.fl.net.messages import (
    Ack,
    Goodbye,
    Heartbeat,
    HeartbeatAck,
    Hello,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    SCHEMAS,
    StateMessage,
    TaskEnvelope,
    UpdateEnvelope,
    Welcome,
    canonical_fingerprint,
    decode_message,
    encode_message,
)


def decode_all(data: bytes, chunk: int = 0):
    """Decode ``data`` fully; ``chunk`` > 0 feeds that many bytes at a time."""
    reader = FrameReader()
    frames = []
    if chunk <= 0:
        frames.extend(reader.feed(data))
    else:
        for start in range(0, len(data), chunk):
            frames.extend(reader.feed(data[start : start + chunk]))
    reader.finish()
    return frames


class TestRoundTrip:
    def test_single_frame(self):
        payload = b"hello federation"
        frames = decode_all(encode_frame(0x10, payload))
        assert frames == [(0x10, payload)]

    def test_empty_payload(self):
        assert decode_all(encode_frame(0x20, b"")) == [(0x20, b"")]

    def test_many_frames_back_to_back(self):
        rng = np.random.default_rng(7)
        originals = [(int(t), bytes(rng.integers(0, 256, size=int(n), dtype=np.uint8))) for t, n in zip(rng.integers(1, 127, size=20), rng.integers(0, 300, size=20))]
        stream = b"".join(encode_frame(t, p) for t, p in originals)
        assert decode_all(stream) == originals

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 64])
    def test_chunking_invariance(self, chunk):
        rng = np.random.default_rng(chunk)
        originals = [(3, bytes(rng.integers(0, 256, size=200, dtype=np.uint8))), (9, b""), (77, b"x" * 31)]
        stream = b"".join(encode_frame(t, p) for t, p in originals)
        assert decode_all(stream, chunk=chunk) == originals

    def test_large_payload(self):
        payload = bytes(np.random.default_rng(0).integers(0, 256, size=1 << 18, dtype=np.uint8))
        assert decode_all(encode_frame(1, payload), chunk=4096) == [(1, payload)]

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FrameError, match="oversized"):
            encode_frame(1, b"x", max_payload_bytes=0)

    @pytest.mark.parametrize("frame_type, payload", [(0, b""), (0x10, b"hello federation"), (0xFF, bytes(range(256)))])
    def test_frame_crc_is_the_trailer(self, frame_type, payload):
        frame = encode_frame(frame_type, payload)
        assert frame[-TRAILER_BYTES:] == frame_crc(frame_type, payload).to_bytes(4, "big")

    def test_frame_crc_covers_type_and_length(self):
        crc = frame_crc(1, b"abc")
        assert crc != frame_crc(2, b"abc")
        assert crc != frame_crc(1, b"abcd")
        assert frame_crc(0x101, b"abc") == crc  # only the type's low byte goes on the wire

    def test_encode_rejects_bad_type(self):
        with pytest.raises(ValueError):
            encode_frame(256, b"")
        with pytest.raises(ValueError):
            encode_frame(-1, b"")


class TestCorruption:
    def test_flip_every_byte_never_yields_wrong_payload(self):
        """Exhaustive single-byte corruption sweep over a whole frame.

        Every position must end in a typed FrameError (bad magic, crc
        mismatch, oversized, or truncated via finish) or, in the rare
        case a flipped length byte makes the frame *shorter* and the
        tail still checks out, deliver nothing silently wrong: any frame
        that IS delivered must fail CRC comparison against the original
        only if payload bytes differ. In practice the CRC catches all.
        """
        payload = b"routability over the wire"
        frame = bytearray(encode_frame(0x11, payload))
        for position in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[position] ^= 0xFF
            reader = FrameReader()
            try:
                frames = reader.feed(bytes(corrupted))
                reader.finish()
            except FrameError as error:
                assert error.reason in {"bad magic", "crc mismatch", "oversized", "truncated"}
                continue
            # A shorter-length corruption can decode a prefix; it must not
            # silently deliver the original payload as intact.
            for _, body in frames:
                assert body != payload or bytes(corrupted) == bytes(frame)

    def test_crc_mismatch_is_typed(self):
        frame = bytearray(encode_frame(5, b"abcdef"))
        frame[-1] ^= 0x01
        with pytest.raises(FrameError, match="crc mismatch"):
            decode_all(bytes(frame))

    def test_bad_magic_reports_offset(self):
        good = encode_frame(5, b"abc")
        with pytest.raises(FrameError, match="bad magic") as excinfo:
            decode_all(b"GARBAGE" + good)
        assert excinfo.value.offset == 0

    def test_garbage_between_frames_is_fatal(self):
        stream = encode_frame(1, b"one") + b"\x00\x00" + encode_frame(2, b"two")
        reader = FrameReader()
        with pytest.raises(FrameError, match="bad magic"):
            reader.feed(stream)

    def test_interleaved_garbage_after_clean_frame_preserves_it(self):
        first = encode_frame(1, b"one")
        reader = FrameReader()
        frames = reader.feed(first)
        assert frames == [(1, b"one")]
        with pytest.raises(FrameError):
            reader.feed(b"\xff" * 16)


class TestTruncation:
    def test_every_split_point_waits_then_fails_finish(self):
        frame = encode_frame(0x12, b"partial delivery")
        for cut in range(len(frame)):
            reader = FrameReader()
            assert reader.feed(frame[:cut]) == []
            if cut == 0:
                reader.finish()  # an empty buffer is a clean close
                continue
            with pytest.raises(FrameError, match="truncated"):
                reader.finish()

    def test_completed_stream_finishes_cleanly(self):
        reader = FrameReader()
        reader.feed(encode_frame(1, b"done"))
        reader.finish()

    def test_resume_across_split_completes_frame(self):
        frame = encode_frame(9, b"resume me")
        for cut in range(1, len(frame)):
            reader = FrameReader()
            assert reader.feed(frame[:cut]) == []
            assert reader.feed(frame[cut:]) == [(9, b"resume me")]


class TestOversizedAndPoison:
    def test_oversized_length_prefix_fails_before_payload(self):
        """A hostile length must fail from the header alone (no hang)."""
        header = MAGIC + bytes([1]) + (MAX_PAYLOAD_BYTES + 1).to_bytes(4, "big")
        reader = FrameReader()
        with pytest.raises(FrameError, match="oversized"):
            reader.feed(header)

    def test_max_length_is_accepted_at_header_time(self):
        header = MAGIC + bytes([1]) + MAX_PAYLOAD_BYTES.to_bytes(4, "big")
        reader = FrameReader()
        assert reader.feed(header) == []  # waiting for payload, not rejected

    def test_poisoned_reader_re_raises(self):
        reader = FrameReader()
        with pytest.raises(FrameError):
            reader.feed(b"\x00" * HEADER_BYTES)
        with pytest.raises(FrameError):
            reader.feed(encode_frame(1, b"fine"))
        with pytest.raises(FrameError):
            reader.finish()

    def test_reader_accounting(self):
        reader = FrameReader()
        frame = encode_frame(1, b"abc")
        reader.feed(frame)
        assert reader.frames_decoded == 1
        assert reader.offset == len(frame)
        assert len(reader._buffer) == 0

    def test_header_trailer_constants(self):
        # The frame layout documented in docs/deployment.md.
        assert HEADER_BYTES == len(MAGIC) + 1 + 4
        assert TRAILER_BYTES == 4
        assert len(encode_frame(1, b"xyz")) == HEADER_BYTES + 3 + TRAILER_BYTES


class TestMessages:
    @pytest.mark.parametrize(
        "message",
        [
            Hello(client_ids=(1, 2, 3), cursors={1: 4}, fingerprint={"seed": 0}),
            Welcome(heartbeat_interval=2.0, client_timeout=10.0, replayed={1: 3}),
            TaskEnvelope(client_id=1, seq=9, op="train", blob=b"blob", is_wire=True, steps=2),
            UpdateEnvelope(client_id=1, seq=9, stats=StepStatistics(2, float("inf"), 1.0)),
            Ack(client_id=2, seq=5, released=(3, 4)),
            Heartbeat(seq=1),
            HeartbeatAck(seq=1),
            Goodbye(reason="done"),
            StateMessage(state_id=7, blob=b"\x00carrier bytes\xff"),
            TaskEnvelope(
                client_id=1, seq=9, op="finetune", blob=b"", is_wire=False, proximal_mu=1e-3,
                rng_state=np.random.default_rng(5).bit_generator.state, state_id=7,
            ),
            UpdateEnvelope(client_id=1, seq=9, error="ValueError('x')", traceback="Traceback ..."),
        ],
    )
    def test_round_trip(self, message):
        frame_type, body = encode_message(message)
        assert decode_message(frame_type, body) == message

    def test_canonical_fingerprint_is_what_the_peer_sees(self):
        local = {"seed": 0, "clients": (1, 2), "shapes": {3: (4, 5)}, "model": "flnet"}
        canonical = canonical_fingerprint(local)
        assert canonical == {"seed": 0, "clients": [1, 2], "shapes": {"3": [4, 5]}, "model": "flnet"}
        hello = decode_message(*encode_message(Hello(client_ids=(1,), cursors={}, fingerprint=local)))
        assert hello.fingerprint == canonical
        assert canonical_fingerprint(canonical) == canonical

    def test_canonical_fingerprint_of_none_is_empty(self):
        assert canonical_fingerprint(None) == {}

    def test_update_state_and_payload_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        state = FlatState.from_items([("w", rng.normal(size=(3, 4))), ("b", rng.normal(size=4))])
        state["b"][0] = np.nan
        payload = IdentityCodec("float32").encode(state)
        update = UpdateEnvelope(1, 2, state=state, payload=payload, stats=StepStatistics(1, 0.5, 0.25))
        decoded = decode_message(*encode_message(update))
        assert decoded.state.layout is state.layout
        assert decoded.state.vector.tobytes() == state.vector.tobytes()
        # Caller-owned and writable: one copy off the frame body, not a view of it.
        assert decoded.state.vector.flags.writeable and decoded.state.vector.flags.owndata
        assert decoded.payload == payload and decoded.stats == update.stats

    def test_rng_state_survives_the_json_crossing(self):
        generator = np.random.default_rng(11)
        generator.random(3)
        task = TaskEnvelope(1, 1, "train", b"", False, rng_state=generator.bit_generator.state)
        resumed = np.random.default_rng(0)
        resumed.bit_generator.state = decode_message(*encode_message(task)).rng_state
        assert resumed.random(4).tolist() == generator.random(4).tolist()

    def test_vocabulary_is_bijective(self):
        assert len(set(MESSAGE_TYPES.values())) == len(MESSAGE_TYPES)
        assert set(MESSAGE_TYPES.values()) == set(SCHEMAS)

    def test_unknown_type_is_typed_error(self):
        with pytest.raises(MessageDecodeError):
            decode_message(0x5A, encode_message(Ack(client_id=1, seq=1))[1])

    def test_garbage_body_is_typed_error(self):
        frame_type, _ = encode_message(Ack(client_id=1, seq=1))
        with pytest.raises(MessageDecodeError):
            decode_message(frame_type, b"\x00not an envelope")

    def test_wrong_body_for_type_is_typed_error(self):
        frame_type, _ = encode_message(Heartbeat(seq=1))
        with pytest.raises(MessageDecodeError, match="schema"):
            decode_message(frame_type, encode_message(Ack(client_id=1, seq=1))[1])

    def test_v1_pickle_body_is_rejected_by_its_first_byte(self):
        assert PROTOCOL_VERSION == 2
        frame_type, body = encode_message(Hello(client_ids=(1,)))
        assert body[0] == PROTOCOL_VERSION
        with pytest.raises(MessageDecodeError, match="not a v2 envelope"):
            decode_message(frame_type, pickle.dumps(Hello(client_ids=(1,))))

    def test_failed_feed_hands_back_the_frames_before_the_error(self):
        good = encode_frame(1, b"one") + encode_frame(2, b"two")
        broken = bytearray(encode_frame(3, b"three"))
        broken[-1] ^= 0x01
        reader = FrameReader()
        with pytest.raises(FrameError, match="crc mismatch") as excinfo:
            reader.feed(good + bytes(broken))
        assert excinfo.value.frames == [(1, b"one"), (2, b"two")]
        assert reader.offset == len(good)
        # The poisoned reader re-raises, but never replays those frames.
        with pytest.raises(FrameError) as again:
            reader.feed(b"")
        assert again.value.frames == []
