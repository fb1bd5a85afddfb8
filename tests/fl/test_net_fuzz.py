"""Stateful fuzz of the wire's trust boundary: ``FrameReader`` -> ``decode_message``.

A hypothesis state machine plays a hostile (or merely broken) peer against
one connection's decode path.  Each step puts bytes on the stream — a valid
message, random bytes, a valid frame with one bit flipped, or a correctly
framed body whose envelope lies (length fields larger than the body,
truncated or foreign JSON, unknown codec names, NaN / negative / 2**70
shapes, a version-1 pickle) — and the machine asserts the only things that
can come out are:

* a decoded message (equal to the one sent, when the bytes were honest),
* :class:`FrameError` from the reader (after which the "connection" is
  replaced, as both endpoints do), or
* :class:`MessageDecodeError` from the message codec,

and that decoding never allocates in proportion to what a length or shape
field *claims* — only to the bytes that actually arrived, which the frame
bound caps.
"""

from __future__ import annotations

import json
import pickle
import struct
import tracemalloc

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fl.net import FrameError, FrameReader, MessageDecodeError, encode_frame
from repro.fl.net.framing import HEADER_BYTES, TRAILER_BYTES
from repro.fl.net.messages import (
    MESSAGE_TYPES,
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
    decode_message,
    encode_message,
)
from repro.fl.parameters import FlatState
from repro.fl.trainer import StepStatistics
from repro.fl.transport import IdentityCodec, QuantizationCodec, TopKCodec, TransportDecodeError, WireTask
from repro.fl.transport.envelope import decode_carrier, encode_carrier, pack_envelope, unpack_envelope

#: The fuzzed connection's frame bound (the deployed one is 64 MiB).
BOUND = 1 << 14
#: Python objects per metadata byte are a constant factor (``[],[],`` is the
#: worst JSON can do); a decode may cost this much per *received* byte, plus
#: slack — and nothing for bytes a header merely announces.
ALLOCATION_PER_BYTE, ALLOCATION_SLACK = 64, 1 << 16

ids = st.integers(0, 2**31)
names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12)
json_scalars = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | names
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4), max_leaves=12
)
json_objects = st.dictionaries(names, json_values, max_size=4)


@st.composite
def flat_states(draw, min_dim=0):
    shapes = draw(st.lists(st.lists(st.integers(min_dim, 4), max_size=3), min_size=1, max_size=4))
    values = np.random.default_rng(draw(st.integers(0, 2**16)))
    return FlatState.from_items((f"layer{index}.w", values.normal(size=shape)) for index, shape in enumerate(shapes))


@st.composite
def payloads(draw):
    codec = draw(
        st.sampled_from([IdentityCodec("float16"), QuantizationCodec(5, deflate=False), TopKCodec(0.5, deflate=True)])
    )
    return codec, codec.encode(draw(flat_states(min_dim=1)))


@st.composite
def carriers(draw):
    if draw(st.booleans()):
        return encode_carrier(draw(flat_states()))
    codec, payload = draw(payloads())
    return encode_carrier(WireTask(payload, codec, up_codec=draw(st.none() | st.just(codec)), delta_upload=draw(st.booleans())))


rng_states = st.integers(0, 2**32).map(lambda seed: np.random.default_rng(seed).bit_generator.state)
losses = st.floats(allow_nan=False)  # NaN crosses fine but is != itself, which the equality check needs
messages = st.one_of(
    st.builds(
        Hello,
        client_ids=st.lists(ids, max_size=5).map(tuple),
        protocol_version=st.integers(0, 9),
        cursors=st.dictionaries(ids, ids, max_size=5),
        fingerprint=json_objects.map(lambda value: json.loads(json.dumps(value))),
    ),
    st.builds(Welcome, st.floats(0, 100), st.floats(0, 100), st.dictionaries(ids, ids, max_size=5)),
    st.builds(StateMessage, ids, carriers()),
    st.builds(
        TaskEnvelope, ids, ids, st.sampled_from(["train", "finetune"]), st.binary(max_size=64) | carriers(),
        st.booleans(), steps=st.none() | ids, proximal_mu=st.none() | st.floats(0, 1),
        rng_state=st.none() | rng_states, state_id=st.none() | ids,
    ),
    st.builds(
        UpdateEnvelope, ids, ids, state=st.none() | flat_states(), payload=st.none() | payloads().map(lambda pair: pair[1]),
        stats=st.none() | st.builds(StepStatistics, ids, losses, losses), rng_state=st.none() | rng_states,
        error=st.none() | names, traceback=st.none() | names,
    ),
    st.builds(Ack, ids, ids, st.lists(ids, max_size=4).map(tuple)),
    st.builds(Heartbeat, ids),
    st.builds(HeartbeatAck, ids),
    st.builds(ErrorMessage, names, names),
    st.builds(Goodbye, names),
)

#: Values a hostile peer puts where the schema expects something else.
hostile_values = st.one_of(
    json_values,
    st.sampled_from(
        [
            float("nan"), float("inf"), -1, 2**70, True, "", [], {},
            [["w", [2**40, 2**40]]], [["w", [-3]]], [["w", [float("nan")]]], [["w", [1]], ["w", [1]]], [["w"]], [[7, [1]]],
            {"name": "pickle", "parameters": {}},
            {"name": "identity", "parameters": {"dtype": "object"}},
            {"name": "quantize", "parameters": {"num_bits": 10**9}},
            {"name": "topk", "parameters": {"keep_fraction": float("nan"), "surprise": 1}},
            {"codec": "nope", "data": 2**62, "schema": [["w", [2**62]]], "crc": None},
        ]
    ),
)


#: The messages that carry bulk sections: where a layout or a length can lie.
bulk_messages = st.builds(
    UpdateEnvelope, ids, ids, state=flat_states(), payload=st.none() | payloads().map(lambda pair: pair[1])
) | st.builds(UpdateEnvelope, ids, ids, payload=payloads().map(lambda pair: pair[1]))


def replace_node(meta, index: int, value) -> None:
    """Overwrite one node of a JSON tree — any key or element, at any depth."""
    slots = []

    def walk(container):
        for key in (container if isinstance(container, dict) else range(len(container))):
            slots.append((container, key))
            if isinstance(container[key], (dict, list)):
                walk(container[key])

    walk(meta)
    if slots:
        container, key = slots[index % len(slots)]
        container[key] = value


def equal_messages(left, right) -> bool:
    if isinstance(left, UpdateEnvelope) and left.state is not None:
        if right.state is None or right.state.layout is not left.state.layout:
            return False
        if right.state.vector.tobytes() != left.state.vector.tobytes():
            return False
        left, right = (UpdateEnvelope(**{**vars(m), "state": None}) for m in (left, right))
    return left == right


class HostilePeer(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.reader = FrameReader(max_payload_bytes=BOUND)
        tracemalloc.start()

    def teardown(self):
        tracemalloc.stop()

    # -- the decode path under test --------------------------------------------------
    def deliver(self, data: bytes, chunk: int):
        """Feed ``data`` in ``chunk``-byte reads; returns the decode results."""
        results = []
        try:
            for start in range(0, len(data), chunk):
                for frame_type, body in self.reader.feed(data[start : start + chunk]):
                    results.append(self.decode(frame_type, body))
        except FrameError as error:
            results.extend(self.decode(*frame) for frame in error.frames)
            self.reader = FrameReader(max_payload_bytes=BOUND)  # the connection is dropped
            results.append(error)
        return results

    def decode(self, frame_type: int, body: bytes):
        assert len(body) <= BOUND
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return decode_message(frame_type, body)
        except MessageDecodeError as error:
            return error
        finally:
            grown = tracemalloc.get_traced_memory()[1] - before
            assert grown <= ALLOCATION_PER_BYTE * len(body) + ALLOCATION_SLACK, (grown, len(body))

    def deliver_body(self, frame_type: int, body: bytes, chunk: int):
        if len(body) > BOUND:
            return
        results = self.deliver(encode_frame(frame_type, body), chunk)
        # Correctly framed: the reader passes it, the message codec judges it.
        assert len(results) == 1 and not isinstance(results[0], FrameError)
        return results[0]

    # -- what the peer sends -----------------------------------------------------------
    @rule(message=messages, chunk=st.integers(1, 4096))
    def honest_message(self, message, chunk):
        decoded = self.deliver_body(*encode_message(message), chunk)
        assert decoded is None or equal_messages(message, decoded), (message, decoded)

    def hang_up_if_waiting(self):
        # Garbage can leave the reader waiting for bytes that never come; the
        # peer hanging up is what ends that, as on a real socket.
        if len(self.reader._buffer):
            self.reader = FrameReader(max_payload_bytes=BOUND)

    @rule(data=st.binary(max_size=256), chunk=st.integers(1, 64))
    def random_bytes(self, data, chunk):
        for result in self.deliver(data, chunk):
            assert isinstance(result, (FrameError, MessageDecodeError)) or type(result) in MESSAGE_TYPES
        self.hang_up_if_waiting()

    @rule(message=messages, position=st.integers(0, 2**16), bit=st.integers(0, 7), chunk=st.integers(1, 4096))
    def bit_flipped_frame(self, message, position, bit, chunk):
        frame_type, body = encode_message(message)
        if len(body) > BOUND:
            return
        frame = bytearray(encode_frame(frame_type, body))
        frame[position % len(frame)] ^= 1 << bit
        results = self.deliver(bytes(frame), chunk)
        self.hang_up_if_waiting()
        assert not any(equal_messages(message, result) for result in results if type(result) is type(message))

    @rule(frame_type=st.sampled_from(sorted(MESSAGE_TYPES.values())) | st.integers(0, 255), body=st.binary(max_size=128),
          chunk=st.integers(1, 64))
    def random_body(self, frame_type, body, chunk):
        self.deliver_body(frame_type, body, chunk)

    @rule(message=messages, cut=st.integers(0, 2**16), chunk=st.integers(1, 4096))
    def truncated_body(self, message, cut, chunk):
        frame_type, body = encode_message(message)
        result = self.deliver_body(frame_type, body[: cut % len(body)], chunk)
        assert result is None or isinstance(result, MessageDecodeError)

    @rule(message=messages, extra=st.binary(min_size=1, max_size=16), chunk=st.integers(1, 4096))
    def bytes_behind_the_last_section(self, message, extra, chunk):
        frame_type, body = encode_message(message)
        result = self.deliver_body(frame_type, body + extra, chunk)
        assert result is None or isinstance(result, MessageDecodeError)

    @rule(message=messages, field=st.integers(0, 8), claim=st.integers(1, 2**63), chunk=st.integers(1, 4096))
    def length_field_larger_than_the_body(self, message, field, claim, chunk):
        frame_type, body = encode_message(message)
        sections = body[1]
        lies = bytearray(body)
        if field % (sections + 1) == 0:  # the metadata length (u32)
            struct.pack_into(">I", lies, 2, min(struct.unpack_from(">I", body, 2)[0] + claim, 2**32 - 1))
        else:  # one section's length (u64)
            offset = 6 + 8 * (field % (sections + 1) - 1)
            struct.pack_into(">Q", lies, offset, min(struct.unpack_from(">Q", body, offset)[0] + claim, 2**64 - 1))
        result = self.deliver_body(frame_type, bytes(lies), chunk)
        assert result is None or isinstance(result, MessageDecodeError)

    @rule(message=messages | bulk_messages, node=st.integers(0, 2**16), value=hostile_values, chunk=st.integers(1, 4096))
    def hostile_metadata(self, message, node, value, chunk):
        frame_type, body = encode_message(message)
        meta, sections = unpack_envelope(body)
        replace_node(meta, node, value)
        self.deliver_body(frame_type, pack_envelope(meta, sections), chunk)

    @rule(blob=carriers(), node=st.integers(0, 2**16), value=hostile_values)
    def hostile_carrier(self, blob, node, value):
        # What a joiner (or a pool worker) does with a STATE blob.
        meta, sections = unpack_envelope(blob)
        replace_node(meta, node, value)
        lying = pack_envelope(meta, sections)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            decode_carrier(lying)
        except TransportDecodeError:
            pass
        grown = tracemalloc.get_traced_memory()[1] - before
        assert grown <= ALLOCATION_PER_BYTE * len(lying) + ALLOCATION_SLACK, (grown, len(lying))

    @rule(meta=json_values, sections=st.lists(st.binary(max_size=32), max_size=3), chunk=st.integers(1, 64),
          frame_type=st.sampled_from(sorted(MESSAGE_TYPES.values())))
    def foreign_metadata(self, meta, sections, chunk, frame_type):
        result = self.deliver_body(frame_type, pack_envelope(meta, sections), chunk)
        assert result is None or isinstance(result, MessageDecodeError)

    @rule(frame_type=st.sampled_from(sorted(MESSAGE_TYPES.values())), message=messages, chunk=st.integers(1, 4096))
    def version_one_pickle(self, frame_type, message, chunk):
        body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        result = self.deliver_body(frame_type, body, chunk)
        assert result is None or isinstance(result, MessageDecodeError)

    @invariant()
    def reader_never_buffers_past_one_frame(self):
        assert len(self.reader._buffer) <= HEADER_BYTES + BOUND + TRAILER_BYTES


TestHostilePeer = HostilePeer.TestCase
TestHostilePeer.settings = settings(max_examples=100, stateful_step_count=20, deadline=None)
