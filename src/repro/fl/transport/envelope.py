"""The schema'd envelope: how structured values cross a process or a socket.

Everything that leaves the coordinating process — a state carrier sent to
a joiner, a protocol message put on a socket, a journal record
appended to disk — is one *envelope*::

    +---------+----------+-------------+---------------------+----------+----------+
    | version | sections | meta length | section lengths     | metadata | sections |
    | 1 B     | 1 B      | u32 BE      | sections x u64 BE   | JSON     | raw      |
    +---------+----------+-------------+---------------------+----------+----------+

The metadata is a JSON object holding every scalar, string and small
mapping; bulk bytes (a state's float64 buffer, an encoded payload, an
opaque blob) ride behind it as raw sections, in the order the metadata
refers to them.  Nothing in an envelope is executable: decoding builds
only ``int``/``float``/``str``/``dict``/``tuple`` values, NumPy buffers of
a size the body already contains, and the few dataclasses a
:class:`Schema` names.

Decoding is bounds-checked before it allocates: the header, the length
table, the metadata and the sections must tile the body exactly, the
metadata is capped at :data:`MAX_META_BYTES`, a state's ``(name, shape)``
layout must multiply out to its section's length, and a codec is rebuilt
only through the :data:`~repro.fl.transport.codecs.CODECS` registry.  Every
violation is a :class:`~repro.fl.transport.errors.TransportDecodeError`
(codec ``"envelope"``); callers on a socket or a journal re-type it.

A :class:`Schema` is the declaration of one envelope type: field name →
:class:`Kind`.  Schemas nest (a :class:`WireTask` holds a
:class:`Payload`), so the carrier encoder below, the ten protocol
messages and the journal records are all tables over the same dozen kinds.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Tuple

import numpy as np

from repro.fl.parameters import FlatState, StateLayout, as_flat_state
from repro.fl.transport.channel import WireTask
from repro.fl.transport.codecs import CODECS, Codec, Payload
from repro.fl.transport.errors import TransportDecodeError

#: First byte of every envelope; also the wire protocol's version number.
ENVELOPE_VERSION = 2

#: Hard bound on an envelope's JSON metadata.  A RouteNet layout is ~4 kB
#: and a traceback a few more; the cap keeps a hostile body from turning
#: megabytes of ``[[[[`` into gigabytes of Python lists.
MAX_META_BYTES = 1 << 20

_HEADER = struct.Struct(">BBI")  # version, section count, metadata length
_LENGTH_BYTES = 8  # one u64 per section

#: The one dtype a state's buffer travels as.
_WIRE_FLOAT = np.dtype("<f8")

#: Largest tensor shape a layout may declare (NumPy's own limits, rounded down).
_MAX_RANK, _MAX_VOLUME = 32, 1 << 59


def _malformed(reason: str, **byte_counts) -> TransportDecodeError:
    return TransportDecodeError("envelope", reason=reason, **byte_counts)


# -- the envelope itself -----------------------------------------------------------


def _byte_view(section) -> memoryview:
    view = memoryview(section)
    return view.cast("B") if view.nbytes else memoryview(b"")  # cast() refuses empty shapes


def pack_envelope(meta: Mapping[str, object], sections=()) -> bytes:
    """One envelope from JSON-able ``meta`` and buffer ``sections`` (one copy)."""
    text = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    if len(text) > MAX_META_BYTES:
        raise ValueError(f"envelope metadata of {len(text)} bytes exceeds {MAX_META_BYTES}")
    views = [_byte_view(section) for section in sections]
    if len(views) > 0xFF:
        raise ValueError(f"an envelope holds at most 255 sections, got {len(views)}")
    table = struct.pack(f">{len(views)}Q", *(len(view) for view in views))
    return b"".join([_HEADER.pack(ENVELOPE_VERSION, len(views), len(text)), table, text, *views])


def unpack_envelope(body) -> Tuple[Dict[str, object], List[memoryview]]:
    """``(meta, sections)`` of one envelope; sections are views into ``body``."""
    view = memoryview(body)
    if len(view) < _HEADER.size:
        raise _malformed("truncated header", expected_bytes=_HEADER.size, actual_bytes=len(view))
    version, count, meta_length = _HEADER.unpack_from(view)
    if version != ENVELOPE_VERSION:
        raise _malformed(f"not a v{ENVELOPE_VERSION} envelope (first byte 0x{version:02X})")
    start = _HEADER.size + count * _LENGTH_BYTES
    if start > len(view):
        raise _malformed("truncated section table", expected_bytes=start, actual_bytes=len(view))
    lengths = struct.unpack_from(f">{count}Q", view, _HEADER.size)
    if meta_length > MAX_META_BYTES:
        raise _malformed(f"metadata of {meta_length} bytes exceeds the {MAX_META_BYTES}-byte bound")
    expected = start + meta_length + sum(lengths)
    if expected != len(view):
        raise _malformed("length fields disagree with the body", expected_bytes=expected, actual_bytes=len(view))
    try:
        meta = json.loads(bytes(view[start : start + meta_length]))
    except (ValueError, RecursionError) as error:
        raise _malformed(f"metadata is not JSON: {error!r}") from error
    if not isinstance(meta, dict):
        raise _malformed("metadata is not a JSON object")
    sections, offset = [], start + meta_length
    for length in lengths:
        sections.append(view[offset : offset + length])
        offset += length
    return meta, sections


# -- field kinds ---------------------------------------------------------------------


class Kind(NamedTuple):
    """How one field crosses: ``encode(value, sections)`` gives its JSON value
    (appending any bulk bytes to ``sections``); ``decode(json_value,
    sections)`` inverts it, taking sections from an iterator in the same order."""

    encode: Callable[[object, list], object]
    decode: Callable[[object, Iterator[memoryview]], object]


def _take(sections: Iterator[memoryview]) -> memoryview:
    section = next(sections, None)
    if section is None:
        raise _malformed("metadata refers to a section the body does not hold")
    return section


def _check(value, types, what: str):
    # bool is an int to isinstance; a protocol that says "integer" means it.
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise _malformed(f"expected {what}, got {type(value).__name__}")
    return value


def scalar(types, what: str) -> Kind:
    """A JSON scalar of the given Python type(s), passed through unchanged."""
    return Kind(lambda value, _: value, lambda value, _: _check(value, types, what))


def optional(kind: Kind) -> Kind:
    """``kind`` or ``None`` (JSON ``null``, and no section)."""
    return Kind(
        lambda value, sections: None if value is None else kind.encode(value, sections),
        lambda value, sections: None if value is None else kind.decode(value, sections),
    )


def _decode_bytes(length, sections) -> bytes:
    section = _take(sections)
    if _check(length, int, "a byte count") != len(section):
        raise _malformed("byte count disagrees with its section", expected_bytes=length, actual_bytes=len(section))
    return bytes(section)


def _encode_bytes(value, sections) -> int:
    sections.append(value)
    return len(value)


def _decode_int_map(value, _) -> Dict[int, int]:
    decoded = {}
    for key, item in _check(value, dict, "an object").items():
        if not key.removeprefix("-").isdecimal():
            raise _malformed(f"non-integer key {key!r}")
        decoded[int(key)] = _check(item, int, "an integer")
    return decoded


def _decode_layout(value, _=None) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    entries = []
    for entry in _check(value, list, "a layout list"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise _malformed("a layout entry is [name, shape]")
        name, shape = _check(entry[0], str, "a tensor name"), _check(entry[1], list, "a shape list")
        # What NumPy can reshape to: a bounded rank, and a volume (zero
        # dimensions counted as one) that fits a signed 64-bit byte count.
        volume = 1
        for dim in shape:
            if _check(dim, int, "an integer dimension") < 0:
                raise _malformed(f"negative dimension in the shape of {name!r}")
            volume *= max(dim, 1)
        if len(shape) > _MAX_RANK or volume > _MAX_VOLUME:
            raise _malformed(f"the shape of {name!r} is larger than any array")
        entries.append((name, tuple(shape)))
    return tuple(entries)


def _layout_size(entries) -> int:
    """Values a layout holds, in Python integers (no overflow, no allocation)."""
    return sum(math.prod(shape) for _, shape in entries)


def _encode_layout(entries, _=None) -> list:
    return [[name, list(shape)] for name, shape in entries]


def _encode_state(state, sections) -> list:
    flat = as_flat_state(state)
    sections.append(flat.vector.astype(_WIRE_FLOAT, copy=False))
    return _encode_layout(flat.layout.entries)


def _decode_state(value, sections) -> FlatState:
    entries, section = _decode_layout(value), _take(sections)
    expected = _layout_size(entries) * _WIRE_FLOAT.itemsize
    if expected != len(section):
        raise _malformed("layout disagrees with its buffer", expected_bytes=expected, actual_bytes=len(section))
    try:
        layout = StateLayout.of(entries)
    except ValueError as error:  # duplicate names
        raise _malformed(str(error)) from error
    # astype copies: the state is writable and owns its buffer, not the frame's.
    return FlatState(layout, np.frombuffer(section, dtype=_WIRE_FLOAT).astype(np.float64))


INT = scalar(int, "an integer")
NUMBER = scalar((int, float), "a number")
STR = scalar(str, "a string")
BOOL = scalar(bool, "a boolean")
#: Any JSON object, passed through (RNG states, run fingerprints).
OBJECT = scalar(dict, "an object")
#: Opaque bytes: the byte count in the metadata, the bytes in a section.
BYTES = Kind(_encode_bytes, _decode_bytes)
INT_TUPLE = Kind(
    lambda value, _: list(value),
    lambda value, _: tuple(_check(item, int, "an integer") for item in _check(value, list, "a list")),
)
#: ``{int: int}`` (JSON keys are strings; both sides see integers).
INT_MAP = Kind(lambda value, _: {str(key): item for key, item in value.items()}, _decode_int_map)
LAYOUT = Kind(_encode_layout, _decode_layout)
#: A model state: its ``(name, shape)`` layout, and its one float64 buffer as a section.
STATE = Kind(_encode_state, _decode_state)


class Schema:
    """One envelope type: a factory and its fields, each of a :class:`Kind`.

    ``pack(obj)`` reads the fields off ``obj`` (attributes, or keys of a
    mapping) and returns the envelope; ``unpack(body)`` checks that the
    metadata holds exactly the declared fields and that every section was
    claimed, and calls ``factory(**fields)``.  ``schema.kind`` nests it as a
    field of another schema.
    """

    def __init__(self, factory: Callable[..., object], **fields: Kind):
        self.factory = factory
        self.fields = fields
        self.kind = Kind(self.encode, self.decode)

    def encode(self, obj, sections: list) -> Dict[str, object]:
        values = obj if isinstance(obj, Mapping) else vars(obj)
        return {name: kind.encode(values[name], sections) for name, kind in self.fields.items()}

    def decode(self, meta, sections: Iterator[memoryview]):
        if not isinstance(meta, dict) or meta.keys() != self.fields.keys():
            raise _malformed(f"fields do not match the schema {sorted(self.fields)}")
        values = {name: kind.decode(meta[name], sections) for name, kind in self.fields.items()}
        try:
            return self.factory(**values)
        except (TypeError, ValueError) as error:
            raise _malformed(f"{getattr(self.factory, '__name__', 'factory')} rejects its fields: {error}") from error

    def pack(self, obj) -> bytes:
        sections: list = []
        return pack_envelope(self.encode(obj, sections), sections)

    def unpack(self, body):
        meta, sections = unpack_envelope(body)
        remaining = iter(sections)
        value = self.decode(meta, remaining)
        if next(remaining, None) is not None:
            raise _malformed("the body holds a section no field refers to")
        return value


def _build_codec(name: str, parameters: dict) -> Codec:
    if name not in CODECS:
        raise ValueError(f"unknown codec {name!r}")
    return CODECS[name](**parameters)


#: A codec: registry name + constructor parameters, rebuilt through ``CODECS``.
CODEC = Kind(
    lambda codec, _: {"name": codec.name, "parameters": codec.parameters()},
    Schema(_build_codec, name=STR, parameters=OBJECT).decode,
)
PAYLOAD = Schema(Payload, codec=STR, data=BYTES, schema=LAYOUT, crc=optional(INT)).kind
WIRE_TASK = Schema(
    WireTask, payload=PAYLOAD, down_codec=CODEC, up_codec=optional(CODEC), delta_upload=BOOL
).kind


# -- state carriers --------------------------------------------------------------------


def _carrier(state, wire):
    if (state is None) == (wire is None):
        raise ValueError("a carrier is exactly one of a state or a wire task")
    return wire if wire is not None else state


_CARRIER = Schema(_carrier, state=optional(STATE), wire=optional(WIRE_TASK))


def encode_carrier(carrier) -> bytes:
    """A task's starting model — a raw state or a :class:`WireTask` — as bytes.

    The one encoder of every transport that leaves the process (pool pipe,
    socket, journal); bit-exact: ``decode_carrier(encode_carrier(c))`` holds
    the same float64 values, the same payload bytes and equal codecs.
    """
    if isinstance(carrier, WireTask):
        return _CARRIER.pack({"state": None, "wire": carrier})
    return _CARRIER.pack({"state": carrier, "wire": None})


def decode_carrier(blob):
    """Invert :func:`encode_carrier`: a writable :class:`FlatState` or a :class:`WireTask`."""
    return _CARRIER.unpack(blob)


__all__ = [
    "BOOL",
    "BYTES",
    "CODEC",
    "ENVELOPE_VERSION",
    "INT",
    "INT_MAP",
    "INT_TUPLE",
    "Kind",
    "LAYOUT",
    "MAX_META_BYTES",
    "NUMBER",
    "OBJECT",
    "PAYLOAD",
    "STATE",
    "STR",
    "Schema",
    "WIRE_TASK",
    "decode_carrier",
    "encode_carrier",
    "optional",
    "pack_envelope",
    "unpack_envelope",
    "scalar",
]
