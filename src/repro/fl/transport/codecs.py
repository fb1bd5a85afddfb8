"""Wire-level codecs: how a model state becomes bytes (and comes back).

The decentralized setting is costed in bytes per round, so compression must
be measured on *real payloads*, not estimated.  A :class:`Codec` turns a
:data:`~repro.fl.parameters.State` into a :class:`Payload` — one contiguous
byte string plus the static tensor schema — and back:

:class:`IdentityCodec`
    Ships every value verbatim at a chosen float precision.  At ``float64``
    the encode → decode round trip is **bit-exact** (the pipeline dtype);
    ``float32``/``float16`` are lossy casts.
:class:`QuantizationCodec`
    Uniform per-tensor quantization: each tensor ships its ``float64``
    min/max followed by ``num_bits``-wide codes packed into bytes.  An
    optional DEFLATE stage losslessly compresses the packed stream
    (effective on the concentrated code distributions of delta-encoded
    uploads).
:class:`TopKCodec`
    Magnitude top-k sparsification with **exact, deterministic** selection:
    a stable sort keeps precisely ``k`` entries, breaking magnitude ties in
    favor of the lower flat index.  The payload is a ``uint32`` count, the
    sorted ``uint32`` indices, and the surviving values at ``value_dtype``.

Byte accounting
---------------
``Payload.num_bytes`` is ``len(payload.data)`` — every dynamic quantity
(values, codes, scales, indices, counts) lives inside ``data`` and is
counted.  Only the static tensor schema (names and shapes, knowable to both
endpoints from the model architecture) rides outside the byte count, the
way a real protocol would negotiate it once per session.

All codecs are deterministic (same state → same bytes) and stateless, and
each is fully described by its registry name plus :meth:`Codec.parameters`,
which is how payloads and codecs cross process and socket boundaries
(:mod:`repro.fl.transport.envelope`).

Flat buffers
------------
``encode`` packs what it is given once (:func:`~repro.fl.parameters.as_flat_state`,
a pass-through for a flat state) and reads the wire's sorted name order
straight off the buffer, and every ``decode`` returns a
:class:`~repro.fl.parameters.FlatState` built directly over one contiguous
buffer.  The identity and top-k codecs read a sorted vector (zero-copy when
the layout already is sorted, the case for every codec-decoded state).
:class:`QuantizationCodec` makes no state-sized temporary either way: it
reads each tensor at its own offset in sorted name order, computes its
codes in one work buffer reused for every tensor, casts 8- and 16-bit
codes straight into the one preallocated stream, and decodes each tensor
in place into the output buffer from a view of its codes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    StateLayout,
    as_flat_state,
    sorted_state_vector,
)
from repro.fl.transport.errors import TransportDecodeError

#: Static per-tensor schema entry: (name, shape).
TensorSpec = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True)
class Payload:
    """One encoded model state: a contiguous byte string plus its schema.

    ``data`` holds everything dynamic; ``schema`` is the static tensor
    layout (sorted name order) that both endpoints know from the model
    architecture and is therefore excluded from the byte count.

    ``crc`` is the CRC-32 of ``data``, computed at construction unless the
    caller supplies one (fault injection passes the *original* CRC next to
    flipped bytes so corruption is detected through the genuine framing
    check).  Like the schema, the 4-byte CRC is framing metadata a real
    protocol would carry in its envelope; it is not part of ``num_bytes``.
    """

    codec: str
    data: bytes
    schema: Tuple[TensorSpec, ...]
    crc: Optional[int] = None

    def __post_init__(self) -> None:
        if self.crc is None:
            object.__setattr__(self, "crc", zlib.crc32(self.data))

    @property
    def num_bytes(self) -> int:
        """Measured wire cost of this payload."""
        return len(self.data)


def _schema_sizes(schema: Tuple[TensorSpec, ...]) -> List[int]:
    """Per-tensor value counts of a schema."""
    return [int(np.prod(shape, dtype=np.int64)) if shape else 1 for _, shape in schema]


def _state_from_flat(flat: np.ndarray, schema: Tuple[TensorSpec, ...]) -> State:
    """A decoded state over one owned float64 buffer (zero-copy views)."""
    return FlatState(StateLayout.of(schema), flat)


#: Byte-aligned code widths and the dtype their codes are cast to on the wire
#: (big-endian, so the bytes equal the MSB-first bit packing).
_BYTE_CODES = {8: np.dtype(np.uint8), 16: np.dtype(">u2")}


def _pack_codes(codes: np.ndarray, num_bits: int) -> bytes:
    """Pack non-negative integer codes (< 2**num_bits) MSB first at num_bits per value.

    Only for the widths :data:`_BYTE_CODES` does not cover; those are cast
    straight into the stream.
    """
    values = codes.astype(np.int64)
    shifts = np.arange(num_bits - 1, -1, -1, dtype=np.int64)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def _unpack_codes(data: bytes, num_bits: int, count: int) -> np.ndarray:
    """Invert :func:`_pack_codes`; returns int64 codes of length ``count``."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[: count * num_bits]
    weights = np.left_shift(1, np.arange(num_bits - 1, -1, -1, dtype=np.int64))
    return bits.reshape(count, num_bits).astype(np.int64) @ weights


def packed_code_bytes(count: int, num_bits: int) -> int:
    """Bytes occupied by ``count`` codes packed at ``num_bits`` per value."""
    return int(np.ceil(count * num_bits / 8))


def topk_flat_indices(flat: np.ndarray, keep: int) -> np.ndarray:
    """The flat indices of the ``keep`` largest-magnitude entries, exactly.

    Selection is deterministic and breaks magnitude ties in favor of the
    lower flat index, so exactly ``keep`` entries survive regardless of
    duplicated magnitudes — the same set a stable sort on descending
    magnitude selects.  Implemented with ``argpartition`` plus explicit
    tie handling at the threshold magnitude (O(P + k log k), not the full
    O(P log P) sort).  Returned indices are sorted ascending (the wire
    order).
    """
    keep = int(keep)
    if keep >= flat.size:
        return np.arange(flat.size, dtype=np.int64)
    magnitude = np.abs(flat)
    if np.isnan(magnitude).any():
        # NaNs poison the partition threshold (min of a set containing NaN
        # is NaN, every comparison against it is False).  The stable sort
        # ranks NaNs last, i.e. keeps the top-k finite entries — preserve
        # that behavior on this cold path.
        order = np.argsort(-magnitude, kind="stable")
        return np.sort(order[:keep]).astype(np.int64)
    # The k-th largest magnitude is the selection threshold; everything
    # strictly above it survives, and ties exactly at it are admitted in
    # ascending index order (``flatnonzero`` returns ascending indices).
    partition = np.argpartition(magnitude, flat.size - keep)[flat.size - keep :]
    threshold = magnitude[partition].min()
    above = np.flatnonzero(magnitude > threshold)
    at_threshold = np.flatnonzero(magnitude == threshold)[: keep - above.size]
    return np.sort(np.concatenate([above, at_threshold])).astype(np.int64)


class Codec:
    """Interface every wire codec implements.

    ``encode`` must be deterministic; ``decode(encode(state))`` returns
    float64 arrays owned by the caller.  ``lossless`` advertises whether the
    round trip is bit-exact.
    """

    #: Registry / display name, overridden by subclasses.
    name: str = "base"
    #: Whether decode(encode(state)) is bit-exact.
    lossless: bool = False

    def encode(self, state: State) -> Payload:
        raise NotImplementedError

    def decode(self, payload: Payload) -> State:
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable label used in reports (e.g. ``quantize-8b``)."""
        return self.name

    def parameters(self) -> Dict[str, object]:
        """The constructor keywords that rebuild this codec: JSON values only,
        so a codec crosses a boundary as ``CODECS[name](**parameters)``."""
        return {}

    def _check_payload(self, payload: Payload) -> None:
        if payload.codec != self.name:
            raise ValueError(
                f"payload was encoded by codec {payload.codec!r}, "
                f"but decode was called on {self.name!r}"
            )
        if payload.crc is not None and zlib.crc32(payload.data) != payload.crc:
            raise TransportDecodeError(
                self.name,
                actual_bytes=len(payload.data),
                reason="crc mismatch",
            )

    def _inflate(self, data: bytes) -> bytes:
        """DEFLATE-decompress ``data`` with a typed error on corruption."""
        try:
            return zlib.decompress(data)
        except zlib.error as error:
            raise TransportDecodeError(
                self.name, actual_bytes=len(data), reason=f"deflate: {error}"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}({self.describe()!r})"


class IdentityCodec(Codec):
    """Ships every value verbatim at a chosen float precision.

    ``float64`` is bit-exact (the pipeline's native dtype); ``float32`` and
    ``float16`` round each value to the nearest representable float of that
    width.  Decoded arrays are always float64 (the values of the cast).
    """

    name = "identity"

    def __init__(self, dtype: str = "float64"):
        wire_dtype = np.dtype(dtype)
        if wire_dtype not in (np.dtype("float64"), np.dtype("float32"), np.dtype("float16")):
            raise ValueError(f"identity codec dtype must be a float type, got {dtype!r}")
        self.dtype = wire_dtype
        self.lossless = wire_dtype == np.dtype("float64")

    def describe(self) -> str:
        return f"identity-{self.dtype.name}"

    def parameters(self) -> Dict[str, object]:
        return {"dtype": self.dtype.name}

    def encode(self, state: State) -> Payload:
        state = as_flat_state(state)
        flat = sorted_state_vector(state)
        # One cast over the contiguous buffer.
        data = flat.tobytes() if self.dtype == np.dtype("float64") else flat.astype(self.dtype).tobytes()
        return Payload(codec=self.name, data=data, schema=state.layout.sorted_schema())

    def decode(self, payload: Payload) -> State:
        self._check_payload(payload)
        total = sum(_schema_sizes(payload.schema))
        expected = total * self.dtype.itemsize
        if len(payload.data) < expected:
            raise TransportDecodeError(
                self.name,
                expected_bytes=expected,
                actual_bytes=len(payload.data),
                reason="truncated",
            )
        raw = np.frombuffer(payload.data, dtype=self.dtype, count=total)
        return _state_from_flat(raw.astype(np.float64), payload.schema)


class QuantizationCodec(Codec):
    """Uniform per-tensor quantization with real packed payloads.

    Per tensor (sorted name order) the stream holds the float64 ``low`` and
    ``high`` followed by ``num_bits``-wide codes packed into bytes; a tensor
    whose values are all equal ships scales only, and an empty tensor ships
    scales ``(0.0, 0.0)``.  Encoding evaluates
    ``round((x - low) / span * levels)``, decoding
    ``low + codes / levels * span``.

    ``deflate=True`` adds a lossless DEFLATE stage over the whole stream;
    the measured payload is the compressed size.
    """

    name = "quantize"

    def __init__(self, num_bits: int = 8, deflate: bool = True):
        if not 1 <= int(num_bits) <= 16:
            raise ValueError("num_bits must be between 1 and 16")
        self.num_bits = int(num_bits)
        self.deflate = bool(deflate)

    @property
    def levels(self) -> int:
        return 2**self.num_bits - 1

    def describe(self) -> str:
        suffix = "+deflate" if self.deflate else ""
        return f"quantize-{self.num_bits}b{suffix}"

    def parameters(self) -> Dict[str, object]:
        return {"num_bits": self.num_bits, "deflate": self.deflate}

    def encode(self, state: State) -> Payload:
        state = as_flat_state(state)
        layout, vector = state.layout, state.vector
        schema = layout.sorted_schema()
        # Each tensor is read where it lies, in sorted name order: no gather
        # of a model-order state into wire order.
        slots = dict(zip(layout.names, zip(layout.offsets, layout.sizes)))
        segments = [vector[offset : offset + size] for offset, size in (slots[name] for name, _ in schema)]
        # The scales first, so the stream is allocated once at its final
        # length.  An empty tensor ships (0.0, 0.0) and no codes.
        scales = [(segment.min(), segment.max()) if segment.size else (0.0, 0.0) for segment in segments]
        stream = bytearray(
            sum(
                16 + (packed_code_bytes(segment.size, self.num_bits) if high - low != 0.0 else 0)
                for segment, (low, high) in zip(segments, scales)
            )
        )
        code_dtype = _BYTE_CODES.get(self.num_bits)
        work = np.empty(max((segment.size for segment in segments), default=0), dtype=np.float64)
        position = 0
        for segment, (low, high) in zip(segments, scales):
            struct.pack_into("<dd", stream, position, low, high)
            position += 16
            span = high - low
            if span == 0.0:
                continue
            # round((x - low) / span * levels), one tensor at a time in one
            # reused buffer.
            codes = work[: segment.size]
            np.subtract(segment, low, out=codes)
            np.divide(codes, span, out=codes)
            np.multiply(codes, self.levels, out=codes)
            np.round(codes, out=codes)
            nbytes = packed_code_bytes(segment.size, self.num_bits)
            if code_dtype is None:
                stream[position : position + nbytes] = _pack_codes(codes, self.num_bits)
            else:
                target = np.frombuffer(stream, dtype=code_dtype, count=segment.size, offset=position)
                np.copyto(target, codes, casting="unsafe")
            position += nbytes
        data = zlib.compress(stream, 6) if self.deflate else bytes(stream)
        return Payload(codec=self.name, data=data, schema=schema)

    def decode(self, payload: Payload) -> State:
        self._check_payload(payload)
        data = self._inflate(payload.data) if self.deflate else payload.data
        code_dtype = _BYTE_CODES.get(self.num_bits)
        sizes = _schema_sizes(payload.schema)
        flat = np.empty(sum(sizes), dtype=np.float64)
        offset = 0
        position = 0
        for size in sizes:
            if offset + 16 > len(data):
                raise TransportDecodeError(
                    self.name,
                    expected_bytes=offset + 16,
                    actual_bytes=len(data),
                    reason="truncated scales",
                )
            low, high = struct.unpack_from("<dd", data, offset)
            offset += 16
            span = high - low
            segment = flat[position : position + size]
            position += size
            if span == 0.0:
                segment[:] = low
                continue
            nbytes = packed_code_bytes(size, self.num_bits)
            if offset + nbytes > len(data):
                raise TransportDecodeError(
                    self.name,
                    expected_bytes=offset + nbytes,
                    actual_bytes=len(data),
                    reason="truncated codes",
                )
            if code_dtype is None:
                codes = _unpack_codes(data[offset : offset + nbytes], self.num_bits, size)
            else:
                codes = np.frombuffer(data, dtype=code_dtype, count=size, offset=offset)
            offset += nbytes
            # low + codes / levels * span, in place in the output.
            np.divide(codes, self.levels, out=segment)
            np.multiply(segment, span, out=segment)
            np.add(segment, low, out=segment)
        return _state_from_flat(flat, payload.schema)


class TopKCodec(Codec):
    """Magnitude top-k sparsification with exact, deterministic selection.

    The state is flattened in sorted name order; exactly
    ``max(1, round(keep_fraction * total))`` entries survive (stable-sort
    tie-breaking on the lower flat index).  The payload is
    ``[uint32 count][uint32 indices ascending][values at value_dtype]``;
    everything else decodes to zero.  Designed for *updates* (deltas): pair
    it with a delta-encoding channel and error feedback.
    """

    name = "topk"

    def __init__(
        self,
        keep_fraction: float = 0.1,
        value_dtype: str = "float32",
        deflate: bool = False,
    ):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        wire_dtype = np.dtype(value_dtype)
        if wire_dtype not in (np.dtype("float64"), np.dtype("float32"), np.dtype("float16")):
            raise ValueError(f"topk value_dtype must be a float type, got {value_dtype!r}")
        self.keep_fraction = float(keep_fraction)
        self.value_dtype = wire_dtype
        self.deflate = bool(deflate)

    def describe(self) -> str:
        suffix = "+deflate" if self.deflate else ""
        return f"topk-{self.keep_fraction:g}-{self.value_dtype.name}{suffix}"

    def parameters(self) -> Dict[str, object]:
        return {
            "keep_fraction": self.keep_fraction,
            "value_dtype": self.value_dtype.name,
            "deflate": self.deflate,
        }

    def keep_count(self, total: int) -> int:
        """Exactly how many entries survive for a state of ``total`` values."""
        return max(int(round(total * self.keep_fraction)), 1)

    def encode(self, state: State) -> Payload:
        state = as_flat_state(state)
        flat = sorted_state_vector(state)
        keep = self.keep_count(flat.size)
        indices = topk_flat_indices(flat, keep)
        values = np.ascontiguousarray(flat[indices].astype(self.value_dtype))
        data = (
            struct.pack("<I", indices.size)
            + indices.astype(np.uint32).tobytes()
            + values.tobytes()
        )
        if self.deflate:
            data = zlib.compress(data, 6)
        return Payload(codec=self.name, data=data, schema=state.layout.sorted_schema())

    def decode(self, payload: Payload) -> State:
        self._check_payload(payload)
        data = self._inflate(payload.data) if self.deflate else payload.data
        if len(data) < 4:
            raise TransportDecodeError(
                self.name, expected_bytes=4, actual_bytes=len(data), reason="truncated header"
            )
        (count,) = struct.unpack_from("<I", data, 0)
        expected = 4 + count * (4 + self.value_dtype.itemsize)
        if len(data) < expected:
            raise TransportDecodeError(
                self.name,
                expected_bytes=expected,
                actual_bytes=len(data),
                reason="truncated",
            )
        indices = np.frombuffer(data, dtype=np.uint32, count=count, offset=4).astype(np.int64)
        values = np.frombuffer(
            data, dtype=self.value_dtype, count=count, offset=4 + 4 * count
        ).astype(np.float64)
        total = sum(_schema_sizes(payload.schema))
        if count and (indices.max() >= total or indices.min() < 0):
            raise TransportDecodeError(
                self.name,
                expected_bytes=expected,
                actual_bytes=len(data),
                reason="index out of range",
            )
        flat = np.zeros(total, dtype=np.float64)
        flat[indices] = values
        return _state_from_flat(flat, payload.schema)


#: Registry of wire codecs, keyed by their registry name.
CODECS: Dict[str, Type[Codec]] = {
    IdentityCodec.name: IdentityCodec,
    QuantizationCodec.name: QuantizationCodec,
    TopKCodec.name: TopKCodec,
}
