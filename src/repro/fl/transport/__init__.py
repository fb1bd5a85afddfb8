"""Wire-level transport: codecs, payloads, and the channel.

This subpackage turns communication from a side-calculation into a
first-class subsystem: a :class:`Codec` encodes a model state into a real
byte payload (and back), and a :class:`Channel` routes every broadcast and
upload of a training run through a codec while recording *measured* payload
bytes.  See :mod:`repro.fl.transport.codecs` for the wire formats and
:mod:`repro.fl.transport.channel` for delta-encoded uploads and error
feedback.
"""

from repro.fl.transport.codecs import (
    CODECS,
    Codec,
    IdentityCodec,
    Payload,
    QuantizationCodec,
    TopKCodec,
)
from repro.fl.transport.errors import TransportDecodeError
from repro.fl.transport.channel import (
    Channel,
    ChannelSummary,
    TransportOptions,
    WireTask,
    create_channel,
)

__all__ = [
    "CODECS",
    "Codec",
    "IdentityCodec",
    "QuantizationCodec",
    "TopKCodec",
    "Payload",
    "TransportDecodeError",
    "Channel",
    "ChannelSummary",
    "TransportOptions",
    "WireTask",
    "create_channel",
]
