"""Wire-level federation runtime: framed protocol, server, joiner, backend.

The package splits along the classic transport stack:

======================  ========================================================
module                  layer
======================  ========================================================
:mod:`.framing`         length-prefixed, CRC-protected frame codec (sans-io)
:mod:`.messages`        typed message vocabulary, one envelope schema per message
:mod:`.journal`         self-compacting per-client task journals + state journal
:mod:`.faults`          seeded frame-level fault injection (chaos runs)
:mod:`.server`          asyncio federation server + supervised connection actors
:mod:`.client`          the joiner runtime (reconnect-with-resume)
:mod:`.backend`         the ``wire`` and ``process`` backends over all of it
:mod:`.errors`          the typed error hierarchy every layer raises
======================  ========================================================

Importing this package registers :class:`WireBackend` in the execution
backend registry under the name ``"wire"``, and :class:`ProcessPoolBackend`
(the wire backend serving forked local joiners) under ``"process"``.
"""

from repro.fl.execution.backend import BACKENDS
from repro.fl.net.backend import ProcessPoolBackend, WireBackend, WireOptions
from repro.fl.net.client import run_client
from repro.fl.net.errors import (
    FrameError,
    HandshakeError,
    JournalError,
    MessageDecodeError,
    SessionLost,
)
from repro.fl.net.faults import WIRE_FAULT_KINDS, WireFaultPlan
from repro.fl.net.framing import FrameReader, encode_frame
from repro.fl.net.journal import MessageJournal
from repro.fl.net.messages import PROTOCOL_VERSION
from repro.fl.net.server import NETWORK_COUNTER_KEYS, FederationServer, WireFailure

BACKENDS.setdefault(WireBackend.name, WireBackend)
BACKENDS.setdefault(ProcessPoolBackend.name, ProcessPoolBackend)

__all__ = [
    "FederationServer",
    "FrameError",
    "FrameReader",
    "HandshakeError",
    "JournalError",
    "MessageDecodeError",
    "MessageJournal",
    "NETWORK_COUNTER_KEYS",
    "PROTOCOL_VERSION",
    "ProcessPoolBackend",
    "SessionLost",
    "WIRE_FAULT_KINDS",
    "WireBackend",
    "WireFailure",
    "WireFaultPlan",
    "WireOptions",
    "encode_frame",
    "run_client",
]
