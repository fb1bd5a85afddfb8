"""The transport channel: every broadcast and upload passes through here.

A :class:`Channel` wraps an uplink :class:`~repro.fl.transport.codecs.Codec`
(and optionally a different downlink codec) and owns the *measured*
communication accounting of one training run:

broadcast (server → client)
    The server-side state is encoded once per distinct state object, the
    payload bytes are logged per receiving client, and the client trains
    from the **decoded** payload — exactly what it would reconstruct on the
    wire.  The decoded state is remembered as the per-client *reference*
    for this round's upload.

upload (client → server)
    The client's new state is encoded (optionally as a *delta* against the
    reference it received, optionally with per-client *error feedback*),
    the payload bytes are logged, and the server aggregates the decoded
    reconstruction.

Delta upload (``delta_upload=True``) encodes ``new_state - reference``; the
server adds the decoded delta back onto the reference it knows it sent.
Updates are far more compressible than raw states (they concentrate around
zero), which is where quantization and sparsification earn their keep.

Error feedback (``error_feedback=True``) keeps a per-client residual of
everything the codec dropped and adds it back into the next round's upload
before encoding — the classic fix that lets aggressive sparsification
converge.

Backend hand-off
----------------
:meth:`Channel.broadcast` returns one picklable :class:`WireTask` per
client; execution backends decode it where the client computation runs (in
the joiner process for the ``process`` and ``wire`` backends, so only
compressed payloads cross the process boundary).  In any one process a
broadcast is decoded once: the channel's decode of a delta reference is also
the start state of every serial and thread-pool task that carries the
envelope, and without delta uploads the first such task decodes it
(:meth:`WireTask.start_state`).  That shared state is read-only; a joiner
decodes the envelope it receives once for all the clients it hosts.  When
the channel needs no server-side state for the upload (no error feedback),
the wire task also instructs the backend to encode the upload where the
task runs, so the return trip is compressed too; with error feedback,
joiners return raw states and the channel encodes in the coordinating
process (the residual lives there).  Both paths apply identical float operations, so serial and
process execution stay bit-identical under every codec.

Every state the channel touches is backed by the flat-buffer engine of
:mod:`repro.fl.parameters`: codec decodes hand back
:class:`~repro.fl.parameters.FlatState` views over one contiguous vector,
so delta encoding, error-feedback residual folds, and reference updates are
single whole-model vector operations rather than per-name dict loops (and
bit-identical to them).  A delta upload's reconstruction is added into the
freshly decoded delta's own buffer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    filter_state,
    flat_pair,
    merge_partition,
    zeros_like_state,
)
from repro.fl.privacy import apply_update, state_update
from repro.fl.transport.codecs import (
    Codec,
    IdentityCodec,
    Payload,
    QuantizationCodec,
    TopKCodec,
)
from repro.utils.validation import check_choice, check_in_range


#: Serialises the first decode of a wire task shared by pool threads.
_DECODE_LOCK = threading.Lock()


@dataclass
class WireTask:
    """The transport envelope one client task carries across a backend.

    ``payload`` is the encoded downlink state; ``down_codec`` decodes it
    where the task runs.  When ``up_codec`` is set, the backend encodes the
    task's resulting state before returning it (as a delta against the
    decoded downlink state when ``delta_upload`` is set); when ``None``,
    the raw state comes back and the channel finishes the upload itself.

    ``decoded`` is the decoded downlink state, set once per process (by
    :meth:`Channel.broadcast` or the first :meth:`start_state` call) and
    shared read-only by every task that carries this envelope.  It is not
    part of the envelope schema: a joiner that receives the envelope
    decodes the payload again.
    """

    payload: Payload
    down_codec: Codec
    up_codec: Optional[Codec] = None
    delta_upload: bool = False
    decoded: Optional[FlatState] = field(default=None, compare=False, repr=False)

    def start_state(self) -> FlatState:
        """The decoded downlink state; writing into it raises ``ValueError``."""
        if self.decoded is None:
            with _DECODE_LOCK:
                if self.decoded is None:
                    decoded = self.down_codec.decode(self.payload)
                    # Views made from a read-only buffer are read-only too.
                    decoded.vector.setflags(write=False)
                    self.decoded = FlatState(decoded.layout, decoded.vector)
        return self.decoded


@dataclass(frozen=True)
class ChannelSummary:
    """Measured communication of one training run through a channel."""

    uplink_codec: str
    downlink_codec: str
    delta_upload: bool
    error_feedback: bool
    rounds: int
    total_uplink_bytes: int
    total_downlink_bytes: int
    uplink_bytes_per_round: Dict[int, int] = field(default_factory=dict)
    downlink_bytes_per_round: Dict[int, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.total_uplink_bytes + self.total_downlink_bytes

    def to_dict(self) -> Dict[str, object]:
        return {
            "uplink_codec": self.uplink_codec,
            "downlink_codec": self.downlink_codec,
            "delta_upload": self.delta_upload,
            "error_feedback": self.error_feedback,
            "rounds": self.rounds,
            "total_uplink_bytes": self.total_uplink_bytes,
            "total_downlink_bytes": self.total_downlink_bytes,
            "total_bytes": self.total_bytes,
            "uplink_bytes_per_round": dict(self.uplink_bytes_per_round),
            "downlink_bytes_per_round": dict(self.downlink_bytes_per_round),
        }


def _reconstruct(reference: State, decoded: FlatState) -> FlatState:
    """``reference + decoded`` (:func:`~repro.fl.privacy.apply_update`'s bits),
    written into the freshly decoded delta's buffer."""
    layout, reference_vector, update_vector = flat_pair(reference, decoded)
    np.add(reference_vector, update_vector, out=update_vector)
    return FlatState(layout, update_vector)


class Channel:
    """Transport for one training run: codecs + measured byte accounting.

    A channel is stateful (per-client references, error-feedback residuals,
    a round counter, and the measured payload bytes per round), so use one
    fresh channel per algorithm run.
    """

    def __init__(
        self,
        codec: Codec,
        downlink_codec: Optional[Codec] = None,
        delta_upload: bool = False,
        error_feedback: bool = False,
    ):
        self.uplink_codec = codec
        self.downlink_codec = downlink_codec if downlink_codec is not None else codec
        self.delta_upload = bool(delta_upload)
        self.error_feedback = bool(error_feedback)
        # Measured payload bytes per round index, one total per direction.
        self._uplink_bytes: Dict[int, int] = {}
        self._downlink_bytes: Dict[int, int] = {}
        self._references: Dict[int, State] = {}
        self._residuals: Dict[int, State] = {}
        self._round = -1

    @property
    def round_index(self) -> int:
        """Index of the current communication round (-1 before any broadcast)."""
        return self._round

    # -- downlink --------------------------------------------------------------
    def broadcast(
        self,
        states: Sequence[State],
        client_ids: Sequence[int],
        expect_upload: bool = True,
        partial_upload: bool = False,
    ) -> List[WireTask]:
        """Encode one round's downlink, one state per client.

        ``states[i]`` goes to ``client_ids[i]``; a state object shared by
        several clients is encoded once (and its wire task shared), but its
        payload bytes are logged once per receiving client — every client
        receives its own copy over the wire.  Returns the per-client wire
        tasks for the execution backend.

        ``partial_upload`` announces that this round's uploads will ship
        only a subset of the state (see :meth:`receive`'s ``upload_names``);
        backend-side upload encoding is disabled so the raw state — with
        its never-communicated private part intact — returns to the
        coordinating process.
        """
        if len(states) != len(client_ids):
            raise ValueError(f"got {len(states)} states for {len(client_ids)} clients")
        self._round += 1
        encode_at_backend = expect_upload and not self.error_feedback and not partial_upload
        up_codec = self.uplink_codec if encode_at_backend else None
        # Delta uploads need the server-side copy of what each client decoded
        # (the reference the delta is applied back onto).  That one decode is
        # also the task's start state in this process; without delta uploads
        # the first in-process task decodes it (WireTask.start_state).
        keep_references = self.delta_upload
        tasks_by_state: Dict[int, WireTask] = {}
        wire_tasks: List[WireTask] = []
        for state, client_id in zip(states, client_ids):
            key = id(state)
            if key not in tasks_by_state:
                tasks_by_state[key] = WireTask(
                    payload=self.downlink_codec.encode(state),
                    down_codec=self.downlink_codec,
                    up_codec=up_codec,
                    delta_upload=self.delta_upload,
                )
            task = tasks_by_state[key]
            self._bill(self._downlink_bytes, task.payload.num_bytes)
            if keep_references:
                self._references[int(client_id)] = task.start_state()
            wire_tasks.append(task)
        return wire_tasks

    # -- uplink ----------------------------------------------------------------
    def receive(
        self,
        client_id: int,
        state: Optional[State] = None,
        payload: Optional[Payload] = None,
        upload_names: Optional[Sequence[str]] = None,
    ) -> State:
        """Finish one client's upload; returns the server-side reconstruction.

        Exactly one of ``state`` (raw, the channel encodes here — required
        for error feedback and partial uploads) or ``payload`` (already
        encoded at the backend) must be given.  Must follow a
        :meth:`broadcast` that delivered this round's reference to
        ``client_id``.

        ``upload_names`` restricts the upload to a subset of the state's
        entries (FedBN / FedProx-LG ship only their shared part): only
        those entries are encoded and billed, and the returned state keeps
        the client's raw private entries untouched, overlaid with the wire
        reconstruction of the shared ones.  An algorithm must use a
        consistent ``upload_names`` across rounds (error-feedback residuals
        are keyed per client and shaped like the uploaded part).
        """
        client_id = int(client_id)
        if (state is None) == (payload is None):
            raise ValueError("pass exactly one of state= or payload=")
        reference = self._references.get(client_id)
        if self.delta_upload and reference is None:
            raise RuntimeError(
                f"delta upload from client {client_id} without a broadcast reference; "
                "Channel.broadcast must precede Channel.receive each round"
            )

        if payload is not None:
            if upload_names is not None:
                raise ValueError(
                    "upload_names requires the raw state; announce the partial upload "
                    "via Channel.broadcast(partial_upload=True) so the backend returns it"
                )
            self._bill(self._uplink_bytes, payload.num_bytes)
            decoded = self.uplink_codec.decode(payload)
            return _reconstruct(reference, decoded) if self.delta_upload else decoded

        if upload_names is None:
            shared = state
            shared_reference = reference
        else:
            upload_names = list(upload_names)
            shared = filter_state(state, upload_names)
            shared_reference = (
                filter_state(reference, upload_names) if self.delta_upload else None
            )

        target = state_update(shared_reference, shared) if self.delta_upload else shared
        if self.error_feedback:
            residual = self._residuals.get(client_id)
            if residual is None:
                residual = zeros_like_state(target)
            target = apply_update(target, residual)
        encoded = self.uplink_codec.encode(target)
        self._bill(self._uplink_bytes, encoded.num_bytes)
        decoded = self.uplink_codec.decode(encoded)
        if self.error_feedback:
            self._residuals[client_id] = state_update(decoded, target)
        reconstructed = (
            _reconstruct(shared_reference, decoded) if self.delta_upload else decoded
        )
        if upload_names is None:
            return reconstructed
        return merge_partition(state, reconstructed, upload_names)

    # -- introspection ----------------------------------------------------------
    def _bill(self, totals: Dict[int, int], num_bytes: int) -> None:
        """Add one payload's bytes to this round's total in ``totals``."""
        totals[self._round] = totals.get(self._round, 0) + num_bytes

    def summary(self) -> ChannelSummary:
        """Measured totals and per-round breakdowns of this run so far."""
        return ChannelSummary(
            uplink_codec=self.uplink_codec.describe(),
            downlink_codec=self.downlink_codec.describe(),
            delta_upload=self.delta_upload,
            error_feedback=self.error_feedback,
            rounds=self._round + 1,
            total_uplink_bytes=sum(self._uplink_bytes.values()),
            total_downlink_bytes=sum(self._downlink_bytes.values()),
            uplink_bytes_per_round=dict(self._uplink_bytes),
            downlink_bytes_per_round=dict(self._downlink_bytes),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel(uplink={self.uplink_codec.describe()}, "
            f"downlink={self.downlink_codec.describe()}, "
            f"delta={self.delta_upload}, error_feedback={self.error_feedback})"
        )


#: Compression settings understood by :func:`create_channel` (and the CLI).
COMPRESSION_CHOICES: Tuple[str, ...] = ("none", "float32", "float16", "quantize", "topk")


@dataclass(frozen=True)
class TransportOptions:
    """The wire-codec options of a run, each declared once.

    A field is the option: its name is the ``with_transport`` keyword and
    (dashed) the ``repro reproduce`` flag, its metadata the flag's help and
    choices, and ``__post_init__`` its range.  :func:`create_channel` takes
    the three fields and tabulates the settings; ``compression=None`` is no
    channel at all (raw in-process states, nothing measured).
    """

    compression: Optional[str] = field(default=None, metadata={
        "choices": COMPRESSION_CHOICES,
        "help": "route every broadcast/upload through a wire codec and report "
        "measured bytes: none (bit-exact float64 identity), float32/float16 "
        "(cast), quantize (packed uniform quantization + DEFLATE, delta "
        "uploads), topk (sparsified delta uploads with error feedback)",
    })
    compression_bits: int = field(default=8, metadata={
        "help": "bits per value for --compression quantize (1-16, default 8)",
    })
    topk_fraction: float = field(default=0.1, metadata={
        "help": "fraction of entries kept by --compression topk (default 0.1)",
    })

    def __post_init__(self):
        check_choice("compression", self.compression, (None, *COMPRESSION_CHOICES))
        check_in_range("compression_bits", self.compression_bits, 1, 16)
        check_in_range("topk_fraction", self.topk_fraction, 0.0, 1.0, "(]")


def create_channel(
    compression: Optional[str],
    compression_bits: int = 8,
    topk_fraction: float = 0.1,
) -> Optional[Channel]:
    """Build the transport channel for a compression setting.

    ``None`` disables the transport layer entirely (raw in-process states,
    the pre-transport behavior, no measured accounting).  The named
    settings map to:

    ======================  ====================================================
    setting                 channel
    ======================  ====================================================
    ``none``                identity float64 both ways (bit-exact, measured)
    ``float32``/``float16`` identity cast both ways
    ``quantize``            ``compression_bits``-bit quantization + DEFLATE both
                            ways, delta-encoded uploads
    ``topk``                top-``topk_fraction`` sparsified, delta-encoded
                            uploads with error feedback; float64 identity
                            downlink (sparsifying a full model is meaningless)
    ======================  ====================================================
    """
    if compression is None:
        return None
    key = compression.lower()
    if key == "none":
        return Channel(IdentityCodec("float64"))
    if key == "float32":
        return Channel(IdentityCodec("float32"))
    if key == "float16":
        return Channel(IdentityCodec("float16"))
    if key == "quantize":
        return Channel(
            QuantizationCodec(num_bits=compression_bits, deflate=True),
            delta_upload=True,
        )
    if key == "topk":
        return Channel(
            TopKCodec(keep_fraction=topk_fraction, value_dtype="float32"),
            downlink_codec=IdentityCodec("float64"),
            delta_upload=True,
            error_feedback=True,
        )
    raise ValueError(
        f"unknown compression {compression!r}; available: {COMPRESSION_CHOICES}"
    )
