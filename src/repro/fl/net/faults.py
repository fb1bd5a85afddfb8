"""Deterministic frame-level network fault injection.

The wire analogue of :class:`repro.fl.faults.FaultPlan`: every *task send*
on the server draws a seeded decision for the destination client, using the
same counter-based ``SeedSequence`` idiom (``[seed, tag, client key, draw
counter]``), so a chaos loopback run injects the identical drop/delay/
corruption sequence no matter how the event loop interleaves connections —
and heals to the identical final model.

Three fault kinds, all applied at the frame layer (below the message
vocabulary, above the socket):

``disconnect``
    The connection is closed instead of sending the frame.  The task is
    already journaled, so the client's reconnect replays it — the healing
    path the chaos tests pin down.
``delay``
    The send is withheld for a deterministic duration (straggling without
    the scheduler's virtual clock: this one is real wall time).
``corrupt``
    One byte of the encoded frame is flipped (salt-addressed, like the
    supervisor's payload corruption).  The peer's CRC check rejects the
    frame, the peer drops the connection, and replay heals it.
"""

from __future__ import annotations

from typing import Dict

from repro.fl.faults.plan import FaultDecision, FaultPlan

#: Domain-separation tag for wire fault draws (disjoint from the execution
#: fault plan's 0x4FA7 and every other seed stream in the project).
WIRE_FAULT_SEED_TAG = 0x37E1

#: Wire fault kinds in cumulative-threshold order.
WIRE_FAULT_KINDS = ("disconnect", "delay", "corrupt")


class WireFaultPlan(FaultPlan):
    """Seeded per-client frame fault probabilities.

    The :class:`~repro.fl.faults.FaultPlan` draw over the wire kinds and
    seed tag, with a salt on every decision (it picks the flipped byte for
    ``corrupt`` and scales the hold time for ``delay``): per-send
    probabilities in ``[0, 1]`` summing to at most 1, the base seed, and
    the maximum ``delay`` hold time in (real) seconds.  Replays after a
    reconnect re-roll deterministically, so an injected disconnect can heal
    on replay.
    """

    kinds = WIRE_FAULT_KINDS
    seed_tag = WIRE_FAULT_SEED_TAG
    salted_kinds = WIRE_FAULT_KINDS
    label = "wire fault"

    def __init__(
        self,
        disconnect_rate: float = 0.0,
        delay_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        delay_seconds: float = 0.05,
        seed: int = 0,
    ):
        self._configure((disconnect_rate, delay_rate, corrupt_rate), seed)
        if delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {delay_seconds}")
        self.delay_seconds = float(delay_seconds)

    def hold_seconds(self, decision: FaultDecision) -> float:
        """Deterministic hold time for a ``delay`` decision."""
        if decision.kind != "delay" or self.delay_seconds <= 0:
            return 0.0
        # Salt-derived fraction in (0, 1]; cheap and reproducible.
        fraction = ((decision.salt % 1000) + 1) / 1000.0
        return self.delay_seconds * fraction

    def describe(self) -> Dict[str, float]:
        """Static identity of the plan (rates + delay + seed)."""
        return {**super().describe(), "delay_seconds": self.delay_seconds}


def corrupt_frame(frame: bytes, salt: int) -> bytes:
    """Flip one salt-addressed byte of an encoded frame.

    Any position trips the reader: a flipped magic byte fails the magic
    check, and a flip anywhere else fails the CRC — which is the point.
    """
    if not frame:
        return frame
    data = bytearray(frame)
    position = salt % len(data)
    data[position] ^= ((salt >> 7) % 255) + 1
    return bytes(data)


__all__ = [
    "WIRE_FAULT_KINDS",
    "WIRE_FAULT_SEED_TAG",
    "WireFaultPlan",
    "corrupt_frame",
]
