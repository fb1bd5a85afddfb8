"""The deterministic virtual clock of the client-population simulator.

Simulated federated runs report *simulated wall-clock time* — how long the
deployment would have taken with real devices — not just round counts.  The
:class:`VirtualClock` is the single time authority: round policies advance
it by each round's duration (slowest kept client, or the deadline), a
FedBuff round advances it to each update's arrival instant, and
availability models read it to decide who is reachable.

The clock is plain state (no RNG, no wall-clock reads), so it is trivially
deterministic and checkpointable.
"""

from __future__ import annotations

from typing import Dict


class VirtualClock:
    """Monotonic simulated time in seconds."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def advance(self, duration: float) -> float:
        """Move time forward by ``duration`` seconds; returns the new time."""
        if duration < 0.0:
            raise ValueError(f"cannot advance by a negative duration ({duration})")
        self._now += float(duration)
        return self._now

    def advance_to(self, instant: float) -> float:
        """Move time forward to ``instant`` (a no-op when already past it)."""
        if instant > self._now:
            self._now = float(instant)
        return self._now

    def state(self) -> Dict[str, object]:
        """JSON-serializable snapshot for checkpointing."""
        return {"now": self._now}

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        if "now" in state:
            self._now = float(state["now"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.3f}s)"
