"""Typed failures for the fault-tolerant federation runtime.

This module is dependency-free so every layer (backends, supervisor, round
loops, CLI) can import the exception types without cycles.

:class:`ClientExecutionError` wraps any per-task failure with the client id
and backend context before it reaches the caller;
:class:`QuorumFailure` is the typed, recoverable signal that a round fell
below its commit quorum.  :class:`TaskFailure` is the *value* (not
exception) a backend yields for a failed task so streaming iterators survive
individual task deaths.  Injected faults are not exceptions at all: the
:class:`~repro.fl.faults.FaultPlan` decides them and the supervisor counts
them as failed attempts of the matching kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TaskFailure:
    """One failed client task, yielded (never raised) by a backend.

    ``kind`` matches the injected-fault vocabulary (``crash`` for dead
    workers, ``timeout`` for abandoned tasks, ``exception`` otherwise);
    ``error`` is a short repr of the underlying cause and ``traceback`` the
    formatted remote traceback when one crossed a process boundary.
    """

    task_index: int
    client_index: int
    client_id: str
    kind: str
    error: str
    traceback: Optional[str] = None


class ClientExecutionError(RuntimeError):
    """A client task failed, annotated with full execution context.

    Replaces bare remote tracebacks and dropped connections with the client
    id, its roster index, the backend name and the failure kind, and carries
    the remote traceback when one crossed a process boundary.
    """

    def __init__(
        self,
        message: str,
        *,
        client_id: str,
        client_index: int,
        backend: str,
        kind: str = "exception",
        remote_traceback: Optional[str] = None,
    ):
        self.client_id = str(client_id)
        self.client_index = int(client_index)
        self.backend = str(backend)
        self.kind = str(kind)
        self.remote_traceback = remote_traceback
        where = f"client {self.client_id!r} (index {self.client_index}) on backend {self.backend!r}"
        detail = f"{message} [{where}]"
        if remote_traceback:
            detail += f"\n--- remote traceback ---\n{remote_traceback}"
        super().__init__(detail)


class QuorumFailure(RuntimeError):
    """Too many of a round's cohort failed for the round to commit.

    ``arrived`` counts the cohort members that did not fail: their update
    arrived, in time or (past a deadline) late.

    Raised *after* the previous round's checkpoint is already on disk (the
    checkpoint manager saves eagerly every round), so the run is resumable:
    ``checkpoint_dir`` points at the directory holding the auto-checkpoint,
    or is ``None`` when checkpointing was not enabled.
    """

    def __init__(
        self,
        round_index: int,
        *,
        arrived: int,
        required: int,
        cohort_size: int,
        checkpoint_dir: Optional[str] = None,
    ):
        self.round_index = int(round_index)
        self.arrived = int(arrived)
        self.required = int(required)
        self.cohort_size = int(cohort_size)
        self.checkpoint_dir = checkpoint_dir
        detail = (
            f"round {self.round_index} fell below quorum: "
            f"{self.arrived}/{self.cohort_size} updates arrived, "
            f"{self.required} required"
        )
        if checkpoint_dir is not None:
            detail += f"; resume from the auto-checkpoint in {checkpoint_dir!r}"
        super().__init__(detail)


__all__ = [
    "TaskFailure",
    "ClientExecutionError",
    "QuorumFailure",
]
