"""Execution engine for decentralized training.

This subpackage decides *where* one round's client updates run
(:mod:`repro.fl.execution.backend`) and how long runs survive interruption
(:mod:`repro.fl.execution.checkpoint`).  See ``docs/architecture.md`` for the
backend contract every implementation must honor.
"""

from repro.fl.execution.backend import (
    BACKENDS,
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    ExecutionOptions,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    create_backend,
    run_client_task,
)
from repro.fl.execution.checkpoint import CheckpointManager, RoundCheckpoint
from repro.fl.faults.errors import ClientExecutionError, TaskFailure

__all__ = [
    "BACKENDS",
    "ClientTask",
    "ClientUpdate",
    "ClientExecutionError",
    "TaskFailure",
    "ExecutionBackend",
    "ExecutionOptions",
    "SerialBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "create_backend",
    "run_client_task",
    "CheckpointManager",
    "RoundCheckpoint",
]
