"""Fault-tolerant federation runtime: deterministic chaos, retries, quorum.

This subpackage turns client failure from a run-ending traceback into a
first-class, *deterministic* part of the simulation:

:class:`FaultPlan`
    Seeded, checkpointable per-client fault probabilities (crash /
    exception / timeout / payload corruption) drawn from counter-based
    RNGs, so a chaos run is bit-reproducible on every backend and
    resumable mid-run.
:class:`RetryPolicy`
    Bounded retries with exponential, deterministically jittered backoff
    that elapses on the virtual clock.
:class:`ResilienceManager`
    The supervisor wiring both into the execution backends and the round
    loops: RNG-snapshot/restore around failed attempts and wave-based
    re-dispatch.  A client that exhausts its retries fails; quorum and the
    permanent drops with recorded weight renormalization are the round
    ledger's (:mod:`repro.fl.ledger`).

:class:`ResilienceOptions`
    The run options behind all of it (quorum, retries, task timeout, the
    four fault rates), each declared once with its range and CLI help.
    ``create_resilience(options, seed)`` builds the manager; at the
    defaults it absorbs nothing, so a failed client task raises
    :class:`ClientExecutionError`.
"""

from repro.fl.faults.errors import ClientExecutionError, QuorumFailure, TaskFailure
from repro.fl.faults.plan import FAULT_KINDS, FaultDecision, FaultPlan
from repro.fl.faults.retry import DEFAULT_MAX_RETRIES, RetryPolicy
from repro.fl.faults.supervisor import (
    ResilienceManager,
    ResilienceOptions,
    ResilienceSummary,
    create_resilience,
)

__all__ = [
    "FAULT_KINDS",
    "DEFAULT_MAX_RETRIES",
    "FaultDecision",
    "FaultPlan",
    "RetryPolicy",
    "ResilienceManager",
    "ResilienceOptions",
    "ResilienceSummary",
    "create_resilience",
    "TaskFailure",
    "ClientExecutionError",
    "QuorumFailure",
]
