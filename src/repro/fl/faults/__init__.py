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
    loops: RNG-snapshot/restore around failed attempts, wave-based
    re-dispatch, quorum-gated round commits, and permanent drops with
    recorded weight renormalization.

:class:`ResilienceOptions`
    The run options behind all of it (quorum, retries, task timeout, the
    four fault rates), each declared once with its range and CLI help.
    ``create_resilience(options, seed)`` builds the manager — or ``None``
    unless ``options.requested``, so default runs take the pre-resilience
    code paths bit for bit.
"""

from repro.fl.faults.errors import (
    ClientExecutionError,
    InjectedCorruption,
    InjectedCrash,
    InjectedException,
    InjectedFault,
    InjectedTimeout,
    QuorumFailure,
    TaskFailure,
)
from repro.fl.faults.plan import FAULT_KINDS, FAULT_SEED_TAG, FaultDecision, FaultPlan
from repro.fl.faults.retry import DEFAULT_MAX_RETRIES, RETRY_SEED_TAG, RetryPolicy
from repro.fl.faults.supervisor import (
    ResilienceManager,
    ResilienceOptions,
    ResilienceSummary,
    create_resilience,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SEED_TAG",
    "RETRY_SEED_TAG",
    "DEFAULT_MAX_RETRIES",
    "FaultDecision",
    "FaultPlan",
    "RetryPolicy",
    "ResilienceManager",
    "ResilienceOptions",
    "ResilienceSummary",
    "create_resilience",
    "InjectedFault",
    "InjectedCrash",
    "InjectedException",
    "InjectedTimeout",
    "InjectedCorruption",
    "TaskFailure",
    "ClientExecutionError",
    "QuorumFailure",
]
