"""The resilience manager: supervised dispatch, injected faults, retries.

:class:`ResilienceManager` sits between an algorithm's round loop and its
execution backend.  Each client pass becomes a sequence of *waves*:

1. Snapshot every pending client's RNG state, then ask the
   :class:`~repro.fl.faults.FaultPlan` whether this attempt fails.
   ``crash``/``exception``/``timeout`` strike *before* dispatch (the task
   never runs, the client RNG never advances — uniform semantics across
   serial/thread/process); ``corruption`` lets the task run and then flips
   a byte of its upload payload while keeping the original CRC, so the
   genuine framing check rejects it at decode.
2. Dispatch the surviving tasks through the backend's ``imap_outcomes``,
   which yields a :class:`~repro.fl.faults.TaskFailure` *value* for any
   task that really died (worker crash, timeout, exception) instead of
   raising — so one dead task cannot kill the wave.
3. Every failed client has its RNG snapshot restored and is re-dispatched
   in the next wave after a deterministic backoff on the **virtual clock**
   (:class:`~repro.fl.faults.RetryPolicy`), until it succeeds or exhausts
   its retries (``gave_up``).

Every client pass of every algorithm runs through :meth:`supervise`.  A
fault-free pass is exactly one wave in task order with zero extra RNG
draws.  The default manager (:func:`create_resilience` of the default
options) absorbs nothing — no retries, quorum 1.0, no injected faults — so
its first failed task raises a
:class:`~repro.fl.faults.ClientExecutionError` naming the client, the
backend and the remote traceback.

Round-level degradation — quorum, permanent drops and the recorded weight
renormalization — is the algorithm's :class:`~repro.fl.ledger.RoundLedger`:
a client that exhausts its retries produces no update, and the ledger
counts it as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.fl.faults.errors import ClientExecutionError, TaskFailure
from repro.fl.faults.plan import FAULT_KINDS, FaultDecision, FaultPlan, check_rates
from repro.fl.faults.retry import DEFAULT_MAX_RETRIES, RetryPolicy
from repro.fl.scheduling.clock import VirtualClock
from repro.fl.transport.codecs import Payload
from repro.fl.transport.errors import TransportDecodeError
from repro.utils.validation import check_in_range, check_positive

#: Fault kinds injected before dispatch (the task never runs).
_PRE_DISPATCH_KINDS = ("crash", "exception", "timeout")


@dataclass(frozen=True)
class ResilienceSummary:
    """Fault-tolerance totals of one run (surfaced through the report): a
    view over its :class:`~repro.fl.ledger.RoundLedger` and manager."""

    quorum: float
    retries: int
    gave_up: int
    respawns: int
    dropped_clients: List[int]
    injected: Dict[str, int]
    backoff_seconds: float
    renormalizations: List[Dict[str, object]]
    retry_policy: str
    #: Network accounting from a wire-backend run (``None`` for in-process
    #: backends): dispatched/completed counts, disconnects, heartbeat
    #: losses, reconnects, replayed messages, injected wire faults, bytes.
    network: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, object]:
        result = {
            "quorum": self.quorum,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "respawns": self.respawns,
            "dropped_clients": list(self.dropped_clients),
            "injected": dict(self.injected),
            "backoff_seconds": self.backoff_seconds,
            "renormalizations": [dict(record) for record in self.renormalizations],
            "retry_policy": self.retry_policy,
        }
        if self.network is not None:
            result["network"] = dict(self.network)
        return result


@dataclass
class _Attempt:
    """One task's supervision state across waves."""

    task: object
    attempt: int = 0
    rng_snapshot: Optional[dict] = None
    decision: FaultDecision = field(default_factory=lambda: FaultDecision(kind=None))


def _corrupt_payload(payload: Optional[Payload], salt: int) -> Optional[Payload]:
    """Flip one byte of ``payload.data`` while keeping the original CRC.

    Returns ``None`` when there is nothing to corrupt (no payload / empty
    data) — the caller then injects the fault as an exception instead.
    """
    if payload is None or len(payload.data) == 0:
        return None
    data = bytearray(payload.data)
    position = salt % len(data)
    data[position] ^= ((salt >> 7) % 255) + 1
    return Payload(codec=payload.codec, data=bytes(data), schema=payload.schema, crc=payload.crc)


class ResilienceManager:
    """Supervised execution with deterministic faults and retries.

    One manager is stateful for one algorithm run (like a scheduler or a
    channel): it owns the fault plan's draw counters and the retry
    accounting, both of which round-trip through :meth:`state` /
    :meth:`set_state` for checkpoint resume.  ``quorum`` is read by the
    run's :class:`~repro.fl.ledger.RoundLedger`.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        quorum: float = 1.0,
    ):
        if not 0.0 < quorum <= 1.0:
            raise ValueError(f"quorum must be in (0, 1], got {quorum}")
        self.plan = plan if plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.quorum = float(quorum)
        #: Virtual clock backoff elapses on.  Replaced by the scheduler's
        #: clock by ``FederatedAlgorithm`` so retry waits and straggler
        #: latencies share one timeline.
        self.clock = VirtualClock()
        # Run totals.
        self.retries = 0
        self.gave_up = 0
        self.backoff_seconds = 0.0

    @property
    def absorbs_failures(self) -> bool:
        """Whether a failed task can be survived: retried, or dropped under a
        quorum below 1.0.  A manager that absorbs nothing raises the first
        failure as a :class:`~repro.fl.faults.ClientExecutionError`."""
        return self.retry.max_retries > 0 or self.quorum < 1.0

    # -- supervised dispatch ---------------------------------------------------
    def supervise(
        self,
        backend,
        tasks: Sequence,
        finish: Callable,
        clients: Sequence,
    ) -> Iterator:
        """Run ``tasks`` with fault injection, retries, and backoff.

        Yields each successful :class:`~repro.fl.execution.ClientUpdate` as
        soon as it survives ``finish`` (decode + channel accounting).
        Clients that exhaust their retries yield nothing (and count as
        ``gave_up``); the round ledger records them as failed.  When the manager
        absorbs nothing, the first failure raises
        :class:`~repro.fl.faults.ClientExecutionError` instead.
        """
        def failed(entry: _Attempt, kind: str, error: str, remote_traceback=None) -> None:
            if not self.absorbs_failures:
                raise ClientExecutionError(
                    error,
                    client_id=clients[entry.task.client_index].client_id,
                    client_index=entry.task.client_index,
                    backend=backend.name,
                    kind=kind,
                    remote_traceback=remote_traceback,
                )
            failures.append(entry)

        pending = [_Attempt(task=task) for task in tasks]
        while pending:
            failures: List[_Attempt] = []
            dispatch: List[_Attempt] = []
            for entry in pending:
                client = clients[entry.task.client_index]
                entry.rng_snapshot = client.rng_state
                entry.decision = self.plan.draw(client.client_id)
                if entry.decision.kind in _PRE_DISPATCH_KINDS:
                    failed(entry, entry.decision.kind, f"injected {entry.decision.kind} fault")
                else:
                    dispatch.append(entry)
            if dispatch:
                outcomes = backend.imap_outcomes(
                    [entry.task for entry in dispatch],
                    timeout=self.retry.task_timeout,
                )
                for entry, outcome in zip(dispatch, outcomes):
                    if isinstance(outcome, TaskFailure):
                        failed(entry, outcome.kind, outcome.error, outcome.traceback)
                        continue
                    update = outcome
                    if entry.decision.kind == "corruption":
                        corrupted = _corrupt_payload(update.payload, entry.decision.salt)
                        if corrupted is None:
                            # Nothing on the wire to corrupt (raw in-process
                            # state): the fault degenerates to an exception.
                            failed(entry, "corruption", "injected corruption fault")
                            continue
                        update.payload = corrupted
                    try:
                        finish(update)
                    except TransportDecodeError as error:
                        failed(entry, "corruption", repr(error))
                        continue
                    yield update
            pending = self._next_wave(failures, clients)

    def _next_wave(self, failures: List[_Attempt], clients: Sequence) -> List[_Attempt]:
        """Restore RNG snapshots and schedule the retried attempts."""
        next_wave: List[_Attempt] = []
        for entry in failures:
            client = clients[entry.task.client_index]
            if entry.rng_snapshot is not None:
                client.rng_state = entry.rng_snapshot
            entry.attempt += 1
            if entry.attempt > self.retry.max_retries:
                self.gave_up += 1
                continue
            self.retries += 1
            wait = self.retry.backoff_seconds(client.client_id, entry.attempt)
            if wait > 0.0:
                self.clock.advance(wait)
                self.backoff_seconds += wait
            next_wave.append(entry)
        return next_wave

    # -- state -----------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Everything needed to resume supervision bit-identically (the
        clock is the scheduler's, checkpointed with it)."""
        return {
            "plan": self.plan.state(),
            "counters": {
                "retries": self.retries,
                "gave_up": self.gave_up,
                "backoff_seconds": self.backoff_seconds,
            },
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state` (checkpoint resume)."""
        self.plan.set_state(state["plan"])
        counters = state.get("counters", {})
        self.retries = int(counters.get("retries", 0))
        self.gave_up = int(counters.get("gave_up", 0))
        self.backoff_seconds = float(counters.get("backoff_seconds", 0.0))

    def describe(self) -> Dict[str, object]:
        """Static identity of the fault model (checkpoint fingerprint)."""
        return self.plan.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilienceManager(quorum={self.quorum}, plan={self.plan!r}, "
            f"retry={self.retry.describe()!r})"
        )


@dataclass(frozen=True)
class ResilienceOptions:
    """The fault-tolerance options of a run, each declared once.

    A field is the option: its name is the ``with_resilience`` keyword and
    (dashed) the ``repro reproduce`` / ``repro serve`` flag, its metadata
    the flag's help, and ``__post_init__`` its range.  At the defaults
    nothing is :attr:`requested` and :func:`create_resilience` builds a
    manager that absorbs nothing: the first failed client task raises.
    """

    quorum: float = field(default=1.0, metadata={
        "help": "fraction of the per-round cohort that must not fail before the "
        "round commits (default 1.0); a client fails when it exhausts its "
        "retries and is then dropped permanently with the aggregation weights "
        "renormalized, a straggler the deadline drops is late, not failed, and "
        "a sub-quorum round checkpoints and aborts",
    })
    max_retries: Optional[int] = field(default=None, metadata={
        "help": "supervised retries per client task before it counts as failed "
        "(default 2 once any fault-tolerance option is active)",
    })
    task_timeout: Optional[float] = field(default=None, metadata={
        "help": "wall-clock seconds allowed per client task before the "
        "supervisor abandons and retries it (process/thread/wire backends)",
    })
    fault_crash_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-attempt probability of a simulated worker "
        "crash (deterministic for a given seed)",
    })
    fault_exception_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-attempt probability of a simulated client "
        "exception",
    })
    fault_timeout_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-attempt probability of a simulated task "
        "timeout",
    })
    fault_corruption_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-attempt probability of flipping one byte of "
        "the upload payload (caught by the transport CRC and retried; "
        "needs --compression for a wire payload to corrupt)",
    })

    def __post_init__(self):
        check_in_range("quorum", self.quorum, 0.0, 1.0, "(]")
        if self.max_retries is not None:
            check_positive("max_retries", self.max_retries, allow_zero=True)
        if self.task_timeout is not None:
            check_positive("task_timeout", self.task_timeout)
        rates = (f"fault_{kind}_rate" for kind in FAULT_KINDS)
        check_rates("fault", {name: getattr(self, name) for name in rates})

    @property
    def requested(self) -> bool:
        """Whether any option departs from the inert defaults: the predicate
        behind "resilience is reported"."""
        return self != ResilienceOptions()


def create_resilience(options: ResilienceOptions, seed: int = 0) -> ResilienceManager:
    """Build the :class:`ResilienceManager` a :class:`ResilienceOptions` asks for.

    At the defaults the manager absorbs nothing: no faults, quorum 1.0 and
    no retries, so the first failed client task raises.  Any requested
    option brings :data:`~repro.fl.faults.retry.DEFAULT_MAX_RETRIES` retries
    unless ``max_retries`` says otherwise.  ``seed`` is the run seed: the
    fault plan and the retry jitter derive from it.
    """
    max_retries = options.max_retries
    if max_retries is None:
        max_retries = DEFAULT_MAX_RETRIES if options.requested else 0
    plan = FaultPlan(
        crash_rate=options.fault_crash_rate,
        exception_rate=options.fault_exception_rate,
        timeout_rate=options.fault_timeout_rate,
        corruption_rate=options.fault_corruption_rate,
        seed=seed,
    )
    retry = RetryPolicy(
        max_retries=max_retries,
        task_timeout=options.task_timeout,
        seed=seed,
    )
    return ResilienceManager(plan=plan, retry=retry, quorum=options.quorum)


__all__ = [
    "ResilienceManager",
    "ResilienceOptions",
    "ResilienceSummary",
    "create_resilience",
]
