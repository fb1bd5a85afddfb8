"""Execution backends: how one round's client updates are computed.

Every decentralized algorithm in :mod:`repro.fl.algorithms` expresses a
communication round as *map a batch of client tasks over the participating
clients, then aggregate the returned states*.  The mapping step is delegated
to an :class:`ExecutionBackend`, which decides **where** the client-side
computation runs:

:class:`SerialBackend`
    Runs every task in the calling process, in task order.  This is exactly
    the behavior of the original inline training loops, bit for bit.

:class:`ThreadPoolBackend`
    Runs the tasks on a warm thread pool in the calling process.  NumPy
    releases the GIL inside the conv/GEMM kernels, so client steps overlap
    with zero pickling; bit-identical to serial by construction.

Tasks that run in other processes go over the wire
(:mod:`repro.fl.net`): ``"wire"`` serves remote joiners, and ``"process"``
(:class:`~repro.fl.net.backend.ProcessPoolBackend`) forks N local joiners,
each hosting a slice of the roster, and serves them over loopback TCP.
Each task ships ``(initial state, options, RNG state)`` in and
``(new state, statistics, RNG state)`` out as schema'd envelopes.

Backend contract
----------------
Implementations must guarantee, for a single
:meth:`ExecutionBackend.imap_outcomes` call:

ordering
    Outcomes are yielded in task order: the ``i``-th is the outcome of
    ``tasks[i]``, regardless of completion order.
failure as a value
    A task that fails yields a :class:`~repro.fl.faults.TaskFailure` in its
    slot instead of raising, so the rest of the call keeps streaming; the
    :class:`~repro.fl.faults.ResilienceManager` that supervises every pass
    decides whether to retry it, drop it, or raise.
determinism
    A task's outcome depends only on the owning client's fields (datasets,
    configuration, trainer) and its RNG state at submission time.  Backends
    synchronize per-client RNG state with the caller's client objects, so a
    serial and a parallel run of the same algorithm with the same seed
    produce **bit-identical** states.
state ownership
    Task input states are never mutated.  Returned states are fresh arrays
    owned by the caller (joiners return decoded copies; the serial backend
    returns whatever the client's ``local_train`` returns, which is the
    original inline-loop behavior).
one task per client
    A single call may contain at most one task per client; chaining
    two updates of the same client within one call would make the RNG
    hand-off ambiguous.  Backends raise ``ValueError`` otherwise.
cohort dispatch
    A call need not cover the bound roster: under partial
    participation (see :mod:`repro.fl.scheduling`) it carries tasks only
    for the round's cohort, in roster order.  Clients outside the cohort
    are untouched — their RNG state does not advance — so sampled runs stay
    bit-identical across backends and across checkpoint resume.

Transport envelopes
-------------------
A task may carry a wire envelope (``ClientTask.wire``, built by
:class:`repro.fl.transport.Channel`) instead of a raw state: the encoded
downlink payload is decoded where the task runs, and — when the envelope
requests it — the resulting state is encoded before it is returned.  For
a joiner this means only compressed payloads cross the process boundary.
The decode/encode operations are pure functions of the payload, so the
bit-identity contract above extends to every codec.  In the coordinating
process a broadcast is decoded once, however many serial or thread-pool
tasks start from it; a joiner decodes the envelope it receives once for
all the clients it hosts.

Flat-buffer hand-off
--------------------
Raw (uncompressed) states are :class:`~repro.fl.parameters.FlatState`
objects, encoded as **one contiguous buffer** plus a tiny ``(name, shape)``
layout — not a dict of per-tensor arrays — so an uncompressed round
crosses the process boundary as a single block each way.
Delta uploads are computed as one vector subtraction over those buffers.
"""

from __future__ import annotations

import logging
import os
import traceback as traceback_module
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.faults.errors import TaskFailure
from repro.fl.parameters import FlatState, State, flat_pair
from repro.fl.trainer import StepStatistics
from repro.utils.threadpools import (
    BLAS_AUTO,
    BlasPolicy,
    blas_thread_limit,
    check_blas_policy,
    parse_blas_threads,
    resolve_blas_threads,
)
from repro.utils.validation import check_choice, check_positive

logger = logging.getLogger(__name__)

#: Task operations understood by every backend.
TRAIN = "train"
FINETUNE = "finetune"
_OPS = (TRAIN, FINETUNE)


@dataclass
class ClientTask:
    """One unit of client-side work inside a communication round.

    ``client_index`` indexes into the client roster the backend was bound to
    (not the client id).  Exactly one of two inputs carries the starting
    model: ``state`` (a raw in-process state) or ``wire`` (a transport
    envelope — see :class:`repro.fl.transport.WireTask` — whose encoded
    payload is decoded where the task runs).
    """

    client_index: int
    state: Optional[State] = None
    op: str = TRAIN
    steps: Optional[int] = None
    proximal_mu: Optional[float] = None
    wire: Optional[object] = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown client op {self.op!r}; expected one of {_OPS}")
        if (self.state is None) == (self.wire is None):
            raise ValueError("a ClientTask needs exactly one of state= or wire=")


@dataclass
class ClientUpdate:
    """The outcome of one :class:`ClientTask`.

    ``state`` is the client's resulting model.  When the task carried a
    wire envelope requesting backend-side upload encoding, ``state`` is
    ``None`` and ``payload`` holds the encoded upload instead (the channel
    decodes it in the coordinating process).
    """

    client_index: int
    client_id: int
    state: Optional[State]
    stats: StepStatistics
    payload: Optional[object] = None


def run_client_task(client, task: ClientTask):
    """Execute ``task`` on ``client``; returns ``(new_state, payload, stats)``.

    Shared by every backend so serial and parallel execution dispatch (and
    transport encode/decode) identically.  For a wire task, the starting
    state is the envelope's read-only decoded state, decoded once per
    process (:meth:`~repro.fl.transport.WireTask.start_state`); when the
    envelope requests backend-side upload encoding, the resulting state is
    encoded (as a delta against the decoded start when ``delta_upload`` is
    set, written into the new state's own buffer) and returned as
    ``payload`` with ``new_state=None``.
    """
    if task.wire is not None:
        start_state = task.wire.start_state()
    else:
        start_state = task.state
    if task.op == TRAIN:
        new_state, stats = client.local_train(
            start_state, steps=task.steps, proximal_mu=task.proximal_mu
        )
    elif task.op == FINETUNE:
        new_state, stats = client.fine_tune(start_state, steps=task.steps)
    else:  # pragma: no cover - guarded in __post_init__
        raise ValueError(f"unknown client op {task.op!r}")
    if task.wire is not None and task.wire.up_codec is not None:
        if task.wire.delta_upload:
            # The upload delta, in one pass into the fresh new state's buffer
            # (or its gather into the start's order, a copy of its own).
            layout, start_vector, new_vector = flat_pair(start_state, new_state)
            np.subtract(new_vector, start_vector, out=new_vector)
            target = FlatState(layout, new_vector)
        else:
            target = new_state
        return None, task.wire.up_codec.encode(target), stats
    return new_state, None, stats


def _check_one_task_per_client(tasks: Sequence[ClientTask]) -> None:
    seen = set()
    for task in tasks:
        if task.client_index in seen:
            raise ValueError(
                f"duplicate task for client index {task.client_index}: one backend "
                "call may contain at most one task per client"
            )
        seen.add(task.client_index)


class ExecutionBackend:
    """Interface every execution backend implements (see module docstring).

    BLAS thread policy
    ------------------
    Every backend carries a ``blas_threads`` policy (default ``"auto"``, see
    :func:`repro.utils.threadpools.resolve_blas_threads`).  ``"auto"``
    leaves the BLAS pool at its own thread count on every backend:
    BLAS sums a long contraction in an order that depends on its thread
    count, so a pool that pinned fewer threads than a serial run would not
    reproduce it bit for bit.  An integer pins a serial round and every pool
    worker or local joiner to that count alike, which is how to keep
    ``workers x BLAS threads`` within the machine.
    """

    #: Registry / CLI name, overridden by subclasses.
    name: str = "base"

    def __init__(self, blas_threads: BlasPolicy = BLAS_AUTO):
        self._clients: List = []
        self.blas_threads = check_blas_policy(blas_threads)

    def resolved_blas_threads(self) -> Optional[int]:
        """BLAS thread count each worker pins, or ``None`` to leave it alone."""
        return resolve_blas_threads(self.blas_threads)

    def bind(self, clients: Sequence) -> None:
        """Attach the client roster tasks will index into.

        Called by :class:`repro.fl.algorithms.FederatedAlgorithm` on
        construction; may be called again with a different roster (a pooled
        backend then discards workers caching the old roster).
        """
        self._clients = list(clients)

    @property
    def clients(self) -> List:
        return self._clients

    def imap_outcomes(
        self, tasks: Sequence[ClientTask], timeout: Optional[float] = None
    ) -> Iterator[Union[ClientUpdate, TaskFailure]]:
        """Yield one outcome per task, in task order, **never raising** per task.

        The one dispatch primitive every backend implements.  It streams,
        so the round loop folds and releases each update before the next
        arrives.  A task that fails (client exception, dead joiner process,
        exceeded ``timeout``) yields a :class:`~repro.fl.faults.TaskFailure`
        *value* in its slot instead of killing the iterator, so the
        resilience layer can retry or raise for individual clients while the
        rest of the wave keeps streaming.  ``timeout`` is a best-effort per-task wall-clock bound:
        the process backend abandons a late task and restarts its joiner, the
        thread pool stops waiting (the thread itself cannot be reclaimed),
        and the serial backend ignores it — a task it runs has, by
        construction, already finished when it could be checked.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources; the backend may be re-used after."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(clients={len(self._clients)})"


class SerialBackend(ExecutionBackend):
    """Runs every client task in the calling process, in task order.

    This reproduces the original inline training loops exactly: same call
    order, same RNG consumption, same returned objects.
    """

    name = "serial"

    def imap_outcomes(
        self, tasks: Sequence[ClientTask], timeout: Optional[float] = None
    ) -> Iterator[Union[ClientUpdate, TaskFailure]]:
        # ``timeout`` is ignored: by the time a serial task could be
        # checked against a deadline it has already finished.
        _check_one_task_per_client(tasks)
        # Under the default "auto" policy this resolves to None (a no-op).
        # An explicit integer policy pins the round and restores the prior
        # count after.
        with blas_thread_limit(self.resolved_blas_threads()):
            for position, task in enumerate(tasks):
                client = self._clients[task.client_index]
                try:
                    state, payload, stats = run_client_task(client, task)
                except Exception as error:
                    yield TaskFailure(
                        task_index=position,
                        client_index=task.client_index,
                        client_id=client.client_id,
                        kind="exception",
                        error=repr(error),
                        traceback=traceback_module.format_exc(),
                    )
                    continue
                yield ClientUpdate(
                    client_index=task.client_index,
                    client_id=client.client_id,
                    state=state,
                    stats=stats,
                    payload=payload,
                )


def pool_size(workers: Optional[int]) -> Tuple[int, int]:
    """A pooled backend's ``(requested, effective)`` worker counts.

    The request defaults to the machine's core count.  More workers than
    cores add no parallelism, only scheduling thrash and memory for extra
    rosters, so the effective count is clamped to the cores, with a warning;
    the request stays visible as ``backend.workers``.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    cores = max(1, os.cpu_count() or 1)
    requested = cores if workers is None else int(workers)
    if requested > cores:
        logger.warning(
            "requested %d workers but only %d core%s available; clamping the pool to %d",
            requested,
            cores,
            "" if cores == 1 else "s are",
            cores,
        )
    return requested, min(requested, cores)


class ThreadPoolBackend(ExecutionBackend):
    """Fans one round's client tasks out across a warm thread pool.

    NumPy releases the GIL inside its BLAS/gather kernels — exactly where
    the client step spends its time — so threads overlap the conv/GEMM work
    of different clients with **zero pickling**: tasks read and mutate the
    caller's own client objects directly, and states never cross a process
    boundary.

    Safety rests on the roster invariants the backend contract already
    guarantees: at most one task per client per call, and every
    mutable object a task touches (model, trainer, optimizer scratch, RNG)
    is owned by exactly one client — or, for layer workspaces, lent to it
    for the task from the *worker thread's* scratch pool
    (:mod:`repro.nn.workspace`: one pool per thread, so no buffer is ever
    handed to two threads).  The one shared read-mostly structure (interned
    :class:`~repro.fl.parameters.StateLayout` objects) is immutable after
    construction and its table is race-free (atomic ``setdefault``).

    Results are bit-identical to :class:`SerialBackend`: each client runs
    the identical operation sequence with its own RNG, so scheduling order
    cannot influence any value.  The executor is spawned lazily on the
    first call and stays warm across rounds (``spawn_count`` counts
    spawns, exactly like the process backend's joiners).

    The BLAS thread count is process-global state shared by every pool
    thread, so an explicit policy is applied as a context manager
    **around** each ``imap_outcomes`` call (pin for the round, restore after)
    rather than per task.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None, blas_threads: BlasPolicy = BLAS_AUTO):
        super().__init__(blas_threads=blas_threads)
        self.workers, self.effective_workers = pool_size(workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        self.spawn_count = 0

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            if not self._clients:
                raise RuntimeError("ThreadPoolBackend used before bind()")
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, min(self.effective_workers, len(self._clients))),
                thread_name_prefix="repro-client",
            )
            self.spawn_count += 1
        return self._executor

    def _run_one(self, task: ClientTask) -> ClientUpdate:
        client = self._clients[task.client_index]
        state, payload, stats = run_client_task(client, task)
        return ClientUpdate(
            client_index=task.client_index,
            client_id=client.client_id,
            state=state,
            stats=stats,
            payload=payload,
        )

    def imap_outcomes(
        self, tasks: Sequence[ClientTask], timeout: Optional[float] = None
    ) -> Iterator[Union[ClientUpdate, TaskFailure]]:
        if not tasks:
            return
        _check_one_task_per_client(tasks)
        executor = self._ensure_executor()
        # Futures are drained in submission order as they complete
        # (Executor.map's streaming behavior, with failure capture on top).
        # ``timeout`` is best-effort here: the coordinator stops *waiting*
        # for a late task, but an in-process thread cannot be reclaimed —
        # it runs to completion in the background.
        with blas_thread_limit(self.resolved_blas_threads()):
            futures = [executor.submit(self._run_one, task) for task in tasks]
            for position, (task, future) in enumerate(zip(tasks, futures)):
                client = self._clients[task.client_index]
                try:
                    yield future.result(timeout=timeout)
                except FuturesTimeoutError:
                    future.cancel()
                    yield TaskFailure(
                        task_index=position,
                        client_index=task.client_index,
                        client_id=client.client_id,
                        kind="timeout",
                        error=f"task exceeded the {timeout:g}s per-task timeout",
                    )
                except Exception as error:
                    yield TaskFailure(
                        task_index=position,
                        client_index=task.client_index,
                        client_id=client.client_id,
                        kind="exception",
                        error=repr(error),
                        traceback=traceback_module.format_exc(),
                    )

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


#: Registry of execution backends, keyed by their CLI name.  Importing
#: :mod:`repro.fl.net` registers ``"wire"`` and ``"process"`` (local joiners).
BACKENDS: Dict[str, type] = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
}


#: The backends that take a worker count.
_POOLED = ("process", ThreadPoolBackend.name)


@dataclass(frozen=True)
class ExecutionOptions:
    """Where and how each round's client updates run, each option declared once.

    A field is the option: its name is the ``with_execution`` keyword and
    (dashed) the ``repro reproduce`` flag, its metadata the flag's help, and
    ``__post_init__`` its range.  ``backend`` accepts every name registered
    in :data:`BACKENDS` plus ``None`` / ``"auto"`` (infer from ``workers``);
    its ``choices`` are what ``repro reproduce`` offers — ``repro serve``
    sets ``"wire"``.  ``blas_threads="auto"`` leaves the BLAS pool unmanaged.
    """

    backend: Optional[str] = field(default=None, metadata={
        "choices": ("auto", "serial", "process", "thread"),
        "help": "execution backend for client updates (auto: process when --workers > 1; "
        "thread overlaps clients via GIL-releasing NumPy kernels with zero pickling)",
    })
    workers: Optional[int] = field(default=None, metadata={
        "help": "workers per round; 1 forces serial execution, >1 fans client "
        "updates out over the process/thread pool (results are bit-identical)",
    })
    blas_threads: BlasPolicy = field(default=BLAS_AUTO, metadata={
        "type": parse_blas_threads,
        "metavar": "{auto,N}",
        "help": "BLAS threads per worker: 'auto' (default) leaves every backend "
        "at BLAS's own thread count, so pools stay bit-identical to serial; "
        "an integer pins serial rounds and every pool worker exactly",
    })
    checkpoint_dir: Optional[str] = field(default=None, metadata={
        "help": "directory for per-round checkpoints; re-running with the same "
        "directory resumes interrupted global-state algorithms",
    })

    def __post_init__(self):
        check_choice("backend", self.backend, (None, "auto", *BACKENDS))
        if self.workers is not None:
            check_positive("workers", self.workers)
        check_blas_policy(self.blas_threads)
        if (self.workers or 1) > 1 and self.backend not in (None, "auto", *_POOLED):
            raise ValueError(
                f"backend {self.backend!r} cannot use {self.workers} workers (its tasks run "
                "in-process or in remote joiners); drop the workers option or choose 'process'"
            )


def create_backend(
    name: Optional[str] = None,
    workers: Optional[int] = None,
    blas_threads: BlasPolicy = BLAS_AUTO,
) -> ExecutionBackend:
    """Instantiate an execution backend by name.

    With ``name=None`` (or ``"auto"``) the backend is chosen from ``workers``:
    more than one worker selects the process backend, otherwise serial — so
    ``--workers N`` alone is enough to opt into parallel execution, and
    ``--workers 1`` is guaranteed to reproduce serial results.  The thread
    backend is never auto-selected; ask for it with ``--backend thread``.

    ``blas_threads`` is the BLAS thread policy (``"auto"``, which leaves the
    BLAS library unmanaged, or an exact count); see
    :class:`ExecutionBackend` and ``--blas-threads`` on the CLI.
    """
    options = ExecutionOptions(name.lower() if name else None, workers, blas_threads)
    key = options.backend
    if key is None or key == "auto":
        key = "process" if (workers or 1) > 1 else SerialBackend.name
    if key in _POOLED:
        return BACKENDS[key](workers=workers, blas_threads=blas_threads)
    # Serial and externally registered backends (e.g. "wire", whose own options the
    # experiment runner wires up) take no worker count; ExecutionOptions refused one.
    return BACKENDS[key](blas_threads=blas_threads)
