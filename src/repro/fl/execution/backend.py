"""Execution backends: how one round's client updates are computed.

Every decentralized algorithm in :mod:`repro.fl.algorithms` expresses a
communication round as *map a batch of client tasks over the participating
clients, then aggregate the returned states*.  The mapping step is delegated
to an :class:`ExecutionBackend`, which decides **where** the client-side
computation runs:

:class:`SerialBackend`
    Runs every task in the calling process, in task order.  This is exactly
    the behavior of the original inline training loops, bit for bit.

:class:`ProcessPoolBackend`
    Fans the tasks of one round out across a pool of worker processes.
    Workers cache a pickled copy of the client roster once, so each task only
    ships ``(initial state, options, RNG state)`` in and
    ``(new state, statistics, RNG state)`` out.  The pool is spawned once,
    on the first ``map``, and stays **warm** across rounds (``spawn_count``
    is the regression-tested witness).

:class:`ThreadPoolBackend`
    Runs the tasks on a warm thread pool in the calling process.  NumPy
    releases the GIL inside the conv/GEMM kernels, so client steps overlap
    with zero pickling; bit-identical to serial by construction.

Backend contract
----------------
Implementations must guarantee, for a single :meth:`ExecutionBackend.map`
call:

ordering
    The returned list is aligned with the task list: ``results[i]`` is the
    outcome of ``tasks[i]``, regardless of completion order.
determinism
    A task's outcome depends only on the owning client's fields (datasets,
    configuration, trainer) and its RNG state at submission time.  Backends
    synchronize per-client RNG state with the caller's client objects, so a
    serial and a parallel run of the same algorithm with the same seed
    produce **bit-identical** states.
state ownership
    Task input states are never mutated.  Returned states are fresh arrays
    owned by the caller (workers return pickled copies; the serial backend
    returns whatever the client's ``local_train`` returns, which is the
    original inline-loop behavior).
one task per client
    A single ``map`` call may contain at most one task per client; chaining
    two updates of the same client within one call would make the RNG
    hand-off ambiguous.  Backends raise ``ValueError`` otherwise.
cohort dispatch
    A ``map`` call need not cover the bound roster: under partial
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
the process pool this means only compressed payloads cross the process
boundary.  The decode/encode operations are pure functions of the payload,
so the bit-identity contract above extends to every codec.  In the
coordinating process a broadcast is decoded once, however many serial or
thread-pool tasks start from it; a pool worker or a joiner decodes the
envelope it receives.

Flat-buffer hand-off
--------------------
Raw (uncompressed) states are :class:`~repro.fl.parameters.FlatState`
objects whose custom pickling ships **one contiguous buffer** plus a tiny
``(name, shape)`` key per state — not a dict of per-tensor arrays — so an
uncompressed round crosses the process boundary as a single block each way.
Delta uploads are computed as one vector subtraction over those buffers.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import traceback as traceback_module
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.fl.faults.errors import ClientExecutionError, TaskFailure
from repro.fl.parameters import FlatState, State, flat_pair
from repro.fl.trainer import StepStatistics
from repro.fl.transport.envelope import decode_carrier, encode_carrier
from repro.utils.threadpools import (
    BLAS_AUTO,
    BlasPolicy,
    blas_thread_limit,
    check_blas_policy,
    parse_blas_threads,
    resolve_blas_threads,
    set_blas_threads,
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


def encoded_carriers(tasks: Sequence[ClientTask]) -> List[bytes]:
    """Each task's starting model (raw state or wire envelope) as bytes.

    Broadcast rounds pass the *same* state (or wire envelope) object in
    every task; each distinct one is encoded once and the tasks that share
    it share the one ``bytes`` object, instead of re-serializing the full
    model per client.  Wire envelopes carry an already-encoded payload, so a
    compressed round ships compressed bytes.
    """
    carriers = [task.wire if task.wire is not None else task.state for task in tasks]
    blobs: Dict[int, bytes] = {}
    for carrier in carriers:
        if id(carrier) not in blobs:
            blobs[id(carrier)] = encode_carrier(carrier)
    return [blobs[id(carrier)] for carrier in carriers]


def _check_one_task_per_client(tasks: Sequence[ClientTask]) -> None:
    seen = set()
    for task in tasks:
        if task.client_index in seen:
            raise ValueError(
                f"duplicate task for client index {task.client_index}: a backend map() "
                "call may contain at most one task per client"
            )
        seen.add(task.client_index)


class ExecutionBackend:
    """Interface every execution backend implements (see module docstring).

    BLAS thread policy
    ------------------
    Every backend carries a ``blas_threads`` policy (default ``"auto"``, see
    :func:`repro.utils.threadpools.resolve_blas_threads`).  ``"auto"`` and
    ``None`` leave the BLAS pool at its own thread count on every backend:
    BLAS sums a long contraction in an order that depends on its thread
    count, so a pool that pinned fewer threads than a serial run would not
    reproduce it bit for bit.  An integer pins a serial round and every pool
    worker to that count alike, which is how to keep ``workers x BLAS
    threads`` within the machine.
    """

    #: Registry / CLI name, overridden by subclasses.
    name: str = "base"

    def __init__(self, blas_threads: BlasPolicy = BLAS_AUTO):
        self._clients: List = []
        self.blas_threads = check_blas_policy(blas_threads)
        #: Worker-pool respawns after a detected worker death or abandoned
        #: task (always 0 for the in-process backends).
        self.respawns = 0

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

        The supervised-execution primitive every backend implements: a task
        that fails (worker exception, dead worker process, exceeded
        ``timeout``) yields a :class:`~repro.fl.faults.TaskFailure` *value*
        in its slot instead of killing the iterator, so the resilience
        layer can retry individual clients while the rest of the wave keeps
        streaming.  ``timeout`` is a best-effort per-task wall-clock bound:
        the process pool abandons (and respawns around) a late task, the
        thread pool stops waiting (the thread itself cannot be reclaimed),
        and the serial backend ignores it — a task it runs has, by
        construction, already finished when it could be checked.
        """
        raise NotImplementedError

    def imap(self, tasks: Sequence[ClientTask]) -> Iterator[ClientUpdate]:
        """Yield outcomes one at a time, in task order.

        The round loop folds each update as it is yielded and then
        releases it, so the coordinating process never holds a whole
        cohort's worth of states.  A failed task raises a
        :class:`~repro.fl.faults.ClientExecutionError` annotated with the
        client id and backend (instead of a bare worker traceback or
        ``BrokenProcessPool``).
        """
        for outcome in self.imap_outcomes(tasks):
            if isinstance(outcome, TaskFailure):
                raise ClientExecutionError(
                    outcome.error,
                    client_id=outcome.client_id,
                    client_index=outcome.client_index,
                    backend=self.name,
                    kind=outcome.kind,
                    remote_traceback=outcome.traceback,
                )
            yield outcome

    def map(self, tasks: Sequence[ClientTask]) -> List[ClientUpdate]:
        """Execute every task and return outcomes aligned with ``tasks``."""
        return list(self.imap(tasks))

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


# -- process-pool worker plumbing ------------------------------------------------
#
# Workers cache the client roster in a module-level global (set once by the
# pool initializer) so per-task payloads stay small.  Each payload carries the
# parent's current RNG state for the client, and each result carries the RNG
# state after training; the parent writes it back into its own client object.
# That hand-off is what makes parallel runs bit-identical to serial ones.

_WORKER_CLIENTS: Optional[List] = None


def _init_worker(clients: List, blas_threads: Optional[int] = None) -> None:
    global _WORKER_CLIENTS
    _WORKER_CLIENTS = clients
    if blas_threads is not None:
        # Post-fork/post-spawn BLAS pinning: each worker limits its own copy
        # of the BLAS pool so the workers x BLAS-threads product stays within
        # the machine (see the ExecutionBackend docstring).
        set_blas_threads(blas_threads)


@dataclass
class _WorkerFailure:
    """A worker-side task failure, shipped back as a picklable value.

    Raising inside a pool worker would cross the process boundary as an
    opaque re-raised traceback (or, for unpicklable exceptions, kill the
    pool); returning this value instead keeps the pool healthy and lets
    the parent attach client/backend/round context.
    """

    client_index: int
    op: str
    error: str
    traceback: str


def _worker_run_task(payload):
    index, op, blob, is_wire, steps, proximal_mu, rng_state = payload
    client = None
    try:
        blob = decode_carrier(blob)
        client = _WORKER_CLIENTS[index]
        client.rng_state = rng_state
        if is_wire:
            task = ClientTask(client_index=index, wire=blob, op=op, steps=steps, proximal_mu=proximal_mu)
        else:
            task = ClientTask(client_index=index, state=blob, op=op, steps=steps, proximal_mu=proximal_mu)
        new_state, upload_payload, stats = run_client_task(client, task)
        rng_state = client.rng_state
    except Exception as error:
        # Free the (possibly virtual) client on the failure path too, then
        # ship the failure back as a value — see _WorkerFailure.
        release = getattr(client, "release", None)
        if release is not None:
            try:
                release()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        return _WorkerFailure(
            client_index=index,
            op=op,
            error=repr(error),
            traceback=traceback_module.format_exc(),
        )
    # Virtual client handles (population runs) free the materialized client
    # between tasks so worker memory stays bounded by the in-flight task,
    # not the roster; the captured RNG state is what the parent needs.
    release = getattr(client, "release", None)
    if release is not None:
        release()
    return new_state, upload_payload, stats, rng_state


def default_worker_count() -> int:
    """Worker count used when none is requested (the machine's CPU count)."""
    return max(1, os.cpu_count() or 1)


def clamp_workers(requested: int) -> int:
    """Clamp a requested worker count to the machine's cores, with a warning.

    More pool workers than cores cannot add parallelism — they only add
    scheduling thrash (and, for the process pool, memory for extra rosters).
    The *requested* value stays visible on ``backend.workers``; this clamp
    applies to the effective pool size only.
    """
    cores = os.cpu_count() or 1
    if requested > cores:
        logger.warning(
            "requested %d workers but only %d core%s available; clamping the pool to %d",
            requested,
            cores,
            "" if cores == 1 else "s are",
            cores,
        )
        return cores
    return requested


class ProcessPoolBackend(ExecutionBackend):
    """Fans one round's client tasks out across worker processes.

    The pool is created lazily on the first :meth:`map` call and the bound
    client roster is shipped to every worker once (via the pool initializer).
    Each task then only transfers the initial state in and the updated state,
    step statistics, and RNG state out.

    The pool is a ``concurrent.futures.ProcessPoolExecutor``, which —
    unlike ``multiprocessing.Pool`` — *detects* a worker process dying
    (``BrokenProcessPool``) instead of hanging the round.  On a detected
    death the backend respawns the pool (``respawns`` counts these;
    ``spawn_count`` still witnesses warm-pool reuse for healthy runs) and
    re-dispatches the in-flight tasks from their original payloads, whose
    pre-captured RNG states make the re-run bit-identical.  A task whose
    worker dies repeatedly, or that exceeds the per-task ``timeout``,
    yields a :class:`~repro.fl.faults.TaskFailure` in its slot.

    Parameters
    ----------
    workers:
        Number of worker processes (default: the machine's CPU count).  The
        effective pool size is additionally clamped to the core count (with
        a logged warning, see :func:`clamp_workers`) and capped by the
        roster size; the requested value stays visible as ``self.workers``,
        the clamped one as ``self.effective_workers``.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (cheap, and tolerates non-picklable model factories) and
        ``"spawn"`` elsewhere; under ``"spawn"`` the bound clients must be
        picklable.
    blas_threads:
        BLAS thread policy (see :class:`ExecutionBackend`); each worker pins
        its own BLAS pool in the initializer, i.e. post-fork.
    """

    name = "process"

    #: Consecutive worker deaths tolerated per task position within one
    #: ``imap_outcomes`` call before the task yields a crash failure.
    MAX_REDISPATCHES = 2

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        blas_threads: BlasPolicy = BLAS_AUTO,
    ):
        super().__init__(blas_threads=blas_threads)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers) if workers is not None else default_worker_count()
        self.effective_workers = clamp_workers(self.workers)
        if start_method is None:
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Number of worker-pool spawns over this backend's lifetime.  A
        #: multi-round run must report exactly 1 (the warm-pool guarantee,
        #: regression-tested): workers are spawned lazily on the first
        #: ``map`` and reused by every subsequent round until ``close()``
        #: or a re-``bind`` with a different roster.
        self.spawn_count = 0

    def bind(self, clients: Sequence) -> None:
        roster = list(clients)
        same_roster = len(roster) == len(self._clients) and all(
            new is old for new, old in zip(roster, self._clients)
        )
        if self._pool is not None and not same_roster:
            # Workers cache the roster they were initialized with; a new
            # roster needs a new pool.
            self.close()
        super().bind(roster)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if not self._clients:
                raise RuntimeError("ProcessPoolBackend.map called before bind()")
            context = multiprocessing.get_context(self.start_method)
            processes = max(1, min(self.effective_workers, len(self._clients)))
            self._pool = ProcessPoolExecutor(
                max_workers=processes,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self._clients, self.resolved_blas_threads()),
            )
            self.spawn_count += 1
        return self._pool

    def _respawn(self) -> ProcessPoolExecutor:
        """Replace a broken/abandoned pool with a fresh one."""
        self._shutdown_pool(kill=True)
        self.respawns += 1
        logger.warning(
            "process pool lost a worker; respawning (respawn #%d)", self.respawns
        )
        return self._ensure_pool()

    def _shutdown_pool(self, kill: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            # A worker may be dead or wedged on an abandoned task; don't
            # wait on it.  Terminate the worker processes the way
            # multiprocessing.Pool.terminate() did, then reap without
            # blocking.
            pool.shutdown(wait=False, cancel_futures=True)
            # _processes may already be None once the executor has fully
            # shut down (e.g. every worker died and reaping finished).
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    def _payloads(self, tasks: Sequence[ClientTask]) -> List[tuple]:
        return [
            (
                task.client_index,
                task.op,
                blob,
                task.wire is not None,
                task.steps,
                task.proximal_mu,
                self._clients[task.client_index].rng_state,
            )
            for task, blob in zip(tasks, encoded_carriers(tasks))
        ]

    def _to_update(self, task: ClientTask, raw) -> ClientUpdate:
        state, upload_payload, stats, rng_state = raw
        client = self._clients[task.client_index]
        client.rng_state = rng_state
        return ClientUpdate(
            client_index=task.client_index,
            client_id=client.client_id,
            state=state,
            stats=stats,
            payload=upload_payload,
        )

    def _resubmit(self, pool, futures, payloads, start: int) -> None:
        """Re-dispatch positions >= ``start`` that have no usable result.

        Futures that completed before the pool broke keep their results;
        everything else is resubmitted from its *original* payload, whose
        pre-captured RNG state makes the re-run bit-identical.
        """
        for position in range(start, len(payloads)):
            future = futures[position]
            done_ok = future.done() and not future.cancelled() and future.exception() is None
            if not done_ok:
                futures[position] = pool.submit(_worker_run_task, payloads[position])

    def imap_outcomes(
        self, tasks: Sequence[ClientTask], timeout: Optional[float] = None
    ) -> Iterator[Union[ClientUpdate, TaskFailure]]:
        if not tasks:
            return
        _check_one_task_per_client(tasks)
        pool = self._ensure_pool()
        payloads = self._payloads(tasks)
        futures = [pool.submit(_worker_run_task, payload) for payload in payloads]
        redispatches = [0] * len(tasks)
        position = 0
        # Futures are drained in submission order, so the coordinator folds
        # update i while updates i+1.. are still training (pool.imap's
        # streaming behavior, with failure detection on top).
        while position < len(tasks):
            task = tasks[position]
            client = self._clients[task.client_index]
            try:
                raw = futures[position].result(timeout=timeout)
            except BrokenExecutor as error:
                # A worker died; every pending future is lost.  Respawn and
                # re-dispatch the in-flight tasks, giving the victim a
                # bounded number of fresh chances.
                pool = self._respawn()
                redispatches[position] += 1
                if redispatches[position] > self.MAX_REDISPATCHES:
                    yield TaskFailure(
                        task_index=position,
                        client_index=task.client_index,
                        client_id=client.client_id,
                        kind="crash",
                        error=(
                            f"worker process died {redispatches[position]} times "
                            f"running this task ({error!r})"
                        ),
                    )
                    position += 1
                self._resubmit(pool, futures, payloads, position)
                continue
            except FuturesTimeoutError:
                # The worker is still running an abandoned task; it cannot
                # be trusted to pick up new work, so the pool is respawned.
                yield TaskFailure(
                    task_index=position,
                    client_index=task.client_index,
                    client_id=client.client_id,
                    kind="timeout",
                    error=f"task exceeded the {timeout:g}s per-task timeout",
                )
                pool = self._respawn()
                position += 1
                self._resubmit(pool, futures, payloads, position)
                continue
            if isinstance(raw, _WorkerFailure):
                yield TaskFailure(
                    task_index=position,
                    client_index=task.client_index,
                    client_id=client.client_id,
                    kind="exception",
                    error=raw.error,
                    traceback=raw.traceback,
                )
            else:
                yield self._to_update(task, raw)
            position += 1

    def close(self) -> None:
        self._shutdown_pool(kill=False)


class ThreadPoolBackend(ExecutionBackend):
    """Fans one round's client tasks out across a warm thread pool.

    NumPy releases the GIL inside its BLAS/gather kernels — exactly where
    the client step spends its time — so threads overlap the conv/GEMM work
    of different clients with **zero pickling**: tasks read and mutate the
    caller's own client objects directly, and states never cross a process
    boundary.

    Safety rests on the roster invariants the backend contract already
    guarantees: at most one task per client per ``map`` call, and every
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
    first ``map`` and stays warm across rounds (``spawn_count`` counts
    spawns, exactly like the process pool).

    The BLAS thread count is process-global state shared by every pool
    thread, so an explicit policy is applied as a context manager
    **around** each ``map``/``imap`` call (pin for the round, restore after)
    rather than per task.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None, blas_threads: BlasPolicy = BLAS_AUTO):
        super().__init__(blas_threads=blas_threads)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers) if workers is not None else default_worker_count()
        self.effective_workers = clamp_workers(self.workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        self.spawn_count = 0

    def _pool_size(self) -> int:
        return max(1, min(self.effective_workers, len(self._clients)))

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            if not self._clients:
                raise RuntimeError("ThreadPoolBackend.map called before bind()")
            self._executor = ThreadPoolExecutor(
                max_workers=self._pool_size(),
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


#: Registry of execution backends, keyed by their CLI name.
BACKENDS: Dict[str, type] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
}


#: The backends that take a worker count.
_POOLED = (ProcessPoolBackend.name, ThreadPoolBackend.name)


@dataclass(frozen=True)
class ExecutionOptions:
    """Where and how each round's client updates run, each option declared once.

    A field is the option: its name is the ``with_execution`` keyword and
    (dashed) the ``repro reproduce`` flag, its metadata the flag's help, and
    ``__post_init__`` its range.  ``backend`` accepts every name registered
    in :data:`BACKENDS` plus ``None`` / ``"auto"`` (infer from ``workers``);
    its ``choices`` are what ``repro reproduce`` offers — ``repro serve``
    sets ``"wire"``.  ``blas_threads=None`` leaves the BLAS pool unmanaged.
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
    more than one worker selects the process pool, otherwise serial — so
    ``--workers N`` alone is enough to opt into parallel execution, and
    ``--workers 1`` is guaranteed to reproduce serial results.  The thread
    backend is never auto-selected; ask for it with ``--backend thread``.

    ``blas_threads`` is the BLAS thread policy (``"auto"``, an exact count,
    or ``None`` to leave the BLAS library unmanaged); see
    :class:`ExecutionBackend` and ``--blas-threads`` on the CLI.
    """
    options = ExecutionOptions(name.lower() if name else None, workers, blas_threads)
    key = options.backend
    if key is None or key == "auto":
        key = ProcessPoolBackend.name if (workers or 1) > 1 else SerialBackend.name
    if key in _POOLED:
        return BACKENDS[key](workers=workers, blas_threads=blas_threads)
    # Serial and externally registered backends (e.g. "wire", whose own options the
    # experiment runner wires up) take no worker count; ExecutionOptions refused one.
    return BACKENDS[key](blas_threads=blas_threads)
