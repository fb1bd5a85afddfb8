"""The ``wire`` and ``process`` execution backends: client tasks run in joiner processes.

:class:`WireBackend` conforms to the :class:`~repro.fl.execution.backend
.ExecutionBackend` contract (``imap_outcomes`` yields one outcome per task
in task order, never raising per task) but dispatches every task over the
framed TCP protocol to joiners (:mod:`repro.fl.net.client`), remote ones
under ``"wire"`` and forked local ones under ``"process"``
(:class:`ProcessPoolBackend`).  It hosts the asyncio
:class:`~repro.fl.net.server.FederationServer` on a daemon thread and
bridges the two worlds with ``concurrent.futures.Future``:

* each distinct state carrier is encoded **once** per broadcast and
  submitted to the server once, so it is journaled once and crosses each connection
  once; every task names it by id, and the client's RNG state rides along,
  comes back trained, and is written into the roster client — which is
  what keeps a wire run bit-identical to a serial one;
* a network-level failure (socket death past the liveness deadline,
  heartbeat loss, undecodable stream, backend-side timeout) resolves the
  future to a :class:`~repro.fl.net.server.WireFailure`, which is converted
  here into a :class:`~repro.fl.faults.TaskFailure` of the same ``kind`` —
  so the resilience machinery retries socket death from its pre-captured
  RNG snapshot like any other failed task.
"""

from __future__ import annotations

import asyncio
import collections
import logging
import multiprocessing
import operator
import os
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.fl.execution.backend import (
    ClientTask,
    ClientUpdate,
    ExecutionBackend,
    _check_one_task_per_client,
    pool_size,
)
from repro.fl.faults.errors import TaskFailure
from repro.fl.faults.plan import check_rates
from repro.fl.net.client import run_client
from repro.fl.net.faults import WIRE_FAULT_KINDS, WireFaultPlan
from repro.fl.net.server import FederationServer, WireFailure
from repro.fl.transport.envelope import encode_carrier
from repro.utils.threadpools import BLAS_AUTO, BlasPolicy, set_blas_threads
from repro.utils.validation import check_in_range, check_positive

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WireOptions:
    """The federation-server options of a wire run, each declared once.

    A field is the option: its name is the ``with_wire`` keyword and
    (dashed, or as its ``flag`` metadata spells it) the ``repro serve``
    flag, its metadata the flag's help, and ``__post_init__`` its range.
    They take effect only under the ``"wire"`` execution backend;
    :meth:`WireBackend.from_options` is the one place that consumes them.
    """

    wire_host: str = field(default="127.0.0.1", metadata={
        "flag": "--host", "help": "address to bind (default 127.0.0.1)",
    })
    wire_port: int = field(default=0, metadata={
        "flag": "--port",
        "help": "TCP port to listen on (default 7733; 0 picks a free port, "
        "printed on the `serving federation` line)",
    })
    heartbeat_interval: float = field(default=2.0, metadata={
        "help": "seconds between liveness probes to each connected joiner (default 2)",
    })
    client_timeout: float = field(default=10.0, metadata={
        "help": "seconds of silence before a joiner counts as lost, and how long "
        "a lost joiner may take to reconnect before its in-flight tasks fail "
        "over to the retry machinery (default 10; must exceed the heartbeat "
        "interval)",
    })
    wire_journal_dir: Optional[str] = field(default=None, metadata={
        "flag": "--journal-dir",
        "help": "directory for the append-only dispatch journal backing "
        "reconnect-with-resume (default: a temporary directory)",
    })
    wire_fault_disconnect_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-send probability of dropping the connection "
        "instead of delivering a task frame (seeded; heals via replay)",
    })
    wire_fault_delay_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-send probability of withholding a task frame "
        "for up to --wire-delay-seconds",
    })
    wire_fault_corrupt_rate: float = field(default=0.0, metadata={
        "help": "chaos testing: per-send probability of flipping one byte of a "
        "task frame (rejected by the peer's CRC check; heals via replay)",
    })
    wire_delay_seconds: float = field(default=0.05, metadata={
        "help": "maximum hold time for injected delays (default 0.05)",
    })

    def __post_init__(self):
        check_in_range("wire_port", self.wire_port, 0, 65535)
        check_positive("heartbeat_interval", self.heartbeat_interval)
        if not self.client_timeout > self.heartbeat_interval:
            raise ValueError(
                f"client_timeout ({self.client_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}); liveness needs "
                "at least one missed probe"
            )
        check_positive("wire_delay_seconds", self.wire_delay_seconds, allow_zero=True)
        rates = (f"wire_fault_{kind}_rate" for kind in WIRE_FAULT_KINDS)
        check_rates("wire fault", {name: getattr(self, name) for name in rates})


class WireBackend(ExecutionBackend):
    """Dispatches one round's client tasks to connected joiner processes.

    The server starts lazily — on :meth:`listen` (the ``repro serve`` path,
    which wants the bound port before any round runs) or on the first
    :meth:`imap_outcomes` call — and stays up across rounds; sessions,
    journal, and counters persist for the whole run.

    Parameters mirror :class:`WireOptions` (see :meth:`from_options`):
    ``host``/``port`` to bind (port 0 picks a free one, readable from
    ``self.port`` after listen), the heartbeat cadence and liveness
    deadline, an on-disk journal directory (a temporary one otherwise), a
    :class:`WireFaultPlan` for chaos runs, and the run-identity
    ``fingerprint`` joiners must match.
    """

    name = "wire"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 2.0,
        client_timeout: float = 10.0,
        journal_dir=None,
        fault_plan: Optional[WireFaultPlan] = None,
        fingerprint: Optional[Dict[str, object]] = None,
        blas_threads: BlasPolicy = BLAS_AUTO,
    ):
        super().__init__(blas_threads=blas_threads)
        self.host = host
        self.port = int(port)
        self.heartbeat_interval = float(heartbeat_interval)
        self.client_timeout = float(client_timeout)
        self.journal_dir = journal_dir
        self.fault_plan = fault_plan
        self.fingerprint = dict(fingerprint) if fingerprint else {}
        self.server: Optional[FederationServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def from_options(cls, options: WireOptions, seed: int = 0, **backend) -> "WireBackend":
        """The backend ``options`` asks for, under a seeded fault plan if any rate is set
        (``backend``: the ``fingerprint`` / ``blas_threads`` keywords, passed through)."""
        plan = WireFaultPlan(
            disconnect_rate=options.wire_fault_disconnect_rate,
            delay_rate=options.wire_fault_delay_rate,
            corrupt_rate=options.wire_fault_corrupt_rate,
            delay_seconds=options.wire_delay_seconds,
            seed=seed,
        )
        return cls(
            host=options.wire_host,
            port=options.wire_port,
            heartbeat_interval=options.heartbeat_interval,
            client_timeout=options.client_timeout,
            journal_dir=options.wire_journal_dir,
            fault_plan=plan if plan.any_faults else None,
            **backend,
        )

    # -- loop / server lifecycle ---------------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            loop = asyncio.new_event_loop()

            def _run() -> None:
                asyncio.set_event_loop(loop)
                loop.run_forever()

            self._thread = threading.Thread(target=_run, name="repro-wire-loop", daemon=True)
            self._thread.start()
            self._loop = loop
        return self._loop

    def listen(self, client_ids: Optional[Sequence[int]] = None) -> int:
        """Start the federation server (idempotent); returns the bound port.

        ``client_ids`` defaults to the bound roster's ids; passing them
        explicitly lets ``repro serve`` print the listening address and
        wait for joiners before the first round dispatches anything.
        """
        if self.server is not None:
            return self.port
        if client_ids is None:
            if not self._clients:
                raise RuntimeError("WireBackend.listen needs client_ids or a bound roster")
            client_ids = [int(client.client_id) for client in self._clients]
        loop = self._ensure_loop()
        server = FederationServer(
            client_ids,
            host=self.host,
            port=self.port,
            heartbeat_interval=self.heartbeat_interval,
            client_timeout=self.client_timeout,
            journal_dir=self.journal_dir,
            fault_plan=self.fault_plan,
            fingerprint=self.fingerprint,
        )
        try:
            self.port = asyncio.run_coroutine_threadsafe(server.start(), loop).result()
        except OSError:
            # Release the journal opened before binding; keep no half-started server.
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result()
            raise
        self.server = server
        return self.port

    def bind(self, clients: Sequence) -> None:
        super().bind(clients)
        if self.server is not None:
            unknown = [
                int(client.client_id)
                for client in clients
                if int(client.client_id) not in self.server.sessions
            ]
            if unknown:
                raise RuntimeError(
                    f"wire server already listening for {sorted(self.server.sessions)}; "
                    f"cannot re-bind to a roster with unknown client ids {unknown}"
                )

    def wait_for_clients(self, timeout: Optional[float] = None) -> bool:
        """Block until every roster client has a live connection."""
        self.listen()
        return asyncio.run_coroutine_threadsafe(
            self.server.wait_for_clients(timeout), self._loop
        ).result()

    def network_summary(self) -> Dict[str, int]:
        """The server's network accounting (empty before the first listen)."""
        if self.server is None:
            return {}
        return self.server.network_summary()

    def close(self) -> None:
        if self.server is not None:
            try:
                asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(timeout=10)
            except Exception:  # pragma: no cover - best-effort shutdown
                logger.warning("federation server did not stop cleanly", exc_info=True)
            self.server = None
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=5)
            self._loop.close()
            self._loop = None
            self._thread = None

    # -- dispatch -------------------------------------------------------------------
    def imap_outcomes(
        self, tasks: Sequence[ClientTask], timeout: Optional[float] = None
    ) -> Iterator[Union[ClientUpdate, TaskFailure]]:
        if not tasks:
            return
        _check_one_task_per_client(tasks)
        self.listen()
        # A broadcast's tasks share one carrier (raw state or wire envelope),
        # encoded once and taken by the server once, with the number of tasks
        # that will name it.
        carriers = [task.wire if task.wire is not None else task.state for task in tasks]
        references = collections.Counter(map(id, carriers))
        state_ids: Dict[int, int] = {}
        futures = collections.deque()
        for task, carrier in zip(tasks, carriers):
            client = self._clients[task.client_index]
            if id(carrier) not in state_ids:
                blob = encode_carrier(carrier)
                state_ids[id(carrier)] = self.server.submit_state(blob, references[id(carrier)])
            futures.append(
                self.server.submit_task(
                    int(client.client_id),
                    task.op,
                    state_ids[id(carrier)],
                    task.wire is not None,
                    task.steps,
                    task.proximal_mu,
                    client.rng_state,
                )
            )
        # Drain in submission order (streaming, like every other backend).
        # Each future leaves the queue before its outcome is yielded and no
        # local outlives the yield, so once the caller has folded an update
        # nothing here keeps it: a round holds O(P), not one update per task.
        for position, task in enumerate(tasks):
            yield self._outcome(position, task, futures.popleft(), timeout)

    def _outcome(
        self, position: int, task: ClientTask, future: Future, timeout: Optional[float]
    ) -> Union[ClientUpdate, TaskFailure]:
        """Task ``position``'s outcome, once ``future`` resolves.

        Even with timeout=None every future resolves eventually: a session
        that loses its connection and is not re-claimed within the liveness
        deadline is reaped into a WireFailure.
        """
        client = self._clients[task.client_index]
        try:
            raw = self._wait(future, timeout)
        except FuturesTimeoutError:
            error = f"task exceeded the {timeout:g}s per-task timeout"
            self._give_up(task, future, error)
            return TaskFailure(
                task_index=position,
                client_index=task.client_index,
                client_id=client.client_id,
                kind="timeout",
                error=error,
            )
        if isinstance(raw, WireFailure):
            return TaskFailure(
                task_index=position,
                client_index=task.client_index,
                client_id=client.client_id,
                kind=raw.kind,
                error=raw.error,
                traceback=raw.traceback,
            )
        # A successful UpdateEnvelope: write the joiner's post-training RNG
        # state back into the roster client (this is what keeps wire == serial).
        if raw.rng_state is not None:
            client.rng_state = raw.rng_state
        return ClientUpdate(
            client_index=task.client_index,
            client_id=client.client_id,
            state=raw.state,
            stats=raw.stats,
            payload=raw.payload,
        )

    def _wait(self, future: Future, timeout: Optional[float]):
        """One task's raw outcome; raises ``FuturesTimeoutError`` past ``timeout``."""
        return future.result(timeout=timeout)

    def _give_up(self, task: ClientTask, future: Future, error: str) -> None:
        """Abandon a task that exceeded the per-task timeout."""
        self.server.abandon(future, "timeout", error)


def _serve_joiner(clients, host: str, port: int, blas_threads: Optional[int]) -> None:
    """A local joiner process: pin its own BLAS pool, then serve ``clients``."""
    if blas_threads is not None:
        set_blas_threads(blas_threads)
    run_client(clients, host, port)


#: Fork where the platform has it (cheap, and the roster need not pickle).
_FORK = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")


class ProcessPoolBackend(WireBackend):
    """``--backend process``: the wire backend serving N forked local joiners.

    The first :meth:`listen` (the first :meth:`imap_outcomes`) after
    :meth:`bind` forks ``min(effective_workers, roster)`` joiners; joiner *j*
    serves roster clients ``j::N`` and pins its BLAS pool first.  They stay
    up across rounds (``spawn_count`` counts launches) until :meth:`close`
    or a re-``bind`` to a different roster.  A dead joiner is restarted at
    once (``respawns``) and the journal replays its pending tasks; a task
    that heads that replay through ``MAX_REDISPATCHES + 1`` deaths in a row
    becomes a ``crash`` failure.  A task past the per-task timeout is
    abandoned and its joiner restarted.
    """

    name = "process"

    #: Restarts a task may head before it is abandoned as a crash.
    MAX_REDISPATCHES = 2

    #: Seconds between joiner liveness checks while a task is awaited.
    POLL_SECONDS = 0.1

    def __init__(self, workers: Optional[int] = None, blas_threads: BlasPolicy = BLAS_AUTO):
        super().__init__(blas_threads=blas_threads)
        self.workers, self.effective_workers = pool_size(workers)
        self.spawn_count = self.respawns = 0
        self._joiners: List = []
        #: Per joiner: the ``(client id, seq)`` of the task heading its replay
        #: at its last death, and its deaths in a row.  A key, not the task's
        #: future, so a resolved update is not kept past its round.
        self._deaths: List[Tuple[Optional[Tuple[int, int]], int]] = []

    def bind(self, clients: Sequence) -> None:
        roster = list(clients)
        if len(roster) != len(self._clients) or not all(map(operator.is_, roster, self._clients)):
            self.close()  # the joiners host the roster they were forked with
        super().bind(roster)

    def listen(self, client_ids: Optional[Sequence[int]] = None) -> int:
        """Start the server and fork the joiners on first use; restart any that died since."""
        if not self._clients:
            raise RuntimeError("ProcessPoolBackend used before bind()")
        port = super().listen(client_ids)
        if not self._joiners:
            count = max(1, min(self.effective_workers, len(self._clients)))
            self._joiners = [self._fork(index, count) for index in range(count)]
            self._deaths = [(None, 0)] * count
            self.spawn_count += 1
        self._restart_dead()
        return port

    def _fork(self, index: int, count: int):
        hosted = self._clients[index::count]
        args = (hosted, self.host, self.port, self.resolved_blas_threads())
        process = _FORK.Process(target=_serve_joiner, args=args, name=f"repro-joiner-{index}", daemon=True)
        # The server's loop thread is parked between two callbacks while the
        # child is forked, so the child inherits no lock that thread held.
        parked, resume = threading.Event(), threading.Event()
        self._loop.call_soon_threadsafe(lambda: (parked.set(), resume.wait()))
        parked.wait()
        try:
            process.start()
        finally:
            resume.set()
        return process

    def _restart(self, index: int) -> None:
        _stop(self._joiners[index])
        self._joiners[index] = self._fork(index, len(self._joiners))
        self.respawns += 1
        logger.warning("local joiner %d lost; restarting it (respawn #%d)", index, self.respawns)

    def _restart_dead(self) -> None:
        for index, process in enumerate(self._joiners):
            if process.exitcode is None:
                continue
            # A restarted joiner replays its clients in id order, each in seq order.
            hosted = self._clients[index :: len(self._joiners)]
            head = future = None
            for client_id in sorted(int(c.client_id) for c in hosted):
                tasks = self.server.sessions[client_id].pending
                seq = min(tasks, default=0)
                future = tasks.get(seq)
                if future is not None:
                    head = (client_id, seq)
                    break
            last, deaths = self._deaths[index]
            deaths = deaths + 1 if head is not None and head == last else 1
            self._deaths[index] = (head, deaths)
            if head is not None and deaths > self.MAX_REDISPATCHES:
                # Abandoned before the restart, so the new joiner's replay drops it.
                error = f"local joiner died {deaths} times running this task "
                error += f"(exit code {process.exitcode})"
                self.server.abandon(future, "crash", error)
                self._deaths[index] = (None, 0)
            self._restart(index)

    def _wait(self, future: Future, timeout: Optional[float]):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            left = self.POLL_SECONDS if deadline is None else deadline - time.monotonic()
            try:
                return future.result(timeout=max(0.0, min(self.POLL_SECONDS, left)))
            except FuturesTimeoutError:
                if deadline is not None and left <= self.POLL_SECONDS:
                    raise
                self._restart_dead()

    def _give_up(self, task: ClientTask, future: Future, error: str) -> None:
        super()._give_up(task, future, error)
        self._restart(task.client_index % len(self._joiners))  # it still runs the task

    def close(self) -> None:
        super().close()  # goodbye to every connected joiner; any still up is then killed
        joiners, self._joiners, self._deaths = self._joiners, [], []
        for process in joiners:
            _stop(process)


def _stop(process) -> None:
    """Kill a joiner (a no-op once it has exited) and reap it."""
    process.kill()
    process.join()
    process.close()


__all__ = ["ProcessPoolBackend", "WireBackend", "WireOptions"]
