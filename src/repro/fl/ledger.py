"""The round ledger: where every cohort member ends up, under every round policy.

The federation does not control its clients, so each member of a barrier
round's cohort ends the round in exactly one of three states:

``folded``
    its update arrived in time and was aggregated;
``late``
    its update arrived after the deadline and was dropped — the round policy
    at work on a straggler, not a failure;
``failed``
    it used up its retries and produced no update.  It leaves every later
    cohort for good, and the aggregation weight the run lost is recorded.

Quorum counts only the failed: a round commits while ``cohort - failed``
reaches ``ceil(quorum * cohort)`` and raises the typed
:class:`~repro.fl.faults.QuorumFailure` below it.

Under ``fedbuff`` the ledger also runs FedBuff's event queue: it keeps a
fixed number of clients in flight, folds their updates in simulated-arrival
order and ends a round when the buffer is full.  A dispatched update is
``folded`` when it arrives, and ``late`` when the run ends (or is resumed)
before it arrives.  Either way the run totals obey
``selected == folded + late + failed``.
:class:`~repro.fl.scheduling.SchedulingSummary`,
:class:`~repro.fl.faults.ResilienceSummary` and each round record's
participation extras are views over them.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fl.faults import QuorumFailure, ResilienceManager, ResilienceSummary
from repro.fl.parameters import State
from repro.fl.scheduling import RoundScheduler, SchedulingSummary


class RoundLedger:
    """One algorithm run's participation: each round's states and the totals.

    Reads the cohort, the latencies, the deadline and the clock from the
    run's :class:`~repro.fl.scheduling.RoundScheduler`, and the quorum and
    the retry totals from its :class:`~repro.fl.faults.ResilienceManager`.
    Round-trips through :meth:`state` / :meth:`set_state`, so a resumed run
    leaves out the same clients and reports the same totals as an
    uninterrupted one.
    """

    def __init__(self, clients: Sequence, scheduler: RoundScheduler, resilience: ResilienceManager):
        self._clients = clients
        self._scheduler = scheduler
        self._resilience = resilience
        # Run totals.
        self.rounds = 0
        self.selected = 0
        self.folded = 0
        self.late = 0
        self._staleness_sum = 0.0
        self._staleness_max = 0
        # Roster indices that failed, left out of every later cohort.
        self._failed: set = set()
        self._renormalizations: List[Dict[str, object]] = []
        # The open round.
        self._round_index = 0
        self._start_time = 0.0
        self._latencies: Dict[int, float] = {}
        self._arrived: Dict[int, bool] = {}  # roster index -> in time, in arrival order
        self._retries_before = 0
        # FedBuff's event queue: (arrival, dispatch number, roster index,
        # round dispatched in, dispatch state, update) per update in flight.
        self._in_flight: List[Tuple[float, int, int, int, State, object]] = []
        self._concurrency: Optional[int] = None  # fixed by the first cohort
        self._refill_due = False  # the last arrival instant has ended
        self._arriving: Tuple[Optional[State], int] = (None, 0)

    def round(
        self,
        round_index: int,
        global_state: State,
        dispatch: Callable,
        fold: Callable,
        checkpoint_dir: Optional[str] = None,
    ) -> Dict[str, object]:
        """Run one round of the scheduler's policy; returns its participation extras.

        ``dispatch(cohort, on_arrival)`` trains ``cohort`` from
        ``global_state`` and returns its updates, handing each to
        ``on_arrival`` (if given) as it arrives; ``fold(update, kept)``
        takes one arrived update.  A barrier round (``sync`` / ``deadline``)
        is :meth:`begin`, one ``dispatch`` whose arrivals fold, the late
        with ``kept=False``, and :meth:`commit`.  A FedBuff round is
        :meth:`_buffered_round`.
        """
        if self._scheduler.policy == "fedbuff":
            return self._buffered_round(round_index, global_state, dispatch, fold)
        cohort = self.begin(round_index)
        dispatch(cohort, lambda update: fold(update, self.arrive(update.client_index)))
        return self.commit(checkpoint_dir)

    def close(self) -> List[int]:
        """End the run: FedBuff's updates still in flight are discarded, like
        a server draining at shutdown, and count as late.

        Returns the discarded updates' roster indices, whose clients the
        caller releases: a discarded update is never folded.
        """
        discarded = [entry[2] for entry in self._in_flight]
        self.late += len(discarded)
        self._in_flight, self._concurrency, self._refill_due = [], None, False
        self._arriving = (None, 0)
        return discarded

    # -- a barrier round -------------------------------------------------------
    def begin(self, round_index: int) -> List[int]:
        """Open a round; returns its cohort: the scheduler's, without the failed.

        The failed leave before the cohort's latencies are drawn, so the
        latency RNG never spends a draw on a client that cannot take part.
        """
        scheduler = self._scheduler
        cohort = [index for index in scheduler.begin_round(round_index) if index not in self._failed]
        self._round_index = round_index
        self._start_time = scheduler.clock.now
        self._latencies = {index: scheduler.draw_latency(index) for index in cohort}
        self._arrived = {}
        self._retries_before = self._resilience.retries
        return cohort

    def arrive(self, index: int) -> bool:
        """Record an update's arrival: ``True`` if it folds, ``False`` if it is late."""
        deadline = self._scheduler.deadline
        in_time = deadline is None or self._latencies[index] <= deadline
        self._arrived[index] = in_time
        return in_time

    def commit(self, checkpoint_dir: Optional[str] = None) -> Dict[str, object]:
        """Close the round; returns the round record's participation extras.

        A cohort member that never arrived failed.  Below quorum the round
        raises :class:`~repro.fl.faults.QuorumFailure` (naming
        ``checkpoint_dir``, the resume point) before anything is counted.
        Otherwise its states join the totals, its failed clients are dropped
        for good, and the clock advances by the round's duration: the
        deadline if anyone was late, else its slowest folded client.
        """
        cohort = list(self._latencies)
        failed = [index for index in cohort if index not in self._arrived]
        delivered = len(cohort) - len(failed)
        required = math.ceil(self._resilience.quorum * len(cohort))
        if delivered < required:
            raise QuorumFailure(
                self._round_index,
                arrived=delivered,
                required=required,
                cohort_size=len(cohort),
                checkpoint_dir=checkpoint_dir,
            )
        folded = [index for index, in_time in self._arrived.items() if in_time]
        late = [index for index, in_time in self._arrived.items() if not in_time]
        if late:
            duration = self._scheduler.deadline
        else:
            duration = max((self._latencies[index] for index in folded), default=0.0)
        self._scheduler.clock.advance(duration)
        self.rounds += 1
        self.selected += len(cohort)
        self.folded += len(folded)
        self.late += len(late)
        extra: Dict[str, object] = {
            "selected": len(cohort),
            "arrived": len(folded),
            "dropped": len(late),
            "dropped_indices": late,
            "round_duration_s": duration,
            "simulated_time_s": self._start_time + duration,
        }
        retries = self._resilience.retries - self._retries_before
        if retries:
            extra["retries"] = retries
        if failed:
            self._failed.update(failed)
            # Weighted averaging renormalizes over the participants by
            # itself, so the lost weight is recorded, not rescaled.
            weights = [float(client.num_samples) for client in self._clients]
            total = sum(weights)
            remaining = sum(weight for index, weight in enumerate(weights) if index not in self._failed)
            record: Dict[str, object] = {
                "round": self._round_index,
                "dropped_indices": failed,
                "dropped_ids": [self._clients[index].client_id for index in failed],
                "dropped_weight": total - remaining if total else 0.0,
                "remaining_weight_fraction": remaining / total if total else 1.0,
            }
            self._renormalizations.append(record)
            extra["dropped_clients"] = list(record["dropped_ids"])
            extra["remaining_weight_fraction"] = record["remaining_weight_fraction"]
        return extra

    # -- FedBuff ---------------------------------------------------------------
    def _buffered_round(
        self, round_index: int, global_state: State, dispatch: Callable, fold: Callable
    ) -> Dict[str, object]:
        """One FedBuff aggregation (Nguyen et al., 2022): fold arrivals until
        the buffer holds ``buffer_size`` updates.

        The ledger keeps the first cohort's size in flight.  Each dispatched
        update arrives a drawn latency after its dispatch; arrivals fold in
        simulated-time order (dispatch order breaks ties), each
        ``staleness`` aggregations after its dispatch.  Once every arrival
        of an instant has folded, the in-flight set is refilled, from the
        round's state, before the next arrival — so a refill owed by the
        instant that filled the buffer trains from the next round's state.
        With nobody in flight the ledger samples again, and the clock waits
        while nobody is available.
        """
        scheduler = self._scheduler
        in_flight = self._in_flight

        def sample() -> List[int]:
            busy = [entry[2] for entry in in_flight]
            size = None if self._concurrency is None else self._concurrency - len(busy)
            return scheduler.sample_clients(round_index, exclude=busy, size=size)

        def send(cohort: List[int]) -> None:
            updates = dispatch(cohort, None)
            for index, update in zip(cohort, updates):
                self.selected += 1
                arrival = scheduler.clock.now + scheduler.draw_latency(index)
                heapq.heappush(in_flight, (arrival, self.selected, index, round_index, global_state, update))

        staleness: List[int] = []
        while len(staleness) < scheduler.buffer_size:
            if self._refill_due:
                self._refill_due = False
                send(sample())
            while not in_flight:
                cohort = sample()
                if not cohort:
                    scheduler.wait_for_clients()
                    continue
                if self._concurrency is None:
                    self._concurrency = len(cohort)
                send(cohort)
            arrival, _, _, dispatched_in, dispatch_state, update = heapq.heappop(in_flight)
            scheduler.clock.advance_to(arrival)
            staleness.append(round_index - dispatched_in)
            self._arriving = (dispatch_state, staleness[-1])
            self.folded += 1
            self._staleness_sum += float(staleness[-1])
            self._staleness_max = max(self._staleness_max, staleness[-1])
            fold(update, True)
            self._refill_due = not in_flight or in_flight[0][0] != arrival
        self.rounds += 1
        return {
            "buffered_updates": len(staleness),
            "mean_staleness": float(sum(staleness) / len(staleness)),
            "max_staleness": int(max(staleness)),
            "simulated_time_s": scheduler.clock.now,
        }

    def dispatched(self) -> Tuple[State, int]:
        """The FedBuff update being folded: its dispatch state and its staleness."""
        return self._arriving

    # -- views -----------------------------------------------------------------
    def scheduling_summary(self) -> SchedulingSummary:
        """Participation, simulated time and staleness totals of the run."""
        scheduler = self._scheduler
        fedbuff = scheduler.policy == "fedbuff"
        return SchedulingSummary(
            policy=scheduler.policy,
            sampler=scheduler.sampler.describe(),
            availability=scheduler.availability.describe(),
            straggler=scheduler.latency.describe(),
            rounds=self.rounds,
            total_selected=self.selected,
            total_arrived=self.folded,
            total_dropped=self.late,
            simulated_seconds=scheduler.clock.now,
            buffered_aggregations=self.rounds if fedbuff else 0,
            updates_buffered=self.folded if fedbuff else 0,
            mean_staleness=self._staleness_sum / self.folded if fedbuff and self.folded else 0.0,
            max_staleness=self._staleness_max,
        )

    def resilience_summary(self, backend=None) -> ResilienceSummary:
        """Fault-tolerance totals of the run, with the backend's respawns.

        A backend exposing ``network_summary()`` (the wire backend) adds its
        network accounting — disconnects, heartbeat losses, reconnects,
        replayed messages — so a wire run reads like an in-process one.
        """
        resilience = self._resilience
        network_summary = getattr(backend, "network_summary", None)
        return ResilienceSummary(
            quorum=resilience.quorum,
            retries=resilience.retries,
            gave_up=resilience.gave_up,
            respawns=int(getattr(backend, "respawns", 0)),
            dropped_clients=[self._clients[index].client_id for index in sorted(self._failed)],
            injected=resilience.plan.injected_counts(),
            backoff_seconds=resilience.backoff_seconds,
            renormalizations=[dict(record) for record in self._renormalizations],
            retry_policy=resilience.retry.describe(),
            network=(dict(network_summary()) or None) if callable(network_summary) else None,
        )

    # -- checkpoint ------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """The totals and the failed clients, for a checkpoint's ``ledger_state``."""
        return {
            "counters": {
                "rounds": self.rounds,
                "selected": self.selected,
                "folded": self.folded,
                "late": self.late,
                "staleness_sum": self._staleness_sum,
                "staleness_max": self._staleness_max,
            },
            "failed": sorted(self._failed),
            "renormalizations": [dict(record) for record in self._renormalizations],
        }

    def set_state(self, meta: Dict[str, object]) -> None:
        """Restore :meth:`state` from a checkpoint's metadata.

        A checkpoint written before the ledger kept the totals in its
        ``scheduler_state`` counters — ``selected`` without the clients that
        gave up — and the failed clients in its ``resilience_state``; it
        restores to the same totals.  One with neither restores to zero.
        """
        state = meta.get("ledger_state")
        if state is None:
            counters = meta.get("scheduler_state", {}).get("counters", {})
            resilience = meta.get("resilience_state", {})
            gave_up = resilience.get("counters", {}).get("gave_up", 0)
            state = {
                "counters": {
                    **counters,
                    "selected": counters.get("selected", 0) + gave_up,
                    "folded": counters.get("arrived", 0),
                    "late": counters.get("dropped", 0),
                },
                "failed": resilience.get("failed", []),
                "renormalizations": resilience.get("renormalizations", []),
            }
        counters = state["counters"]
        self.rounds = int(counters.get("rounds", 0))
        self.selected = int(counters.get("selected", 0))
        self.folded = int(counters.get("folded", 0))
        self.late = int(counters.get("late", 0))
        self._staleness_sum = float(counters.get("staleness_sum", 0.0))
        self._staleness_max = int(counters.get("staleness_max", 0))
        self._failed = set(int(index) for index in state.get("failed", []))
        self._renormalizations = [dict(record) for record in state.get("renormalizations", [])]
        if self._scheduler.policy == "fedbuff":
            # A checkpoint keeps no update in flight: the resumed run
            # re-dispatches, so those dispatches are discarded and count as
            # late, as at shutdown.  (FedBuff runs fail no client.)
            self.late = self.selected - self.folded
