"""FedProx and FedAvg decentralized training.

FedProx (Li et al., 2018) is the paper's chosen federated optimizer: each
round, every client trains the received global model on its own data with a
proximal term ``mu * ||W^r - w_k||^2`` that limits client drift, then the
developer aggregates the returned parameters weighted by sample count.
FedAvg is the special case ``mu = 0``.

Both algorithms honor a :class:`~repro.fl.scheduling.RoundScheduler`: under
partial participation only the sampled cohort trains, under the deadline
policy straggler updates are dropped before aggregation, and under the
``fedbuff`` policy the synchronous barrier disappears entirely —
:meth:`FedProx._run_fedbuff` runs the buffered-asynchronous event loop of
Nguyen et al. (2022), aggregating staleness-weighted update deltas whenever
the server-side buffer fills.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.fl.algorithms.base import GlobalModelAlgorithm, TrainingResult, logger
from repro.fl.execution import ClientUpdate
from repro.fl.parameters import State


@dataclass
class _InFlight:
    """One dispatched client task awaiting its simulated arrival.

    Heap entries are ``(arrival, seq)`` tuples pointing at these records:
    arrival instant first, dispatch order as the deterministic tie-break
    (``seq`` is unique, so the record itself is never compared).
    """

    arrival: float
    seq: int
    client_index: int
    version: int
    dispatch_state: State
    update: ClientUpdate


class FedProx(GlobalModelAlgorithm):
    """The decentralized training loop of Figure 1 with the FedProx objective."""

    name = "fedprox"
    supports_fedbuff = True

    # -- buffered-asynchronous aggregation (FedBuff) ------------------------------
    def _run_fedbuff(
        self, result: TrainingResult, global_state: State, start_round: int
    ) -> State:
        """The FedBuff event loop: no barrier, staleness-weighted buffering.

        The server keeps a fixed number of clients training concurrently
        (the sampler's cohort size).  Each dispatched client trains from the
        then-current global model; its update *arrives* after a simulated
        straggler latency.  Arrivals are buffered as update deltas weighted
        by ``n_k * (1 + staleness) ** -exponent`` — staleness being how many
        aggregations happened since the client was dispatched — and every
        time the buffer holds ``buffer_size`` updates the server folds it
        into the global model and bumps the model version.  One aggregation
        counts as one "round" against ``config.rounds``.

        When every buffered update is fresh (staleness zero, dispatched from
        the current model) the fold reduces to exactly the synchronous
        sample-weighted average, so FedBuff with buffer size K and zero
        latency is bit-identical to synchronous FedAvg over the same cohort.

        Simulation correctness note: an update's content depends only on the
        state the client was *dispatched* with, so client computation runs
        eagerly at dispatch (through the execution backend, and through the
        transport channel when one is attached — async payload bytes are
        measured like any other round's) while its arrival is re-ordered by
        the virtual clock.
        """
        scheduler = self.scheduler
        if self.checkpoint is not None:
            # In-flight (dispatched, not yet aggregated) work is not part of
            # a round checkpoint; a resumed fedbuff run re-dispatches from
            # the checkpointed model instead of replaying lost flights.
            logger.warning(
                "%s: fedbuff checkpoints cover aggregations, not in-flight "
                "updates; a resumed run is deterministic but not bit-identical "
                "to an uninterrupted one",
                self.name,
            )
        mu = self.proximal_mu()
        steps = self.config.local_steps
        version = start_round
        heap: List[Tuple[float, int, _InFlight]] = []
        in_flight: set = set()
        seq = 0

        def dispatch(indices: Sequence[int]) -> None:
            nonlocal seq
            if not indices:
                return
            updates = self.map_client_updates(
                global_state, steps=steps, proximal_mu=mu, cohort=indices
            )
            scheduler.record_dispatch(len(indices))
            for index, update in zip(indices, updates):
                arrival = scheduler.clock.now + scheduler.draw_latency(index)
                entry = _InFlight(
                    arrival=arrival,
                    seq=seq,
                    client_index=index,
                    version=version,
                    dispatch_state=global_state,
                    update=update,
                )
                heapq.heappush(heap, (arrival, seq, entry))
                in_flight.add(index)
                seq += 1

        # The concurrency target: how many clients train at once.  Fixed at
        # the first cohort's size so the sampler's size rule (fraction or
        # clients-per-round) sets it.
        initial = scheduler.sample_clients(version, exclude=())
        while not initial:
            scheduler.wait_for_clients()
            initial = scheduler.sample_clients(version, exclude=())
        concurrency = len(initial)
        dispatch(initial)

        # Each arrival's delta is folded (and its client released) at arrival
        # time; the buffer itself only remembers what the round record needs.
        delta_accumulator = self.server.delta_accumulator()
        buffered_staleness: List[int] = []
        buffer_losses: Dict[int, float] = {}

        while version < self.config.rounds:
            if not heap:
                refill = scheduler.sample_clients(
                    version, exclude=in_flight, size=concurrency - len(in_flight)
                )
                if not refill:
                    scheduler.wait_for_clients()
                    continue
                dispatch(refill)
                continue
            # Process every arrival landing at the same instant before
            # refilling, so zero-latency batches behave synchronously.
            batch_time = heap[0][0]
            scheduler.clock.advance_to(batch_time)
            while heap and heap[0][0] == batch_time and version < self.config.rounds:
                _, _, entry = heapq.heappop(heap)
                in_flight.discard(entry.client_index)
                staleness = version - entry.version
                weight = float(
                    self.clients[entry.client_index].num_samples
                ) * scheduler.staleness_weight(staleness)
                buffered_staleness.append(staleness)
                buffer_losses[entry.update.client_id] = entry.update.stats.mean_loss
                scheduler.record_buffered(staleness)
                # Fresh at fold time stays fresh at aggregation time: the
                # global model only rebinds at an aggregation, which also
                # resets the buffer and the accumulator.
                delta_accumulator.fold(
                    entry.update.state,
                    entry.dispatch_state,
                    weight,
                    fresh=staleness == 0 and entry.dispatch_state is global_state,
                )
                self._release_client(entry.client_index)
                if len(buffered_staleness) >= scheduler.buffer_size:
                    global_state = delta_accumulator.result(global_state)
                    delta_accumulator.reset()
                    self.server.record_folds(len(buffered_staleness))
                    round_index = version
                    version += 1
                    scheduler.record_aggregation()
                    self.save_checkpoint(round_index, global_state)
                    result.history.append(
                        self._round_record(
                            round_index,
                            buffer_losses,
                            extra={
                                "buffered_updates": len(buffered_staleness),
                                "mean_staleness": float(
                                    sum(buffered_staleness) / len(buffered_staleness)
                                ),
                                "max_staleness": int(max(buffered_staleness)),
                                "simulated_time_s": scheduler.clock.now,
                            },
                        )
                    )
                    buffered_staleness = []
                    buffer_losses = {}
            if version >= self.config.rounds:
                break
            refill = scheduler.sample_clients(
                version, exclude=in_flight, size=concurrency - len(in_flight)
            )
            dispatch(refill)

        # The run stops at the aggregation budget; in-flight work that never
        # arrived is discarded, like a server draining at shutdown.  (Updates
        # already sitting in the buffer arrived and were counted as such;
        # they are simply never folded in.)
        scheduler.record_discarded(len(heap))
        return global_state


class FedAvg(FedProx):
    """FedAvg (McMahan et al., 2017): FedProx without the proximal term."""

    name = "fedavg"

    def proximal_mu(self) -> float:
        return 0.0
