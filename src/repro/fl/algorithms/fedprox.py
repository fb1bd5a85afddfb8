"""FedProx and FedAvg decentralized training.

FedProx (Li et al., 2018) is the paper's chosen federated optimizer: each
round, every client trains the received global model on its own data with a
proximal term ``mu * ||W^r - w_k||^2`` that limits client drift, then the
developer aggregates the returned parameters weighted by sample count.
FedAvg is the special case ``mu = 0``.

Both run the one round loop under every round policy.  Under partial
participation only the sampled cohort trains, under the deadline policy
straggler updates are dropped before aggregation, and under the ``fedbuff``
policy the synchronous barrier disappears: the round ledger runs the
buffered-asynchronous event queue of Nguyen et al. (2022), and FedProx folds
each arrival as a staleness-weighted update delta.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.fl.aggregation import StreamingAccumulator, StreamingDeltaAccumulator
from repro.fl.algorithms.base import RoundAlgorithm
from repro.fl.execution import ClientUpdate
from repro.fl.parameters import State


class FedProx(RoundAlgorithm):
    """The decentralized training loop of Figure 1 with the FedProx objective.

    Under the ``fedbuff`` policy each round folds ``buffer_size`` arrivals as
    update deltas (new state minus the state it was dispatched from),
    weighted by ``n_k * (1 + staleness) ** -exponent``, where staleness is
    how many aggregations happened since the client was dispatched.  When
    every buffered update is fresh the fold reduces to exactly the
    synchronous sample-weighted average, so FedBuff with buffer size K and
    zero latency is bit-identical to synchronous FedAvg over the same cohort.
    """

    name = "fedprox"
    supports_fedbuff = True

    def _new_accumulators(self) -> List[Union[StreamingAccumulator, StreamingDeltaAccumulator]]:
        if self.scheduler.policy != "fedbuff":
            return super()._new_accumulators()
        return [self.server.delta_accumulator()]

    def _fold_update(self, accumulators, global_state: State, update: ClientUpdate) -> None:
        if self.scheduler.policy != "fedbuff":
            return super()._fold_update(accumulators, global_state, update)
        # A round's dispatches all train from its state, so an update
        # dispatched this round (staleness zero) is fresh.
        dispatch_state, staleness = self.ledger.dispatched()
        weight = self._weight(update) * self.scheduler.staleness_weight(staleness)
        accumulators[0].fold(update.state, dispatch_state, weight, fresh=staleness == 0)

    def _server_step(self, global_state: State, accumulators) -> Tuple[State, Dict[str, object]]:
        if self.scheduler.policy != "fedbuff":
            return super()._server_step(global_state, accumulators)
        return accumulators[0].result(global_state), {}


class FedAvg(FedProx):
    """FedAvg (McMahan et al., 2017): FedProx without the proximal term."""

    name = "fedavg"

    def proximal_mu(self) -> float:
        return 0.0
