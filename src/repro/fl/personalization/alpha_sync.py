"""Alpha-portion sync personalization (Figure 2d).

Instead of one global average, the developer prepares a *customized*
aggregate for each client: the client's own previous parameters count for an
``alpha`` portion and the remaining ``1 - alpha`` portion is the
sample-weighted average of every other client's parameters.  The client then
trains from its customized aggregate.  Personalization is therefore almost
free — only the server-side mixing changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fl.algorithms.base import RoundAlgorithm, TrainingResult
from repro.fl.execution import ClientUpdate, RoundCheckpoint
from repro.fl.parameters import State


class AlphaPortionSync(RoundAlgorithm):
    """FedProx local training with per-client alpha-weighted aggregation.

    The server keeps every client's last state — O(K·P) memory by
    construction, since each participant's mix reads all of them — and
    nothing is averaged into one model: a kept update simply replaces its
    client's last state.  A client that has not trained yet holds the
    initialization, which is also the loop's (unchanging) state.
    """

    name = "fedprox_alpha"
    server_rule_config = ("alpha",)

    def _begin_run(self, global_state: State, resumed: Optional[RoundCheckpoint]) -> None:
        self._last: Dict[int, State] = {client.client_id: global_state for client in self.clients}
        if resumed is not None:
            for client_id in self._last:
                self._last[client_id] = resumed.extra_states[f"client_{client_id}"]

    def _checkpoint_extras(self) -> Tuple[Dict[str, State], Dict[str, object]]:
        return {f"client_{client_id}": state for client_id, state in self._last.items()}, {}

    def _start_states(self, global_state: State, cohort: Sequence[int]) -> List[State]:
        weights = {client.client_id: float(client.num_samples) for client in self.clients}
        customized = self.server.alpha_portion_sync(self._last, weights, self.config.alpha)
        return [customized[self.clients[index].client_id] for index in cohort]

    def _new_accumulators(self):
        return []

    def _fold_update(self, accumulators, global_state: State, update: ClientUpdate) -> None:
        self._last[update.client_id] = update.state

    def _server_step(self, global_state: State, accumulators) -> Tuple[State, Dict[str, object]]:
        return global_state, {}

    def _finish(self, result: TrainingResult, global_state: State) -> None:
        result.client_states = dict(self._last)
