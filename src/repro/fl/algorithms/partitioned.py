"""Partitioned FedProx: a shared part the server averages, a private part each client keeps.

FedBN keeps normalization layers private and FedProx-LG the output layer;
everything else is shared.  Each round a participant trains from
``merge_partition(global, private[k])`` — the global state with its own
private part overlaid — uploads only the shared part, and the server folds
that into one accumulator.  The two algorithms differ in which names are
private (and FedBN draws its initialization after the template that names
them).
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.fl.algorithms.base import RoundAlgorithm, TrainingResult
from repro.fl.execution import ClientUpdate, RoundCheckpoint
from repro.fl.parameters import State, filter_state, flat_model_state, merge_partition
from repro.models.base import RoutabilityModel


class PartitionedAlgorithm(RoundAlgorithm):
    """FedProx with every client keeping a private part of the model.

    The loop's state is the global model, whose private part stays at the
    initialization.  The server's record of a client is the private part of
    its last kept update; a client that has not trained yet uses the
    initialization's.  The shared part is uploaded in state-dict order
    (parameters, then buffers).
    """

    def private_names(self, model: RoutabilityModel) -> Collection[str]:
        """The state entries each client keeps to itself."""
        raise NotImplementedError

    def initial_state(self) -> State:
        template = self.model_factory()
        private = set(self.private_names(template))
        initial = flat_model_state(template)
        self._private_names: List[str] = [name for name in initial if name in private]
        self._shared_names: List[str] = [name for name in initial if name not in private]
        self._upload_names = self._shared_names if private else None
        return initial

    def _begin_run(self, global_state: State, resumed: Optional[RoundCheckpoint]) -> None:
        self._private: Dict[int, State] = {}
        for name, state in (resumed.extra_states if resumed is not None else {}).items():
            if name.startswith("private_"):
                self._private[int(name[len("private_"):])] = state

    def _checkpoint_extras(self) -> Tuple[Dict[str, State], Dict[str, object]]:
        return {f"private_{client_id}": state for client_id, state in self._private.items()}, {}

    def _client_state(self, global_state: State, client_id: int) -> State:
        private = self._private.get(client_id, global_state)
        return merge_partition(global_state, private, self._private_names)

    def _start_states(self, global_state: State, cohort: Sequence[int]) -> List[State]:
        return [self._client_state(global_state, self.clients[index].client_id) for index in cohort]

    def _fold_update(self, accumulators, global_state: State, update: ClientUpdate) -> None:
        accumulators[0].fold(filter_state(update.state, self._shared_names), self._weight(update))
        if self._private_names:
            self._private[update.client_id] = filter_state(update.state, self._private_names)

    def _server_step(self, global_state: State, accumulators) -> Tuple[State, Dict[str, object]]:
        if accumulators[0].count:
            global_state = merge_partition(global_state, accumulators[0].result(), self._shared_names)
        return global_state, {
            "local_parameters": len(self._private_names),
            "global_parameters": len(self._shared_names),
        }

    def _finish(self, result: TrainingResult, global_state: State) -> None:
        result.global_state = global_state
        for client in self.clients:
            result.client_states[client.client_id] = self._client_state(global_state, client.client_id)
