"""FedAvgM: server-side momentum on the aggregated update.

FedAvgM (Hsu et al., 2019) treats the difference between the previous global
model and the clients' weighted average as a pseudo-gradient and applies
momentum to it on the server.  Under the client-level heterogeneity of
routability data this damps the round-to-round oscillation of the global
model — the same fluctuation the paper's FLNet is designed to be robust to —
so it is a natural server-side complement to FedProx's client-side proximal
term.

Under a round scheduler the pseudo-gradient is computed from whichever
cohort updates survived the round policy; a round whose every selected
client missed the deadline leaves both the global model and the momentum
buffer untouched.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.fl.algorithms.base import FederatedAlgorithm, TrainingResult
from repro.fl.execution import ClientUpdate
from repro.fl.parameters import (
    FlatState,
    State,
    average_pairwise_distance,
    state_vector,
    zeros_like_state,
)


class FedAvgM(FederatedAlgorithm):
    """Federated averaging with server momentum (and optional proximal term)."""

    name = "fedavgm"
    supports_checkpointing = True
    supports_scheduling = True
    supports_resilience = True

    #: Server momentum coefficient; subclasses or experiments may override.
    server_momentum: float = 0.9

    def _fold_update(self, accumulator, global_state: State, update: ClientUpdate) -> None:
        accumulator.fold(
            update.state, float(self.clients[update.client_index].num_samples)
        )

    def _finalize_round(
        self, round_index: int, global_state: State, accumulator
    ) -> Tuple[State, Dict[str, object]]:
        extra: Dict[str, object] = {}
        if accumulator.count:
            client_states = accumulator.states()
            if client_states is not None:
                extra["client_drift"] = average_pairwise_distance(client_states)
            average = accumulator.result()

            # Pseudo-gradient: how far the average moved away from the global
            # model this round; momentum accumulates it across rounds, one
            # elementwise update over the whole contiguous buffer.
            layout = global_state.layout
            delta = global_state.vector - state_vector(average, layout)
            velocity = self.server_momentum * state_vector(self._velocity, layout) + delta
            self._velocity = FlatState(layout, velocity)
            global_state = FlatState(layout, global_state.vector - velocity)

        self.save_checkpoint(round_index, global_state, extra_states={"velocity": self._velocity})
        return global_state, extra

    def run(self) -> TrainingResult:
        if not 0.0 <= self.server_momentum < 1.0:
            raise ValueError(f"server_momentum must be in [0, 1), got {self.server_momentum}")
        result = TrainingResult(algorithm=self.name)
        global_state = self.initial_state()
        self._velocity: State = zeros_like_state(global_state)

        start_round = 0
        resumed = self.load_checkpoint(reference_state=global_state)
        if resumed is not None:
            start_round = resumed.round_index + 1
            global_state = resumed.global_state
            if "velocity" in resumed.extra_states:
                self._velocity = resumed.extra_states["velocity"]

        global_state = self._run_global_rounds(result, global_state, start_round)
        result.global_state = global_state
        return result
