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

from typing import Dict, Optional, Tuple

from repro.fl.algorithms.base import GlobalModelAlgorithm
from repro.fl.execution import RoundCheckpoint
from repro.fl.parameters import FlatState, State, state_vector, zeros_like_state


class FedAvgM(GlobalModelAlgorithm):
    """Federated averaging with server momentum (and optional proximal term)."""

    name = "fedavgm"

    #: Server momentum coefficient; subclasses or experiments may override.
    server_momentum: float = 0.9

    def _begin_run(self, global_state: State, resumed: Optional[RoundCheckpoint]) -> None:
        if not 0.0 <= self.server_momentum < 1.0:
            raise ValueError(f"server_momentum must be in [0, 1), got {self.server_momentum}")
        self._velocity: State = zeros_like_state(global_state)
        if resumed is not None and "velocity" in resumed.extra_states:
            self._velocity = resumed.extra_states["velocity"]

    def _checkpoint_extras(self) -> Tuple[Dict[str, State], Dict[str, object]]:
        return {"velocity": self._velocity}, {}

    def _apply_average(self, global_state: State, average: State) -> State:
        # Pseudo-gradient: how far the average moved away from the global
        # model this round; momentum accumulates it across rounds, one
        # elementwise update over the whole contiguous buffer.
        layout = global_state.layout
        delta = global_state.vector - state_vector(average, layout)
        velocity = self.server_momentum * state_vector(self._velocity, layout) + delta
        self._velocity = FlatState(layout, velocity)
        return FlatState(layout, global_state.vector - velocity)
