"""The federated server (the "model developer" of the paper).

The server never sees data.  It hands each round loop the accumulators
client updates fold into (one global average, one per cluster, or the
shared part of a partitioned model) and computes alpha-portion sync's
per-client mixes.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.fl.aggregation import StreamingAccumulator, StreamingDeltaAccumulator
from repro.fl.parameters import (
    FlatState,
    State,
    as_flat_state,
    check_compatible,
    check_weight,
    clone_state,
    state_vector,
    weighted_average,
)


class FederatedServer:
    """Parameter-aggregation logic used by every algorithm in this package.

    Round loops fold updates one at a time through :meth:`accumulator`
    (see :mod:`repro.fl.aggregation`): up to 32 updates are written into
    the rows of one lent matrix and averaged by ``weighted_average``'s GEMV
    bit for bit, beyond that the fold is an O(P) running sum, and each
    client is released as soon as its update is folded.
    """

    def __init__(self):
        self._cohort_size = 0

    def begin_round(self, cohort_size: int) -> None:
        """Size the next accumulators by the cohort a round is dispatched to."""
        self._cohort_size = int(cohort_size)

    def accumulator(self) -> StreamingAccumulator:
        """A fresh accumulator for the current round: one sample-weighted
        average of at most its cohort's updates."""
        return StreamingAccumulator(self._cohort_size)

    def delta_accumulator(self) -> StreamingDeltaAccumulator:
        """A fresh delta accumulator (FedBuff staleness folds)."""
        return StreamingDeltaAccumulator()

    def aggregate(self, states: Sequence[State], weights: Sequence[float]) -> State:
        """Sample-count-weighted average: ``W^{r+1} = sum_k (n_k / n) w_k^r``."""
        return weighted_average(states, weights)

    def alpha_portion_sync(
        self,
        client_states: Dict[int, State],
        client_weights: Dict[int, float],
        alpha: float,
    ) -> Dict[int, State]:
        """Per-client customized aggregation (Figure 2d).

        For client ``k``:
        ``W_k = alpha * w_k + (1 - alpha) * sum_{k' != k} n_k' / (n - n_k) * w_k'``.
        With a single client the method degenerates to the client's own state.

        The leave-one-out averages are computed in O(K): the weighted sum
        over *all* clients is formed once and each client's own contribution
        is subtracted, instead of re-averaging the K-1 other states per
        client.  The whole computation runs on the contiguous buffers (one
        accumulation pass plus one fused expression per client).  Agrees
        with the per-client ``weighted_average`` loop to floating-point
        accuracy (see the parity test).
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        client_states = {cid: as_flat_state(state) for cid, state in client_states.items()}
        client_ids = list(client_states)
        if len(client_ids) == 1:
            only = client_ids[0]
            return {only: clone_state(client_states[only])}
        check_compatible([client_states[cid] for cid in client_ids])
        weights = {cid: check_weight(client_weights[cid]) for cid in client_ids}
        total_weight = sum(weights.values())
        layout = client_states[client_ids[0]].layout
        vectors = {cid: state_vector(client_states[cid], layout) for cid in client_ids}
        # One pass: sum_k n_k * w_k over every client, accumulated
        # sequentially in client order (a per-name ``sum(...)`` adds in the
        # same order, so the two are bit-identical).
        weighted_sum = np.zeros(layout.total_size, dtype=np.float64)
        for cid in client_ids:
            weighted_sum += weights[cid] * vectors[cid]
        result: Dict[int, State] = {}
        for client_id in client_ids:
            own = vectors[client_id]
            remaining = total_weight - weights[client_id]
            if remaining <= 0:
                # Every other client has zero weight: nothing to mix in.
                result[client_id] = clone_state(client_states[client_id])
                continue
            mixed = alpha * own + (1.0 - alpha) * (
                (weighted_sum - weights[client_id] * own) / remaining
            )
            result[client_id] = FlatState(layout, mixed)
        return result
