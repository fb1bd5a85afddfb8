"""Fold-and-release server aggregation.

The server step of the paper is ``W^{r+1} = sum_k (n_k / n) w_k^r``.  Round
loops never hold a whole cohort to compute it: they ask the
:class:`~repro.fl.server.FederatedServer` for a fresh accumulator, fold each
kept update into it as it arrives (dropping the update — and, under lazy
client virtualization, releasing the client — right after), and read
:meth:`StreamingAccumulator.result` once at the end.

Summation-order rules
---------------------
:func:`~repro.fl.parameters.weighted_average` normalizes the weights first
and computes ``(w / total) @ matrix`` over a (K, P) work matrix.  A running
fold computes ``sum(w_k * v_k) / total`` — sum-then-normalize — which
differs in the last few ulps.  The first :data:`PARITY_LIMIT` updates are
therefore *buffered* and ``result()`` delegates to ``weighted_average``,
bit for bit; update ``PARITY_LIMIT + 1`` spills the buffer into one O(P)
running sum that agrees with the (K, P) product to ~1e-12 relative error
and whose memory no longer depends on the cohort size.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    StateLayout,
    as_flat_state,
    check_compatible,
    check_weight,
    state_vector,
    weighted_average,
)

#: Updates buffered before an accumulator spills into its running O(P) form.
#: Every paper table, golden and CI witness folds at most this many updates
#: per aggregation and is therefore exactly ``weighted_average``.
PARITY_LIMIT = 32


def _delta(update: State, dispatch: State, layout: StateLayout) -> np.ndarray:
    return state_vector(update, layout) - state_vector(dispatch, layout)


class UpdateAccumulator:
    """What a round loop needs from a per-round fold target."""

    def fold(self, state: State, weight: float) -> None:
        """Fold one client's state with aggregation weight ``n_k``."""
        raise NotImplementedError

    def result(self) -> State:
        """The weighted average of everything folded so far."""
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Number of updates folded so far."""
        raise NotImplementedError

    def states(self) -> Optional[List[State]]:
        """The individual folded states, or ``None`` once they are gone.

        Diagnostics that need them (``client_drift``) read them from here;
        a spilled accumulator returns ``None`` and the diagnostic is
        skipped — that is the price of O(P) memory.
        """
        return None


class StreamingAccumulator(UpdateAccumulator):
    """One round's sample-weighted average, folded one update at a time."""

    def __init__(self):
        self._pending: List[Tuple[FlatState, float]] = []
        self._layout: Optional[StateLayout] = None
        self._sum: Optional[np.ndarray] = None
        # The running sum viewed as a state: what a spilled fold validates
        # each incoming state against.
        self._sum_state: Optional[State] = None
        self._weight_total = 0.0
        self._count = 0

    @property
    def spilled(self) -> bool:
        """Whether the accumulator has left the exact-parity buffer."""
        return self._sum is not None

    @property
    def count(self) -> int:
        return self._count

    def fold(self, state: State, weight: float) -> None:
        state = as_flat_state(state)
        weight = check_weight(weight)
        if self._sum is None and len(self._pending) < PARITY_LIMIT:
            self._pending.append((state, weight))
        else:
            if self._sum is None:
                self._spill()
            check_compatible([self._sum_state, state])
            self._sum += weight * state_vector(state, self._layout)
        self._count += 1
        self._weight_total += weight

    def _spill(self) -> None:
        """Leave the parity buffer: fold the buffered pairs into the running sum."""
        states = [state for state, _ in self._pending]
        check_compatible(states)
        self._layout = states[0].layout  # the first update fixes the fold order
        self._sum = np.zeros(self._layout.total_size, dtype=np.float64)
        self._sum_state = FlatState(self._layout, self._sum)
        for state, weight in self._pending:
            self._sum += weight * state_vector(state, self._layout)
        self._pending = []

    def result(self) -> FlatState:
        if self._sum is None:
            return weighted_average(
                [state for state, _ in self._pending],
                [weight for _, weight in self._pending],
            )
        if self._weight_total <= 0:
            raise ValueError("weights must not all be zero")
        return FlatState(self._layout, self._sum / self._weight_total)

    def states(self) -> Optional[List[State]]:
        if self._sum is not None:
            return None
        return [state for state, _ in self._pending]


class StreamingDeltaAccumulator:
    """The FedBuff staleness-weighted delta fold.

    FedBuff folds ``global += (w_i / total) * (update_i - dispatch_i)`` over
    the buffered updates, in arrival order, with one special case: an
    all-fresh buffer (every update dispatched from the current model)
    reduces to the synchronous ``weighted_average``.  While the buffer holds
    at most :data:`PARITY_LIMIT` entries the raw states are kept and that
    math is reproduced exactly; beyond it the buffer spills into a running
    ``sum(w_i * (update_i - dispatch_i))`` — O(P) memory, agreeing with the
    exact fold to ~1e-12.

    The total weight is unknown until the buffer closes, so the
    normalization happens in :meth:`result`.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Start a fresh buffer (called after every aggregation)."""
        self._pending: List[Tuple[FlatState, FlatState, float, bool]] = []
        self._layout: Optional[StateLayout] = None
        self._delta_sum: Optional[np.ndarray] = None
        self._sum_state: Optional[State] = None
        self._weight_total = 0.0
        self._count = 0

    @property
    def spilled(self) -> bool:
        return self._delta_sum is not None

    @property
    def count(self) -> int:
        return self._count

    def fold(self, update: State, dispatch: State, weight: float, fresh: bool) -> None:
        """Fold one arrived update delta.

        ``fresh`` marks updates dispatched from the current global model
        (staleness zero); an all-fresh parity buffer takes the synchronous
        ``weighted_average`` special case.
        """
        update, dispatch = as_flat_state(update), as_flat_state(dispatch)
        weight = check_weight(weight)
        if self._delta_sum is None and len(self._pending) < PARITY_LIMIT:
            self._pending.append((update, dispatch, weight, fresh))
        else:
            if self._delta_sum is None:
                self._spill()
            check_compatible([self._sum_state, update, dispatch])
            self._delta_sum += weight * _delta(update, dispatch, self._layout)
        self._count += 1
        self._weight_total += weight

    def _spill(self) -> None:
        check_compatible(
            [state for update, dispatch, _, _ in self._pending for state in (update, dispatch)]
        )
        self._layout = self._pending[0][0].layout
        self._delta_sum = np.zeros(self._layout.total_size, dtype=np.float64)
        self._sum_state = FlatState(self._layout, self._delta_sum)
        for update, dispatch, weight, _ in self._pending:
            self._delta_sum += weight * _delta(update, dispatch, self._layout)
        self._pending = []

    def result(self, global_state: State) -> FlatState:
        """The buffered fold applied to ``global_state``."""
        global_state = as_flat_state(global_state)
        if self._count == 0:
            return global_state
        if self._weight_total <= 0:
            raise ValueError("weights must not all be zero")
        total = self._weight_total
        if self._delta_sum is not None:
            return FlatState(
                self._layout,
                state_vector(global_state, self._layout) + self._delta_sum / total,
            )
        if all(fresh for _, _, _, fresh in self._pending):
            # Every update is fresh: identical to the synchronous
            # sample-weighted average over the buffered clients.
            return weighted_average(
                [update for update, _, _, _ in self._pending],
                [weight for _, _, weight, _ in self._pending],
            )
        # The exact per-entry fold, in arrival order.
        layout = global_state.layout
        folded = global_state.vector.copy()
        for update, dispatch, weight, _ in self._pending:
            folded += (weight / total) * _delta(update, dispatch, layout)
        return FlatState(layout, folded)
