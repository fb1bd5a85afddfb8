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
therefore written into the rows of such a matrix and ``result()`` is
``weighted_average``'s GEMV over them, bit for bit; update
``PARITY_LIMIT + 1`` spills the rows into one O(P) running sum that agrees
with the (K, P) product to ~1e-12 relative error and whose memory no longer
depends on the cohort size.

Server memory
-------------
A round holds each update once: the first fold lends a (min(cohort,
PARITY_LIMIT), P) matrix (:func:`~repro.fl.parameters.lend_matrix`; sized
by the dispatched cohort, as NumPy gives arrays of 4 MB and up huge pages
that an over-sized matrix would fault in), each fold copies its state into
a row and the caller drops it, and ``result()`` or the spill hands the
matrix back.  A K-update round peaks at one (K, P) matrix plus a few
P-vectors, not the K held updates plus their (K, P) copy.

Client drift
------------
The ``client_drift`` diagnostic is the RMS pairwise distance between the
folded states.  ``sum_{i<j} ||x_i - x_j||^2 = K * sum_i ||x_i - mean||^2``
with the *unweighted* mean, so it is Welford's running variance, folded per
arrival in both phases: O(P) per fold, one extra P-vector, no (K, P) stack.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    StateLayout,
    as_flat_state,
    check_compatible,
    check_weight,
    hand_back_matrix,
    lend_matrix,
    normalized_weights,
    state_vector,
    weighted_average,
)

#: Updates folded into rows before an accumulator spills into its running O(P) form.
#: Every paper table, golden and CI witness folds at most this many updates
#: per aggregation and is therefore exactly ``weighted_average``.
PARITY_LIMIT = 32


def _delta(update: State, dispatch: State, layout: StateLayout) -> np.ndarray:
    return state_vector(update, layout) - state_vector(dispatch, layout)


class StreamingAccumulator:
    """One round's sample-weighted average of at most ``rows`` updates (its
    cohort), folded one at a time; ``result()`` ends it."""

    def __init__(self, rows: int):
        self._rows = int(rows)
        self._matrix: Optional[np.ndarray] = None
        self._weights: List[float] = []
        self._layout: Optional[StateLayout] = None
        self._sum: Optional[np.ndarray] = None
        # What each fold's state must match: row 0, then the running sum.
        self._reference: Optional[State] = None
        self._weight_total = 0.0
        self._count = 0
        self._closed = False
        # Welford's spread of ``state - first state``: origin (row 0), mean, M2.
        self._origin: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._m2 = 0.0

    @property
    def count(self) -> int:
        """Number of updates folded so far."""
        return self._count

    def states(self) -> None:
        """Always ``None``: an accumulator keeps no folded state.

        Nothing in the package reads it; it stays because
        ``bench/workload.py``'s tracing wraps it on every accumulator.
        """
        return None

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("this accumulator's result was read; start a new one")

    def fold(self, state: State, weight: float) -> None:
        """Fold one client's state with aggregation weight ``n_k``: check it
        against the first one, then copy it into its row."""
        self._check_open()
        state = as_flat_state(state)
        weight = check_weight(weight)
        if self._reference is not None:
            check_compatible([self._reference, state])
        if self._count == self._rows:
            raise ValueError(f"fold {self._count + 1} past the {self._rows} updates this accumulator expects")
        if self._layout is None:
            self._layout = state.layout  # the first update fixes the fold order
            self._matrix = lend_matrix(min(self._rows, PARITY_LIMIT), self._layout.total_size)
            self._reference = FlatState(self._layout, self._matrix[0])
        vector = state_vector(state, self._layout)
        if self._count == PARITY_LIMIT:
            self._spill()
        if self._sum is None:
            self._matrix[self._count] = vector
            self._weights.append(weight)
        else:
            self._sum += weight * vector
        self._fold_spread(vector)
        self._count += 1
        self._weight_total += weight

    def _fold_spread(self, vector: np.ndarray) -> None:
        """Welford's update on ``state - first state``; weights never enter it.

        Nearby states subtract exactly (Sterbenz), so nearly identical states
        keep their spread instead of losing it to cancellation.
        """
        if self._origin is None:
            self._origin, self._mean = self._matrix[0], np.zeros(vector.size)
            return
        delta = vector - self._origin
        delta -= self._mean
        count = self._count + 1
        # einsum, not BLAS: a 2-thread OpenBLAS ddot took 8 ms on a 2.9 MB state.
        self._m2 += (count - 1) / count * float(np.einsum("i,i->", delta, delta))
        delta /= count
        self._mean += delta

    def _spill(self) -> None:
        """Leave the parity rows: fold them into the running sum, hand the matrix back."""
        self._sum = np.zeros(self._layout.total_size, dtype=np.float64)
        for row, weight in zip(self._matrix, self._weights):
            self._sum += weight * row
        self._origin = self._matrix[0].copy()
        self._reference = FlatState(self._layout, self._sum)
        hand_back_matrix(self._matrix)
        self._matrix, self._weights = None, []

    def result(self) -> FlatState:
        """The weighted average of everything folded; the accumulator ends here."""
        self._check_open()
        if self._sum is not None:
            if self._weight_total <= 0:
                raise ValueError("weights must not all be zero")
            average = self._sum / self._weight_total
        else:
            # weighted_average's normalization and GEMV, over the filled rows.
            normalized = normalized_weights(np.asarray(self._weights, dtype=np.float64))
            average = normalized @ self._matrix[: self._count]
            hand_back_matrix(self._matrix)
            self._matrix = None
        self._closed = True
        return FlatState(self._layout, average)

    def spread(self) -> float:
        """RMS pairwise distance between the folded states (``client_drift``); ``0.0`` below two folds."""
        return math.sqrt(2.0 * self._m2 / (self._count - 1)) if self._count > 1 else 0.0


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
        self._pending: List[Tuple[FlatState, FlatState, float, bool]] = []
        self._layout: Optional[StateLayout] = None
        self._delta_sum: Optional[np.ndarray] = None
        self._sum_state: Optional[State] = None
        self._weight_total = 0.0
        self._count = 0

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
