"""Property/parity tests for the fold-and-release server aggregation.

:func:`weighted_average` — the (K, P) GEMV — is the reference throughout.
The accumulators' contract has two halves, and both are asserted here over
seeded random layouts, weights, cohort sizes, input dtypes and dict/flat
states:

* **exact parity** — while an accumulator folds into its matrix rows
  (``count <= PARITY_LIMIT``), its result is bit-identical (0 ulp) to
  ``weighted_average``, including through the DP privatize-then-fold and
  FedAvgM momentum compositions, with several accumulators alive at once,
  and for an all-fresh FedBuff buffer;
* **spilled accuracy** — once spilled to the running O(P) form, results
  agree with ``weighted_average`` to ``<= 1e-12`` relative error, memory
  stays flat, and inputs are validated exactly as in the parity phase.

Server memory is counted with ``tracemalloc`` (NumPy reports its buffers to
it), so the bounds hold exactly on any machine: a round holds one (K, P)
matrix plus a few P-vectors, and a matrix goes back to the pool at the
result or the spill.  The per-arrival ``spread()`` (``client_drift``) is
held to the pairwise RMS loop in ``oracles.py`` on both sides of the spill.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import FederatedServer
from repro.fl.aggregation import (
    PARITY_LIMIT,
    StreamingAccumulator,
    StreamingDeltaAccumulator,
)
from repro.fl.parameters import (
    FlatState,
    StateLayout,
    empty_matrix_pool,
    hand_back_matrix,
    lend_matrix,
    state_vector,
    weighted_average,
)
from repro.fl.privacy import PrivacyConfig, privatize_update
from repro.models.registry import create_model
from test_state_door import load_fl_oracles

O = load_fl_oracles()
pairwise_rms_distance = O.pairwise_rms_distance_oracle

#: How a state reaches ``fold``: a dict, a flat state, or a flat state whose
#: entries are stored in the reverse order (folded through a gather).
INPUT_KINDS = {
    "dict": dict,
    "flat": FlatState.from_state,
    "reversed": lambda state: FlatState.from_items(reversed(list(state.items()))),
}


def random_layout_states(seed, count, dtype=np.float64):
    """``count`` random dict states over a seeded random layout."""
    rng = np.random.default_rng(seed)
    num_tensors = int(rng.integers(1, 5))
    shapes = [tuple(int(s) for s in rng.integers(1, 7, size=rng.integers(1, 4)))
              for _ in range(num_tensors)]
    states = [
        {f"layer{i}.weight": rng.standard_normal(shape).astype(dtype)
         for i, shape in enumerate(shapes)}
        for _ in range(count)
    ]
    weights = rng.uniform(0.1, 10.0, size=count).tolist()
    return states, weights


def vectors_equal(left, right):
    """Bitwise state equality via the flat vector (0 ulp)."""
    layout = StateLayout.from_state(left)
    return np.array_equal(state_vector(left, layout), state_vector(right, layout))


def relative_error(left, right):
    layout = StateLayout.from_state(left)
    a = state_vector(left, layout)
    b = state_vector(right, layout)
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-30)


def fold_into(kind, states, weights):
    """A fresh accumulator of one kind with a cohort folded into it.

    ``streaming`` is the barrier accumulator; ``delta`` is the FedBuff delta
    accumulator fed an all-fresh buffer (every update dispatched from the
    current global model), which must reduce to the synchronous average.
    """
    if kind == "streaming":
        accumulator = StreamingAccumulator(len(states))
        for state, weight in zip(states, weights):
            accumulator.fold(state, weight)
        return accumulator
    global_state = FlatState.from_state(states[0])
    accumulator = StreamingDeltaAccumulator()
    for state, weight in zip(states, weights):
        accumulator.fold(state, global_state, weight, fresh=True)
    return accumulator


def fold_all(kind, states, weights):
    """Fold a cohort through one accumulator kind; returns (accumulator, result)."""
    accumulator = fold_into(kind, states, weights)
    if kind == "streaming":
        return accumulator, accumulator.result()
    return accumulator, accumulator.result(FlatState.from_state(states[0]))


def spilled(kind, states, weights):
    """An accumulator of ``kind`` pushed past the parity rows, its result unread."""
    assert len(states) > PARITY_LIMIT
    accumulator = fold_into(kind, states, weights)
    assert O.has_spilled(accumulator)
    return accumulator


def fold_one(accumulator, state, weight):
    """One more fold into either accumulator kind."""
    if isinstance(accumulator, StreamingDeltaAccumulator):
        accumulator.fold(state, state, weight, fresh=False)
    else:
        accumulator.fold(state, weight)


# ---------------------------------------------------------------------------
# exact-parity mode (count <= PARITY_LIMIT): 0 ulp against weighted_average
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 9, 32])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["streaming", "delta"])
def test_parity_mode_is_bit_identical_to_gemv(seed, count, dtype, kind):
    states, weights = random_layout_states(seed, count, dtype=dtype)
    reference = weighted_average(states, weights)
    for inputs in (states, [FlatState.from_state(state) for state in states]):
        accumulator, result = fold_all(kind, inputs, weights)
        assert not O.has_spilled(accumulator)
        assert vectors_equal(result, reference)


# ---------------------------------------------------------------------------
# spilled O(P) form: <= 1e-12 relative, memory flat
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("count", [33, 64, 111])
@pytest.mark.parametrize("kind", ["streaming", "delta"])
def test_spilled_fold_agrees_with_gemv(seed, count, kind):
    states, weights = random_layout_states(seed, count)
    reference = weighted_average(states, weights)
    accumulator, result = fold_all(kind, states, weights)
    assert O.has_spilled(accumulator)
    assert accumulator.count == count
    assert relative_error(result, reference) <= 1e-12


@given(
    seed=st.integers(0, 2**16),
    count=st.integers(1, PARITY_LIMIT + 8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_spread_is_the_pairwise_rms_distance(seed, count, data):
    """``client_drift`` folded per arrival, across the spill: the pairwise
    RMS loop at 1e-10, whatever the input kinds or fold order, and
    bit-identical whatever the weights (the spread is unweighted)."""
    states, _ = random_layout_states(seed, count)
    kind_lists = st.lists(st.sampled_from(sorted(INPUT_KINDS)), min_size=count, max_size=count)
    inputs = [INPUT_KINDS[kind](state) for kind, state in zip(data.draw(kind_lists), states)]
    order = data.draw(st.permutations(range(count)))
    weight_lists = st.lists(st.floats(0.1, 100.0), min_size=count, max_size=count)
    spreads = []
    for weights in (data.draw(weight_lists), [1.0] * count):
        accumulator = StreamingAccumulator(count)
        for index in order:
            accumulator.fold(inputs[index], weights[index])
        assert O.has_spilled(accumulator) == (count > PARITY_LIMIT)
        spreads.append(accumulator.spread())
    assert spreads[0] == spreads[1]
    assert spreads[0] == pytest.approx(pairwise_rms_distance(states), rel=1e-10, abs=0)


def traced_peak(action):
    """``(action(), bytes still held, peak bytes)`` of what ``action`` allocates."""
    tracemalloc.start()
    try:
        value = action()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, current, peak


def test_streaming_memory_is_flat_after_spill():
    """The running form holds O(P) whatever the fold count: past the spill a
    fold keeps nothing, and its transients are two P-vectors."""
    layout = StateLayout.from_state({"dense.weight": np.zeros(20_000)})
    states = [FlatState(layout, np.full(layout.total_size, 1.0 + k)) for k in range(40)]
    accumulator = StreamingAccumulator(len(states))
    for state in states[: PARITY_LIMIT + 1]:
        accumulator.fold(state, 2.0)
    assert O.has_spilled(accumulator)
    assert O.folded_states(accumulator) is None  # the rows went back with the matrix

    def fold_the_rest():
        for state in states[PARITY_LIMIT + 1 :]:
            accumulator.fold(state, 2.0)

    _, held, peak = traced_peak(fold_the_rest)
    state_bytes = layout.total_size * 8
    assert held < state_bytes // 8
    assert peak <= 2 * state_bytes + (1 << 16)
    assert accumulator.count == 40


# ---------------------------------------------------------------------------
# DP clip/noise and FedAvgM momentum folds through the accumulators
# ---------------------------------------------------------------------------


def _privatized_cohort(seed, count):
    states, weights = random_layout_states(seed, count)
    reference_state = {
        name: np.zeros_like(np.asarray(value, dtype=np.float64))
        for name, value in states[0].items()
    }
    privacy = PrivacyConfig(clip_norm=1.0, noise_multiplier=0.5)
    noise_rng = np.random.default_rng(seed + 1000)
    private = [
        privatize_update(reference_state, state, privacy, noise_rng)[0]
        for state in states
    ]
    return private, weights


@pytest.mark.parametrize("count,exact", [(9, True), (48, False)])
def test_dp_privatize_then_fold_parity(count, exact):
    private, weights = _privatized_cohort(17, count)
    reference = weighted_average(private, weights)
    accumulator = StreamingAccumulator(count)
    for state, weight in zip(private, weights):
        accumulator.fold(state, weight)
    if exact:
        assert vectors_equal(accumulator.result(), reference)
    else:
        assert relative_error(accumulator.result(), reference) <= 1e-12


@pytest.mark.parametrize("count,exact", [(9, True), (48, False)])
def test_fedavgm_momentum_fold_parity(count, exact):
    states, weights = random_layout_states(23, count)
    global_state = weighted_average(states[:1], [1.0])
    layout = global_state.layout
    momentum = 0.9
    velocity = np.zeros(layout.total_size)

    def momentum_step(average):
        delta = state_vector(global_state, layout) - state_vector(average, layout)
        new_velocity = momentum * velocity + delta
        return FlatState(layout, state_vector(global_state, layout) - new_velocity)

    reference = momentum_step(weighted_average(states, weights))
    accumulator = StreamingAccumulator(count)
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    streamed = momentum_step(accumulator.result())
    if exact:
        assert vectors_equal(streamed, reference)
    else:
        assert relative_error(streamed, reference) <= 1e-12


# ---------------------------------------------------------------------------
# FedBuff delta accumulator
# ---------------------------------------------------------------------------


def _delta_cohort(seed, count):
    rng = np.random.default_rng(seed)
    layout_states, weights = random_layout_states(seed, count + 2)
    global_state = weighted_average(layout_states[:1], [1.0])
    layout = global_state.layout
    updates = [
        FlatState(layout, state_vector(global_state, layout) + rng.standard_normal(layout.total_size))
        for _ in range(count)
    ]
    dispatches = [
        FlatState(layout, state_vector(global_state, layout) + 0.1 * rng.standard_normal(layout.total_size))
        for _ in range(count)
    ]
    return global_state, layout, updates, dispatches, weights[:count]


def test_delta_accumulator_all_fresh_matches_weighted_average():
    global_state, _, updates, _, weights = _delta_cohort(31, 9)
    accumulator = StreamingDeltaAccumulator()
    for update, weight in zip(updates, weights):
        accumulator.fold(update, global_state, weight, fresh=True)
    reference = weighted_average(updates, weights)
    assert vectors_equal(accumulator.result(global_state), reference)


def test_delta_accumulator_mixed_staleness_is_exact_arrival_order_fold():
    global_state, layout, updates, dispatches, weights = _delta_cohort(37, 9)
    accumulator = StreamingDeltaAccumulator()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        accumulator.fold(update, dispatch, weight, fresh=False)
    total = sum(weights)
    folded = state_vector(global_state, layout).copy()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        folded += (weight / total) * (
            state_vector(update, layout) - state_vector(dispatch, layout)
        )
    assert vectors_equal(accumulator.result(global_state), FlatState(layout, folded))


def test_delta_accumulator_spilled_stays_close():
    global_state, layout, updates, dispatches, weights = _delta_cohort(41, 40)
    accumulator = StreamingDeltaAccumulator()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        accumulator.fold(update, dispatch, weight, fresh=False)
    assert O.has_spilled(accumulator)
    total = sum(weights)
    folded = state_vector(global_state, layout).copy()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        folded += (weight / total) * (
            state_vector(update, layout) - state_vector(dispatch, layout)
        )
    assert relative_error(accumulator.result(global_state), FlatState(layout, folded)) <= 1e-12


def test_delta_accumulator_empty_returns_global_unchanged():
    global_state, _, _, _, _ = _delta_cohort(43, 1)
    accumulator = StreamingDeltaAccumulator()
    assert accumulator.result(global_state) is global_state


# ---------------------------------------------------------------------------
# error paths: the same rejections inside the parity buffer and after a spill
# ---------------------------------------------------------------------------

PHASES = ["parity", "spilled"]


def accumulators_in(phase, seed):
    """Both accumulator kinds in ``phase``, plus the layout's states."""
    states, weights = random_layout_states(seed, PARITY_LIMIT + 1)
    if phase == "parity":
        return [StreamingAccumulator(len(states)), StreamingDeltaAccumulator()], states
    return [spilled(kind, states, weights) for kind in ("streaming", "delta")], states


def test_negative_weights_are_rejected():
    for phase in PHASES:
        accumulators, states = accumulators_in(phase, 61)
        for accumulator in accumulators:
            with pytest.raises(ValueError, match="non-negative"):
                fold_one(accumulator, states[0], -1.0)


def test_non_finite_weights_are_rejected():
    """A NaN/inf weight must not silently poison the global model."""
    for phase in PHASES:
        accumulators, states = accumulators_in(phase, 63)
        for accumulator in accumulators:
            folded = accumulator.count
            for weight in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    fold_one(accumulator, states[0], weight)
            assert accumulator.count == folded  # a rejected fold leaves no trace
    # The one-shot averages take the same weights through the same check.
    states, _ = random_layout_states(63, 2)
    for weight in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            weighted_average(states, [weight, 1.0])
        with pytest.raises(ValueError, match="finite"):
            FederatedServer().alpha_portion_sync(dict(enumerate(states)), {0: weight, 1: 1.0}, 0.5)


def test_all_zero_weights_are_rejected_after_spill():
    states, _ = random_layout_states(67, PARITY_LIMIT + 1)
    zeros = [0.0] * len(states)
    with pytest.raises(ValueError, match="must not all be zero"):
        spilled("streaming", states, zeros).result()
    with pytest.raises(ValueError, match="must not all be zero"):
        spilled("delta", states, zeros).result(states[0])


def test_mismatched_states_and_weights_are_rejected():
    states, weights = random_layout_states(71, 4)
    with pytest.raises(ValueError, match="states but"):
        FederatedServer().aggregate(states, weights[:-1])


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("defect", ["missing entry", "extra entry", "wrong shape"])
def test_mismatched_state_layouts_are_rejected(defect, phase):
    """Every fold validates its state against the first one exactly like
    ``weighted_average`` does, and a refused fold leaves no trace."""
    states, weights = random_layout_states(73, PARITY_LIMIT + 1)
    name = next(iter(states[0]))
    bad = dict(states[0])
    if defect == "missing entry":
        del bad[name]
    elif defect == "extra entry":
        bad["intruder"] = np.zeros(3)
    else:
        bad[name] = np.zeros(bad[name].shape + (2,))
    with pytest.raises(ValueError) as reference:
        weighted_average([states[0], bad], [1.0, 1.0])
    if phase == "parity":
        accumulator = StreamingAccumulator(len(states))
        for state, weight in zip(states[:3], weights):
            accumulator.fold(state, weight)
        with pytest.raises(ValueError) as raised:
            accumulator.fold(bad, 1.0)
        assert str(raised.value) == str(reference.value)
        assert accumulator.count == 3
        assert vectors_equal(accumulator.result(), weighted_average(states[:3], weights[:3]))
    else:
        for accumulator in accumulators_in("spilled", 73)[0]:
            with pytest.raises(ValueError) as raised:
                fold_one(accumulator, bad, 1.0)
            assert str(raised.value) == str(reference.value)


# ---------------------------------------------------------------------------
# server memory: one lent (K, P) matrix per live accumulator, counted
# ---------------------------------------------------------------------------

#: The clients of the RouteNet workloads: nine (and sixteen on the wire).
ROUTENET_COHORT = 9


def routenet_layout() -> StateLayout:
    return StateLayout.from_state(create_model("routenet", 6, seed=0).state_dict())


def test_a_round_is_held_once():
    """Nine RouteNet-sized updates, each dropped after its fold: the round
    peaks at one (K, P) matrix plus O(P), not the 2 K P of holding every
    update and copying them for the GEMV."""
    layout = routenet_layout()
    size = layout.total_size
    weights = [1.0 + k for k in range(ROUTENET_COHORT)]

    def update(k):
        return FlatState(layout, np.full(size, 0.25 * k - 1.0))

    def one_round():
        accumulator = StreamingAccumulator(ROUTENET_COHORT)
        for k, weight in enumerate(weights):
            accumulator.fold(update(k), weight)  # the update is dropped here
        return accumulator.result()

    empty_matrix_pool()
    result, _, peak = traced_peak(one_round)
    state_bytes = size * 8
    # The matrix, then: the arriving update, the drift's mean and delta, and
    # the result.
    assert peak <= (ROUTENET_COHORT + 4) * state_bytes + (1 << 16)
    reference = weighted_average([update(k) for k in range(ROUTENET_COHORT)], weights)
    assert result.vector.tobytes() == reference.vector.tobytes()


def test_interleaved_accumulators_each_equal_their_own_average():
    """IFCA and assigned clustering keep one accumulator per cluster alive at
    once, each sized by the whole cohort and filled part way."""
    states, weights = random_layout_states(83, 11)
    members = ([0, 2, 3, 5, 8, 9], [1, 4, 6, 7, 10])
    accumulators = [StreamingAccumulator(len(states)) for _ in members]
    for index, (state, weight) in enumerate(zip(states, weights)):
        accumulators[0 if index in members[0] else 1].fold(state, weight)
    for accumulator, indices in zip(accumulators, members):
        reference = weighted_average([states[i] for i in indices], [weights[i] for i in indices])
        assert accumulator.result().vector.tobytes() == reference.vector.tobytes()


@pytest.mark.parametrize("spill", [False, True])
def test_an_accumulator_hands_its_matrix_back(spill):
    """At the spill or at the result, the matrix goes back to the pool: the
    next lend of its shape allocates nothing."""
    layout = StateLayout.from_state({"dense.weight": np.zeros(20_000)})
    count = PARITY_LIMIT + 1 if spill else 5
    states = [FlatState(layout, np.full(layout.total_size, float(k))) for k in range(count)]
    empty_matrix_pool()
    accumulator = StreamingAccumulator(count)
    for state in states:
        accumulator.fold(state, 1.0)
    assert O.has_spilled(accumulator) == spill
    if not spill:
        accumulator.result()
    rows = min(count, PARITY_LIMIT)
    matrix, _, peak = traced_peak(lambda: lend_matrix(rows, layout.total_size))
    assert peak < layout.total_size * 8
    hand_back_matrix(matrix)


def test_a_matrix_is_sized_by_the_cohort_not_the_parity_limit():
    layout = StateLayout.from_state({"dense.weight": np.zeros(20_000)})
    state = FlatState(layout, np.ones(layout.total_size))
    empty_matrix_pool()
    for cohort, rows in ((3, 3), (1_000, PARITY_LIMIT)):
        accumulator = StreamingAccumulator(cohort)
        _, held, _ = traced_peak(lambda: accumulator.fold(state, 1.0))
        assert rows * layout.total_size * 8 <= held < (rows + 2) * layout.total_size * 8


def test_folds_past_the_cohort_or_after_the_result_are_refused():
    states, weights = random_layout_states(89, 4)
    server = FederatedServer()
    server.begin_round(3)
    accumulator = server.accumulator()
    for state, weight in zip(states[:3], weights):
        accumulator.fold(state, weight)
    with pytest.raises(ValueError, match="past the 3 updates this accumulator expects"):
        accumulator.fold(states[3], 1.0)
    accumulator.result()
    for late in (lambda: accumulator.fold(states[3], 1.0), accumulator.result):
        with pytest.raises(ValueError, match="result was read"):
            late()


def test_the_pool_lends_each_matrix_to_one_holder():
    empty_matrix_pool()
    first, second = lend_matrix(4, 10), lend_matrix(4, 10)
    assert first is not second
    hand_back_matrix(first)
    hand_back_matrix(second)
    again = [lend_matrix(4, 10), lend_matrix(4, 10)]
    assert {id(matrix) for matrix in again} == {id(first), id(second)}
    assert lend_matrix(4, 10) is not first and lend_matrix(4, 10) is not second


def test_the_pool_lends_each_matrix_to_one_thread_at_a_time():
    """Threads lending and handing back one shape at once: each holder's
    writes stay its own until it hands the matrix back."""
    empty_matrix_pool()
    clashes, switch = [], sys.getswitchinterval()

    def hold(tag):
        for _ in range(300):
            matrix = lend_matrix(2, 64)
            matrix.fill(tag)
            time.sleep(0)
            if not (matrix == tag).all():
                clashes.append(tag)
            hand_back_matrix(matrix)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold, args=(float(tag),)) for tag in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert clashes == []


def test_the_pool_forgets_a_stale_cohort_size():
    """A round policy that shrinks the cohort must not keep the old matrix."""
    empty_matrix_pool()
    big = lend_matrix(8, 10)
    hand_back_matrix(big)
    small = lend_matrix(3, 10)
    hand_back_matrix(small)
    assert lend_matrix(8, 10) is not big
    assert lend_matrix(3, 10) is small
