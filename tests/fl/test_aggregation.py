"""Property/parity tests for the fold-and-release server aggregation.

:func:`weighted_average` — the (K, P) GEMV — is the reference throughout.
The accumulators' contract has two halves, and both are asserted here over
seeded random layouts, weights, cohort sizes, input dtypes and dict/flat
states:

* **exact parity** — while an accumulator is inside its parity buffer
  (``count <= PARITY_LIMIT``), its result is bit-identical (0 ulp) to
  ``weighted_average``, including through the DP privatize-then-fold and
  FedAvgM momentum compositions, and for an all-fresh FedBuff buffer;
* **spilled accuracy** — once spilled to the running O(P) form, results
  agree with ``weighted_average`` to ``<= 1e-12`` relative error, memory
  stays flat, and inputs are validated exactly as in the parity phase.

The per-arrival ``spread()`` (``client_drift``) is held to the pairwise RMS
loop in ``oracles.py`` on both sides of the spill.
"""

from __future__ import annotations

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
    aggregation_scratch_bytes,
    release_aggregation_scratch,
    state_vector,
    weighted_average,
)
from repro.fl.privacy import PrivacyConfig, privatize_update
from test_state_door import load_fl_oracles

pairwise_rms_distance = load_fl_oracles().pairwise_rms_distance_oracle

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


def fold_all(kind, states, weights):
    """Fold a cohort through one accumulator kind; returns (accumulator, result).

    ``streaming`` is the barrier accumulator; ``delta`` is the FedBuff delta
    accumulator fed an all-fresh buffer (every update dispatched from the
    current global model), which must reduce to the synchronous average.
    """
    if kind == "streaming":
        accumulator = StreamingAccumulator()
        for state, weight in zip(states, weights):
            accumulator.fold(state, weight)
        return accumulator, accumulator.result()
    global_state = FlatState.from_state(states[0])
    accumulator = StreamingDeltaAccumulator()
    for state, weight in zip(states, weights):
        accumulator.fold(state, global_state, weight, fresh=True)
    return accumulator, accumulator.result(global_state)


def spilled(kind, states, weights):
    """An accumulator of ``kind`` pushed past the parity buffer."""
    assert len(states) > PARITY_LIMIT
    accumulator, _ = fold_all(kind, states, weights)
    assert accumulator.spilled
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
        assert not accumulator.spilled
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
    assert accumulator.spilled
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
        accumulator = StreamingAccumulator()
        for index in order:
            accumulator.fold(inputs[index], weights[index])
        assert accumulator.spilled == (count > PARITY_LIMIT)
        spreads.append(accumulator.spread())
    assert spreads[0] == spreads[1]
    assert spreads[0] == pytest.approx(pairwise_rms_distance(states), rel=1e-10, abs=0)


def test_streaming_memory_is_flat_after_spill():
    """The running form holds one O(P) vector regardless of fold count."""
    states, weights = random_layout_states(2, 40)
    accumulator = spilled("streaming", states, weights)
    layout = StateLayout.from_state(states[0])
    assert accumulator.states() is None  # the buffered inputs are gone
    assert accumulator._pending == []
    assert accumulator._sum.nbytes == layout.total_size * 8
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
    accumulator = StreamingAccumulator()
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
    accumulator = StreamingAccumulator()
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
    assert accumulator.spilled
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


def test_delta_accumulator_reset_clears_the_buffer():
    global_state, _, updates, dispatches, weights = _delta_cohort(47, 3)
    accumulator = StreamingDeltaAccumulator()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        accumulator.fold(update, dispatch, weight, fresh=False)
    accumulator.reset()
    assert accumulator.count == 0
    assert accumulator.result(global_state) is global_state


# ---------------------------------------------------------------------------
# error paths: the same rejections inside the parity buffer and after a spill
# ---------------------------------------------------------------------------

PHASES = ["parity", "spilled"]


def accumulators_in(phase, seed):
    """Both accumulator kinds in ``phase``, plus the layout's states."""
    states, weights = random_layout_states(seed, PARITY_LIMIT + 1)
    if phase == "parity":
        return [StreamingAccumulator(), StreamingDeltaAccumulator()], states
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
    """Spilled folds validate exactly like ``weighted_average`` does."""
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
        accumulator = StreamingAccumulator()
        accumulator.fold(states[0], 1.0)
        accumulator.fold(bad, 1.0)
        with pytest.raises(ValueError) as raised:
            accumulator.result()
        assert str(raised.value) == str(reference.value)
    else:
        for accumulator in accumulators_in("spilled", 73)[0]:
            with pytest.raises(ValueError) as raised:
                fold_one(accumulator, bad, 1.0)
            assert str(raised.value) == str(reference.value)


# ---------------------------------------------------------------------------
# GEMV scratch right-sizing (the latent over-allocation fix)
# ---------------------------------------------------------------------------


def test_aggregation_scratch_shrinks_when_the_cohort_shrinks():
    release_aggregation_scratch()
    try:
        big_states, big_weights = random_layout_states(73, 64)
        layout = StateLayout.from_state(big_states[0])
        weighted_average(big_states, big_weights)
        big_bytes = aggregation_scratch_bytes()
        assert big_bytes == 64 * layout.total_size * 8
        # A much smaller cohort must not keep the (64, P) scratch alive.
        small_states, small_weights = (big_states[:4], big_weights[:4])
        weighted_average(small_states, small_weights)
        small_bytes = aggregation_scratch_bytes()
        assert small_bytes == 4 * layout.total_size * 8
        assert small_bytes < big_bytes
    finally:
        release_aggregation_scratch()
    assert aggregation_scratch_bytes() == 0


def test_aggregation_scratch_reuses_within_headroom():
    release_aggregation_scratch()
    try:
        states, weights = random_layout_states(79, 8)
        layout = StateLayout.from_state(states[0])
        weighted_average(states, weights)
        assert aggregation_scratch_bytes() == 8 * layout.total_size * 8
        # 4..8 rows fit the 2x headroom window of an 8-row scratch: no realloc.
        weighted_average(states[:4], weights[:4])
        assert aggregation_scratch_bytes() == 8 * layout.total_size * 8
        # 3 rows fall below the window: right-sized down.
        weighted_average(states[:3], weights[:3])
        assert aggregation_scratch_bytes() == 3 * layout.total_size * 8
    finally:
        release_aggregation_scratch()
