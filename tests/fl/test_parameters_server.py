"""Tests for state arithmetic and the federated server's aggregation rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import FederatedServer
from repro.fl.aggregation import StreamingAccumulator
from repro.fl.parameters import (
    check_compatible,
    clone_state,
    filter_state,
    flatten_state,
    merge_partition,
    state_distance,
    state_norm,
    weighted_average,
    zeros_like_state,
)
from test_state_door import load_fl_oracles

pairwise_rms_distance = load_fl_oracles().pairwise_rms_distance_oracle


def make_state(value, shapes=(("w", (2, 2)), ("b", (3,)))):
    return {name: np.full(shape, float(value)) for name, shape in shapes}


def folded_spread(states):
    """``client_drift`` as the round loop reads it: fold each state, read ``spread()``."""
    accumulator = StreamingAccumulator()
    for state in states:
        accumulator.fold(state, 1.0)
    return accumulator.spread()


class TestStateArithmetic:
    def test_clone_is_deep(self):
        state = make_state(1.0)
        cloned = clone_state(state)
        cloned["w"][:] = 9.0
        assert np.all(state["w"] == 1.0)

    def test_zeros_like(self):
        zeros = zeros_like_state(make_state(5.0))
        assert all(np.all(v == 0) for v in zeros.values())

    def test_weighted_average_exact(self):
        avg = weighted_average([make_state(0.0), make_state(10.0)], [1.0, 3.0])
        assert np.allclose(avg["w"], 7.5)

    def test_weighted_average_single_state_identity(self):
        state = make_state(3.3)
        avg = weighted_average([state], [5.0])
        assert np.allclose(avg["w"], state["w"])

    def test_weighted_average_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_average([make_state(1.0)], [0.0])
        with pytest.raises(ValueError):
            weighted_average([make_state(1.0), make_state(2.0)], [1.0])
        with pytest.raises(ValueError):
            weighted_average([make_state(1.0), make_state(2.0)], [1.0, -1.0])

    def test_incompatible_states_rejected(self):
        with pytest.raises(ValueError):
            check_compatible([make_state(1.0), {"w": np.zeros((2, 2))}])
        with pytest.raises(ValueError):
            check_compatible([make_state(1.0), {"w": np.zeros((3, 3)), "b": np.zeros(3)}])

    def test_merge_partition(self):
        global_state = make_state(1.0)
        local_state = make_state(9.0)
        merged = merge_partition(global_state, local_state, ["b"])
        assert np.all(merged["w"] == 1.0)
        assert np.all(merged["b"] == 9.0)

    def test_merge_partition_unknown_name(self):
        with pytest.raises(ValueError):
            merge_partition(make_state(1.0), make_state(2.0), ["missing"])

    def test_filter_state(self):
        filtered = filter_state(make_state(2.0), ["w"])
        assert set(filtered) == {"w"}
        with pytest.raises(ValueError):
            filter_state(make_state(2.0), ["nope"])

    def test_distance_and_norm(self):
        assert state_distance(make_state(1.0), make_state(1.0)) == 0.0
        expected = np.sqrt(7 * 4.0)  # 7 entries differing by 2
        assert state_distance(make_state(1.0), make_state(3.0)) == pytest.approx(expected)
        assert state_norm(zeros_like_state(make_state(1.0))) == 0.0

    def test_flatten_deterministic_order(self):
        state = {"b": np.array([1.0]), "a": np.array([2.0, 3.0])}
        np.testing.assert_allclose(flatten_state(state), [2.0, 3.0, 1.0])

    def test_spread_of_two_states_is_their_distance(self):
        states = [make_state(0.0), make_state(2.0)]
        assert folded_spread(states) == pytest.approx(state_distance(*states))
        assert pairwise_rms_distance(states) == pytest.approx(state_distance(*states))
        assert folded_spread(states[:1]) == 0.0
        assert pairwise_rms_distance(states[:1]) == 0.0

    def test_spread_matches_pairwise_rms_loop(self):
        # The per-arrival Welford spread equals the O(n^2) state_distance loop.
        rng = np.random.default_rng(17)
        states = [
            {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=4)} for _ in range(6)
        ]
        assert folded_spread(states) == pytest.approx(pairwise_rms_distance(states), rel=1e-9, abs=0)

    def test_spread_no_cancellation(self):
        # States that differ by ~1e-8 on top of O(10) parameter norms: a
        # Welford fold on the raw states loses the difference to rounding;
        # shifted by the first state it agrees with the loop at full precision.
        # (abs=0: the distances are ~1e-7, under approx's default abs.)
        rng = np.random.default_rng(23)
        base = {"w": 10.0 + rng.normal(size=50)}
        states = [
            {"w": base["w"] + 1e-8 * rng.normal(size=50)} for _ in range(3)
        ]
        loop = pairwise_rms_distance(states)
        assert loop > 0
        assert folded_spread(states) == pytest.approx(loop, rel=1e-9, abs=0)

    def test_spread_of_identical_states_is_exactly_zero(self):
        states = [make_state(1.5) for _ in range(4)]
        assert folded_spread(states) == 0.0
        assert pairwise_rms_distance(states) == 0.0

    def test_spread_checks_compatibility(self):
        # The loop rejects a mismatched pair; the accumulator folds it (the
        # parity buffer validates at result()), then rejects it there.
        states = [make_state(0.0), {"other": np.zeros(3)}]
        with pytest.raises(ValueError):
            pairwise_rms_distance(states)
        accumulator = StreamingAccumulator()
        for state in states:
            accumulator.fold(state, 1.0)
        with pytest.raises(ValueError):
            accumulator.result()

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_weighted_average_bounded_by_extremes(self, values):
        states = [make_state(v) for v in values]
        weights = np.ones(len(values))
        avg = weighted_average(states, weights)
        assert avg["w"].min() >= min(values) - 1e-9
        assert avg["w"].max() <= max(values) + 1e-9


class TestFederatedServer:
    def test_aggregate_weighted_by_samples(self):
        server = FederatedServer()
        avg = server.aggregate([make_state(0.0), make_state(1.0)], [100, 300])
        assert np.allclose(avg["w"], 0.75)

    def test_alpha_portion_sync_formula(self):
        server = FederatedServer()
        states = {1: make_state(0.0), 2: make_state(4.0), 3: make_state(8.0)}
        weights = {1: 1.0, 2: 1.0, 3: 3.0}
        mixed = server.alpha_portion_sync(states, weights, alpha=0.5)
        # Client 1: 0.5*0 + 0.5*((1*4 + 3*8)/4) = 3.5
        assert np.allclose(mixed[1]["w"], 3.5)
        # Client 3: 0.5*8 + 0.5*((4+0)/2)=0.5*8+1 = 5.0
        assert np.allclose(mixed[3]["w"], 5.0)

    def test_alpha_portion_single_client(self):
        server = FederatedServer()
        mixed = server.alpha_portion_sync({1: make_state(2.0)}, {1: 1.0}, alpha=0.3)
        assert np.allclose(mixed[1]["w"], 2.0)

    def test_alpha_validation(self):
        server = FederatedServer()
        with pytest.raises(ValueError):
            server.alpha_portion_sync({1: make_state(1.0)}, {1: 1.0}, alpha=1.5)

    def test_alpha_portion_sync_parity_with_naive_loop(self):
        """The O(K) subtract-own-contribution aggregation matches the
        original per-client ``weighted_average`` loop to float accuracy."""
        rng = np.random.default_rng(42)
        client_ids = list(range(1, 8))
        states = {
            cid: {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}
            for cid in client_ids
        }
        weights = {cid: float(rng.integers(1, 60)) for cid in client_ids}
        server = FederatedServer()
        for alpha in (0.0, 0.3, 0.5, 1.0):
            fast = server.alpha_portion_sync(states, weights, alpha)
            for cid in client_ids:
                other_ids = [o for o in client_ids if o != cid]
                others = weighted_average(
                    [states[o] for o in other_ids],
                    [weights[o] for o in other_ids],
                )
                for name in others:
                    naive = alpha * states[cid][name] + (1.0 - alpha) * others[name]
                    np.testing.assert_allclose(fast[cid][name], naive, rtol=0, atol=1e-12)

    def test_alpha_portion_sync_zero_weight_others(self):
        # When every other client has zero weight there is nothing to mix
        # in; the client keeps its own state.
        server = FederatedServer()
        mixed = server.alpha_portion_sync(
            {1: make_state(2.0), 2: make_state(9.0)}, {1: 0.0, 2: 5.0}, alpha=0.25
        )
        assert np.allclose(mixed[2]["w"], 9.0)
        # Client 1 mixes in client 2's state as usual.
        assert np.allclose(mixed[1]["w"], 0.25 * 2.0 + 0.75 * 9.0)
