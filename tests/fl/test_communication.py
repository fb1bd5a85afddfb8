"""Tests for communication-cost accounting, and for what top-k / quantized payloads keep."""

import numpy as np
import pytest

from repro.fl import ALGORITHMS
from repro.fl.communication import (
    BYTES_PER_FLOAT32,
    estimate_communication,
    state_bytes,
    state_num_parameters,
)
from repro.fl.parameters import state_distance
from repro.fl.transport.codecs import QuantizationCodec, TopKCodec
from repro.models import FLNet


def _state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.normal(size=(8, 4, 3, 3)),
        "conv.bias": rng.normal(size=8),
    }


def topk(state, keep_fraction):
    """``(decoded state, payload bytes)`` of an exact-valued top-k payload."""
    codec = TopKCodec(keep_fraction=keep_fraction, value_dtype="float64")
    payload = codec.encode(state)
    return codec.decode(payload), payload.num_bytes


def quantize(state, num_bits):
    """``(decoded state, payload bytes)`` of a packed, un-deflated quantized payload."""
    codec = QuantizationCodec(num_bits=num_bits, deflate=False)
    payload = codec.encode(state)
    return codec.decode(payload), payload.num_bytes


class TestStateSizing:
    def test_num_parameters(self):
        state = _state()
        assert state_num_parameters(state) == 8 * 4 * 3 * 3 + 8

    def test_bytes_default_uses_real_itemsize(self):
        # The pipeline stores float64, so a state really costs 8 bytes per
        # value — not the 4 an assumed-float32 sizing would claim.
        state = _state()
        assert state_bytes(state) == state_num_parameters(state) * 8

    def test_bytes_mixed_dtypes(self):
        state = {
            "w64": np.zeros(10, dtype=np.float64),
            "w32": np.zeros(10, dtype=np.float32),
            "w16": np.zeros(10, dtype=np.float16),
        }
        assert state_bytes(state) == 10 * (8 + 4 + 2)

    def test_bytes_at_explicit_precision(self):
        state = _state()
        expected = state_num_parameters(state) * BYTES_PER_FLOAT32
        assert state_bytes(state, bytes_per_value=BYTES_PER_FLOAT32) == expected

    def test_bytes_validates_precision(self):
        with pytest.raises(ValueError):
            state_bytes(_state(), bytes_per_value=0)

    def test_flnet_size_matches_parameter_count(self):
        model = FLNet(6, seed=0)
        state = model.state_dict()
        assert state_num_parameters(state) == sum(p.data.size for _, p in model.named_parameters())


class TestEstimateCommunication:
    def test_fedprox_symmetric_cost(self):
        report = estimate_communication("fedprox", _state(), num_clients=9, rounds=50)
        assert report.uplink_bytes_per_round == report.downlink_bytes_per_round
        assert report.total_bytes == 2 * report.uplink_bytes_per_round * 50

    def test_local_and_centralized_free(self):
        for name in ("local", "centralized"):
            report = estimate_communication(name, _state(), num_clients=9, rounds=50)
            assert report.total_bytes == 0

    def test_lg_cheaper_than_fedprox(self):
        full = estimate_communication("fedprox", _state(), num_clients=9, rounds=50)
        partial = estimate_communication("fedprox_lg", _state(), num_clients=9, rounds=50, global_fraction=0.6)
        assert partial.total_bytes < full.total_bytes

    def test_ifca_downlink_scales_with_clusters(self):
        few = estimate_communication("ifca", _state(), num_clients=9, rounds=10, num_clusters=2)
        many = estimate_communication("ifca", _state(), num_clients=9, rounds=10, num_clusters=4)
        assert many.downlink_bytes_per_round == 2 * few.downlink_bytes_per_round

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            estimate_communication("gossip", _state(), num_clients=2, rounds=1)

    def test_every_registered_algorithm_is_estimable(self):
        for name in ALGORITHMS:
            assert estimate_communication(name, _state(), num_clients=3, rounds=2).algorithm == name
        private = estimate_communication("dp_fedprox", _state(), num_clients=3, rounds=2)
        plain = estimate_communication("fedprox", _state(), num_clients=3, rounds=2)
        assert private.total_bytes == plain.total_bytes

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            estimate_communication("fedprox", _state(), num_clients=0, rounds=1)
        with pytest.raises(ValueError):
            estimate_communication("fedprox", _state(), num_clients=2, rounds=1, global_fraction=0.0)

    def test_to_dict(self):
        report = estimate_communication("fedavg", _state(), num_clients=3, rounds=2)
        data = report.to_dict()
        assert data["algorithm"] == "fedavg"
        assert data["total_bytes"] == report.total_bytes


class TestTopkSparsify:
    def test_keeps_requested_fraction(self):
        state = _state(1)
        decoded, payload_bytes = topk(state, keep_fraction=0.1)
        total = state_num_parameters(state)
        kept = sum(int(np.count_nonzero(values)) for values in decoded.values())
        assert kept <= int(0.15 * total)
        assert payload_bytes < state_bytes(state)

    def test_full_fraction_is_lossless(self):
        state = _state(2)
        decoded, _ = topk(state, keep_fraction=1.0)
        assert state_distance(state, decoded) == 0.0

    def test_keeps_largest_magnitudes(self):
        state = {"w": np.array([0.01, -5.0, 0.02, 4.0, -0.03])}
        decoded, _ = topk(state, keep_fraction=0.4)
        surviving = set(np.flatnonzero(decoded["w"]))
        assert surviving == {1, 3}

    def test_exact_count_under_ties(self):
        # Every entry has the same magnitude; a threshold-based selection
        # would keep all of them and understate the advertised byte budget.
        # Exact selection keeps precisely round(0.5 * 8) = 4 entries,
        # breaking ties toward the lower flat index.
        state = {"w": np.full(8, 3.0)}
        decoded, payload_bytes = topk(state, keep_fraction=0.5)
        surviving = np.flatnonzero(decoded["w"])
        assert list(surviving) == [0, 1, 2, 3]
        # 4-byte count header + 4 survivors at (4-byte index + 8-byte value).
        assert payload_bytes == 4 + 4 * (4 + 8)

    def test_selection_is_deterministic(self):
        rng = np.random.default_rng(9)
        state = {"w": rng.normal(size=257)}
        first, _ = topk(state, keep_fraction=0.13)
        second, _ = topk(state, keep_fraction=0.13)
        np.testing.assert_array_equal(first["w"], second["w"])
        expected_keep = max(int(round(257 * 0.13)), 1)
        assert int(np.count_nonzero(first["w"])) == expected_keep

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            topk(_state(), keep_fraction=0.0)

    def test_compression_ratio_improves_with_sparsity(self):
        state = _state(3)
        _, aggressive_bytes = topk(state, keep_fraction=0.05)
        _, mild_bytes = topk(state, keep_fraction=0.5)
        assert aggressive_bytes < mild_bytes


class TestQuantizeState:
    def test_error_decreases_with_bits(self):
        state = _state(4)
        coarse, _ = quantize(state, num_bits=2)
        fine, _ = quantize(state, num_bits=12)
        assert state_distance(state, fine) < state_distance(state, coarse)

    def test_constant_tensor_exact(self):
        state = {"w": np.full((4, 4), 3.14)}
        decoded, _ = quantize(state, num_bits=4)
        np.testing.assert_allclose(decoded["w"], state["w"])

    def test_values_stay_in_range(self):
        state = _state(5)
        decoded, _ = quantize(state, num_bits=6)
        for name, values in decoded.items():
            assert values.min() >= state[name].min() - 1e-9
            assert values.max() <= state[name].max() + 1e-9

    def test_payload_smaller_than_baseline(self):
        state = _state(6)
        _, payload_bytes = quantize(state, num_bits=8)
        assert payload_bytes < state_bytes(state)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize(_state(), num_bits=0)
        with pytest.raises(ValueError):
            quantize(_state(), num_bits=32)
