"""Tests for the flat-buffer parameter engine.

The guarantees under test:

* layout/flat-state round trips are exact and zero-copy,
* the GEMV ``weighted_average`` matches the per-name stack/tensordot
  oracle to 1e-12 in float64 and float32,
* all wire codecs decode to flat states in sorted order,
* FedAvgM's server momentum buffer survives a checkpoint and resumes flat.

What a state function does with dict, flat, mixed and entry-permuted inputs
is ``test_state_door.py``'s.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.fl import (
    CheckpointManager,
    FederatedClient,
    FLConfig,
    FlatState,
    SeededModelFactory,
    StateLayout,
    create_algorithm,
)
from repro.fl import parameters as P
from repro.fl.parameters import (
    as_flat_state,
    clone_state,
    state_vector,
    weighted_average,
    zeros_like_state,
)
from repro.fl.transport.codecs import IdentityCodec, QuantizationCodec, TopKCodec
from repro.fl.transport.envelope import decode_carrier, encode_carrier
from repro.models import FLNet
from test_state_door import load_fl_oracles

reference_weighted_average = load_fl_oracles().reference_weighted_average

SHAPES = (("conv.weight", (4, 2, 3, 3)), ("conv.bias", (4,)), ("head.weight", (1, 4)), ("alpha", ()))


def random_state(seed: int, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape).astype(dtype) for name, shape in SHAPES}


def states_equal(left, right) -> bool:
    return set(left) == set(right) and all(np.array_equal(left[k], right[k]) for k in left)


class TestStateLayout:
    def test_interned_per_entry_sequence(self):
        state = random_state(0)
        assert StateLayout.from_state(state) is StateLayout.from_state(random_state(1))

    def test_offsets_and_sizes(self):
        layout = StateLayout.from_state(random_state(0))
        assert layout.total_size == sum(
            int(np.prod(shape)) if shape else 1 for _, shape in SHAPES
        )
        assert layout.offsets[0] == 0
        assert layout.names == tuple(name for name, _ in SHAPES)

    def test_sorted_permutation_roundtrip(self):
        state = random_state(3)
        flat = FlatState.from_state(state)
        perm = flat.layout.sorted_permutation()
        expected = np.concatenate([state[name].ravel() for name in sorted(state)])
        got = flat.vector if perm is None else flat.vector[perm]
        np.testing.assert_array_equal(got, expected)

    def test_gather_between_orders(self):
        state = random_state(4)
        forward = FlatState.from_state(state)
        reversed_state = FlatState.from_items(list(state.items())[::-1])
        perm = forward.layout.gather_from(reversed_state.layout)
        np.testing.assert_array_equal(reversed_state.vector[perm], forward.vector)

    def test_incompatible_gather_rejected(self):
        a = StateLayout.of([("w", (2, 2))])
        b = StateLayout.of([("w", (4,))])
        with pytest.raises(ValueError, match="different names/shapes"):
            a.gather_from(b)

    def test_decoded_layouts_die_with_their_states(self):
        # A peer sending small states under ever-new tensor names: the
        # decoded layouts must not stay interned once their states are gone.
        template = encode_carrier(FlatState.from_items([("t0000", np.zeros(6))]))
        gc.collect()
        before = len(StateLayout._interned)
        for index in range(1000):
            state = decode_carrier(template.replace(b"t0000", f"t{index:04d}".encode()))
            assert list(state) == [f"t{index:04d}"]
        del state
        gc.collect()
        assert len(StateLayout._interned) == before

    def test_gather_cache_does_not_keep_its_source_alive(self):
        target = StateLayout.of([("a", (2,)), ("b", (3,))])
        source = StateLayout.of([("b", (3,)), ("a", (2,))])
        target.gather_from(source)
        assert len(target._gather_cache) == 1
        del source
        gc.collect()
        assert len(target._gather_cache) == 0

    def test_racing_threads_intern_one_layout(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(20):
                entries = [(f"racing{attempt}.weight", (3, 3)), (f"racing{attempt}.bias", (3,))]
                barrier = threading.Barrier(8, timeout=10)

                def intern(_):
                    barrier.wait()
                    return StateLayout.of(entries)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    layouts = list(pool.map(intern, range(8)))
                assert all(layout is layouts[0] for layout in layouts)
        finally:
            sys.setswitchinterval(previous)

    def test_pickled_layout_is_reinterned(self):
        layout = StateLayout.from_state(random_state(5))
        assert pickle.loads(pickle.dumps(layout)) is layout


class TestFlatState:
    def test_roundtrip_exact_and_order_preserving(self):
        state = random_state(0)
        flat = FlatState.from_state(state)
        assert list(flat) == list(state)
        assert states_equal(flat, state)
        # float32 inputs are packed at the pipeline's float64.
        flat32 = FlatState.from_state(random_state(1, dtype=np.float32))
        assert flat32.vector.dtype == np.float64

    def test_values_are_views_into_the_buffer(self):
        flat = FlatState.from_state(random_state(0))
        for name in flat:
            assert flat[name].base is flat.vector or flat[name] is flat.vector

    def test_setitem_writes_through(self):
        flat = FlatState.from_state(random_state(0))
        flat["conv.bias"] = np.array([9.0, 8.0, 7.0, 6.0])
        offset = flat.layout.offsets[1]
        np.testing.assert_array_equal(flat.vector[offset : offset + 4], [9.0, 8.0, 7.0, 6.0])

    def test_frozen_key_set(self):
        flat = FlatState.from_state(random_state(0))
        with pytest.raises(ValueError, match="frozen"):
            flat["new"] = np.zeros(3)
        with pytest.raises(ValueError):
            flat.pop("conv.bias")
        with pytest.raises(ValueError, match="shape"):
            flat["conv.bias"] = np.zeros(5)

    def test_pickle_ships_one_buffer_and_reinterns_layout(self):
        flat = FlatState.from_state(random_state(0))
        blob = pickle.dumps(flat)
        # The payload must not contain one pickled ndarray per tensor.
        assert blob.count(b"numpy.core.multiarray") + blob.count(b"numpy._core.multiarray") <= 2
        restored = pickle.loads(blob)
        assert restored.layout is flat.layout
        assert states_equal(restored, flat)

    def test_clone_and_zeros(self):
        flat = FlatState.from_state(random_state(0))
        cloned = clone_state(flat)
        cloned["conv.bias"] = np.zeros(4)
        assert not np.array_equal(cloned["conv.bias"], flat["conv.bias"])
        zeros = zeros_like_state(flat)
        assert isinstance(zeros, FlatState) and zeros.vector.sum() == 0.0


class TestWeightedAverageGEMV:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_matches_reference_loop(self, count, dtype):
        states = [random_state(seed, dtype) for seed in range(count)]
        weights = np.random.default_rng(count).random(count) + 0.1
        reference = reference_weighted_average(states, weights)
        flat = weighted_average([FlatState.from_state(s) for s in states], weights)
        for name in reference:
            np.testing.assert_allclose(flat[name], reference[name], rtol=0, atol=1e-12)


class TestCodecFlatParity:
    """Every codec decodes to a flat state in the wire's sorted order."""

    CODECS = [
        IdentityCodec("float64"),
        IdentityCodec("float32"),
        IdentityCodec("float16"),
        QuantizationCodec(num_bits=8, deflate=False),
        QuantizationCodec(num_bits=8, deflate=True),
        QuantizationCodec(num_bits=5, deflate=False),
        QuantizationCodec(num_bits=16, deflate=False),
        TopKCodec(keep_fraction=0.25),
    ]

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.describe())
    def test_decode_returns_flat_views(self, codec):
        state = random_state(22)
        decoded = codec.decode(codec.encode(state))
        assert isinstance(decoded, FlatState)
        # Sorted wire order: the decoded layout is already in sorted order.
        assert decoded.layout.sorted_permutation() is None


TINY_CONFIG = FLConfig(
    rounds=2,
    local_steps=2,
    finetune_steps=2,
    learning_rate=3e-3,
    batch_size=2,
    num_clusters=2,
    assigned_clusters=((1, 0), (2, 1)),
    ifca_eval_batches=1,
    proximal_mu=1e-3,
)


class TinyModelBuilder:
    def __init__(self, channels: int):
        self.channels = channels

    def __call__(self, seed: int) -> FLNet:
        return FLNet(self.channels, hidden_filters=8, kernel_size=5, seed=seed)


def make_factory(num_channels: int) -> SeededModelFactory:
    return SeededModelFactory(TinyModelBuilder(num_channels), base_seed=0)


@pytest.fixture
def make_clients(tiny_train_dataset, tiny_test_dataset, tiny_train_dataset_itc, tiny_test_dataset_itc, num_channels):
    def build(config: FLConfig = TINY_CONFIG):
        factory = make_factory(num_channels)
        return [
            FederatedClient(1, tiny_train_dataset, tiny_test_dataset, factory, config),
            FederatedClient(2, tiny_train_dataset_itc, tiny_test_dataset_itc, factory, config),
        ]

    return build


def run_algorithm(name, make_clients, num_channels, backend=None, channel=None, checkpoint=None, config=TINY_CONFIG):
    algorithm = create_algorithm(
        name,
        make_clients(config),
        make_factory(num_channels),
        config,
        backend=backend,
        channel=channel,
        checkpoint=checkpoint,
    )
    try:
        return algorithm.run()
    finally:
        if backend is not None:
            backend.close()


class TestCheckpointCompatibility:
    def test_fedavgm_velocity_resumes_flat(self, tmp_path, make_clients, num_channels):
        from dataclasses import replace

        long_config = replace(TINY_CONFIG, rounds=3)
        short_config = replace(TINY_CONFIG, rounds=1)
        uninterrupted = run_algorithm(
            "fedavgm", make_clients, num_channels, config=long_config
        )
        run_algorithm(
            "fedavgm",
            make_clients,
            num_channels,
            config=short_config,
            checkpoint=CheckpointManager(tmp_path),
        )
        resumed = run_algorithm(
            "fedavgm",
            make_clients,
            num_channels,
            config=long_config,
            checkpoint=CheckpointManager(tmp_path),
        )
        assert states_equal(uninterrupted.global_state, resumed.global_state)


class TestTopKSelection:
    def test_argpartition_matches_stable_sort(self):
        from repro.fl.transport.codecs import topk_flat_indices

        rng = np.random.default_rng(0)
        for trial in range(100):
            size = int(rng.integers(1, 300))
            if trial % 2:
                flat = rng.normal(size=size)
            else:
                flat = rng.integers(-3, 4, size=size).astype(float)  # heavy ties
            keep = int(rng.integers(1, size + 1))
            reference = np.sort(np.argsort(-np.abs(flat), kind="stable")[:keep])
            np.testing.assert_array_equal(topk_flat_indices(flat, keep), reference)

    def test_nan_entries_rank_last(self):
        # A NaN in a diverging update must not poison the selection: the
        # top-k finite entries survive, exactly as the stable sort ranks.
        from repro.fl.transport.codecs import topk_flat_indices

        flat = np.array([5.0, np.nan, 3.0, 1.0, 4.0])
        np.testing.assert_array_equal(topk_flat_indices(flat, 2), [0, 4])
        reference = np.sort(np.argsort(-np.abs(flat), kind="stable")[:4])
        np.testing.assert_array_equal(topk_flat_indices(flat, 4), reference)


class TestEngineHelpers:
    def test_state_vector_alignment(self):
        state = random_state(30)
        flat = FlatState.from_state(state)
        np.testing.assert_array_equal(state_vector(flat), flat.vector)
        reversed_layout = StateLayout.of(list(flat.layout.entries)[::-1])
        aligned = state_vector(flat, reversed_layout)
        np.testing.assert_array_equal(
            aligned, np.concatenate([state[n].ravel() for n, _ in reversed_layout.entries])
        )

    def test_flat_pair_aligns_the_second_state_to_the_first(self):
        state_a, state_b = random_state(32), random_state(33)
        reordered_b = {name: state_b[name] for name in reversed(list(state_b))}
        layout, vector_a, vector_b = P.flat_pair(state_a, reordered_b)
        assert layout is as_flat_state(state_a).layout
        np.testing.assert_array_equal(vector_a, FlatState.from_state(state_a).vector)
        np.testing.assert_array_equal(vector_b, FlatState.from_state(state_b).vector)

    def test_flat_pair_rejects_incompatible_states(self):
        state_a, state_b = random_state(34), random_state(35)
        del state_b["alpha"]
        with pytest.raises(ValueError, match="different keys"):
            P.flat_pair(state_a, state_b)

    @pytest.mark.parametrize("weight", [0, 1, 2.5, np.float32(3.0)])
    def test_check_weight_accepts_finite_non_negative(self, weight):
        checked = P.check_weight(weight)
        assert type(checked) is float and checked == float(weight)

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_check_weight_rejects(self, weight):
        with pytest.raises(ValueError, match="finite and non-negative"):
            P.check_weight(weight)

    def test_as_flat_state_packs_dicts_and_passes_flat_through(self):
        state = random_state(31)
        flat = as_flat_state(state)
        assert isinstance(flat, FlatState) and states_equal(flat, state)
        assert as_flat_state(flat) is flat

    def test_flat_model_state_matches_state_dict(self, num_channels):
        model = FLNet(num_channels, hidden_filters=8, kernel_size=5, seed=0)
        flat = P.flat_model_state(model)
        assert isinstance(flat, FlatState)
        assert states_equal(flat, model.state_dict())
        assert list(flat) == list(model.state_dict())
