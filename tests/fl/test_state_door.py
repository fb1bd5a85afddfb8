"""The door: every public state function packs what it is given and has one body.

Each case is a state function and its per-name oracle (``oracles.py``).
Each input kind hands the same values over as plain dicts, as flat states,
mixed, or as flat states whose entries are stored in another order; the
function must return a :class:`FlatState` every time, equal bit for bit to
the oracle and to what plain dicts give (``weighted_average``: ``1e-12`` to
the oracle, bit for bit across kinds), and reject incompatible states with
the same ``ValueError`` whichever kind they arrive as.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.fl import FederatedServer, StreamingAccumulator, StreamingDeltaAccumulator
from repro.fl.aggregation import PARITY_LIMIT
from repro.fl.parameters import (
    FlatState,
    StateLayout,
    check_compatible,
    clone_state,
    filter_state,
    flatten_state,
    merge_partition,
    sorted_state_vector,
    state_vector,
    weighted_average,
    zeros_like_state,
)
from repro.fl.privacy import (
    PrivacyConfig,
    add_gaussian_noise,
    apply_update,
    clip_update,
    privatize_update,
    state_update,
)
from repro.fl.transport.codecs import IdentityCodec, QuantizationCodec, TopKCodec


def load_fl_oracles():
    """``tests/fl/oracles.py`` by path: ``tests/nn`` owns the module name ``oracles``."""
    spec = importlib.util.spec_from_file_location("fl_oracles", Path(__file__).with_name("oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


O = load_fl_oracles()

SHAPES = (("conv.weight", (4, 2, 3, 3)), ("conv.bias", (4,)), ("head.weight", (1, 4)), ("alpha", ()))
WEIGHTS = (3.0, 1.0, 2.0, 5.0)
LOCAL_NAMES = ("conv.bias", "alpha")
KEPT_NAMES = ("head.weight", "conv.bias")


def random_state(seed: int):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape) for name, shape in SHAPES}


def permuted(state):
    return FlatState.from_items(list(state.items())[::-1])


#: How the same values reach the door.  ``permuted`` stores every state but
#: the first (the only one, when there is just one) in reversed entry order.
KINDS = {
    "dict": lambda states: [dict(state) for state in states],
    "flat": lambda states: [FlatState.from_state(state) for state in states],
    "mixed": lambda states: [
        FlatState.from_state(state) if index % 2 == 0 else dict(state)
        for index, state in enumerate(states)
    ],
    "permuted": lambda states: [
        permuted(state) if index or len(states) == 1 else FlatState.from_state(state)
        for index, state in enumerate(states)
    ],
}


def states_equal(left, right) -> bool:
    return set(left) == set(right) and all(
        np.array_equal(left[name], right[name]) and np.shape(left[name]) == np.shape(right[name])
        for name in left
    )


def _alpha_sync(states):
    weights = dict(enumerate(WEIGHTS))
    return FederatedServer().alpha_portion_sync(dict(enumerate(states)), weights, 0.4)


def _alpha_sync_oracle(states):
    return O.alpha_portion_sync_oracle(dict(enumerate(states)), dict(enumerate(WEIGHTS)), 0.4)


def _accumulate(states):
    accumulator = StreamingAccumulator(len(states))
    for state, weight in zip(states, WEIGHTS):
        accumulator.fold(state, weight)
    held = O.folded_states(accumulator)
    assert all(isinstance(state, FlatState) for state in held)
    assert all(row.vector.tobytes() == state_vector(state, row.layout).tobytes() for row, state in zip(held, states))
    return accumulator.result()


def _accumulate_deltas(states):
    """A FedBuff buffer with one stale update: the exact per-entry fold."""
    global_state, dispatch, first, second = states
    accumulator = StreamingDeltaAccumulator()
    accumulator.fold(first, global_state, 2.0, fresh=True)
    accumulator.fold(second, dispatch, 1.0, fresh=False)
    return accumulator.result(global_state)


def _accumulate_deltas_oracle(states):
    global_state, dispatch, first, second = states
    return {
        name: global_state[name]
        + (2.0 / 3.0) * (first[name] - global_state[name])
        + (1.0 / 3.0) * (second[name] - dispatch[name])
        for name in global_state
    }


def _privatize_oracle(states, rng):
    config = PrivacyConfig(clip_norm=0.4, noise_multiplier=0.3)
    clipped, norm = O.clip_update_oracle(O.state_update_oracle(*states), config.clip_norm)
    noisy = O.add_gaussian_noise_oracle(clipped, config.noise_multiplier * config.clip_norm, rng)
    return O.apply_update_oracle(states[0], noisy), norm


#: name -> (how many states it takes, the function, its per-name oracle).
#: The ``DRAWS`` cases take a generator as their second argument.
CASES = {
    "clone_state": (1, lambda s: clone_state(s[0]), lambda s: dict(s[0])),
    "zeros_like_state": (
        1,
        lambda s: zeros_like_state(s[0]),
        lambda s: {name: np.zeros_like(values) for name, values in s[0].items()},
    ),
    "merge_partition": (
        2,
        lambda s: merge_partition(s[0], s[1], LOCAL_NAMES),
        lambda s: O.merge_partition_oracle(s[0], s[1], LOCAL_NAMES),
    ),
    "filter_state": (
        1,
        lambda s: filter_state(s[0], KEPT_NAMES),
        lambda s: O.filter_state_oracle(s[0], KEPT_NAMES),
    ),
    "state_update": (2, lambda s: state_update(*s), lambda s: O.state_update_oracle(*s)),
    "apply_update": (2, lambda s: apply_update(*s), lambda s: O.apply_update_oracle(*s)),
    "clip_update[clipped]": (
        1,
        lambda s: clip_update(s[0], 0.5),
        lambda s: O.clip_update_oracle(s[0], 0.5),
    ),
    "clip_update[below]": (
        1,
        lambda s: clip_update(s[0], 100.0),
        lambda s: O.clip_update_oracle(s[0], 100.0),
    ),
    "add_gaussian_noise": (
        1,
        lambda s, rng: add_gaussian_noise(s[0], 0.25, rng),
        lambda s, rng: O.add_gaussian_noise_oracle(s[0], 0.25, rng),
    ),
    "privatize_update": (
        2,
        lambda s, rng: privatize_update(*s, PrivacyConfig(clip_norm=0.4, noise_multiplier=0.3), rng),
        _privatize_oracle,
    ),
    "alpha_portion_sync": (4, _alpha_sync, _alpha_sync_oracle),
    "StreamingAccumulator": (4, _accumulate, lambda s: O.reference_weighted_average(s, WEIGHTS)),
    "StreamingDeltaAccumulator": (4, _accumulate_deltas, _accumulate_deltas_oracle),
    "weighted_average": (
        4,
        lambda s: weighted_average(s, WEIGHTS),
        lambda s: O.reference_weighted_average(s, WEIGHTS),
    ),
}
DRAWS = {"add_gaussian_noise", "privatize_update"}
#: The GEMV may differ from the per-name tensordot at the last ulp.
GEMV_CASES = {"weighted_average", "StreamingAccumulator"}
#: Noise is drawn and the norm accumulated in entry order, so a reordered
#: single state gets other draws per name and a norm one ulp away.
ORDER_SENSITIVE = {"add_gaussian_noise", "clip_update[clipped]"}


def _call(case, function, states):
    """``(result, generator state afterwards)``; a generator only for the ``DRAWS`` cases."""
    if case not in DRAWS:
        return function(states), None
    rng = np.random.default_rng(7)
    return function(states, rng), rng.bit_generator.state


def _split(result):
    """``(states, scalars)`` of a result that is a state, a ``(state, norm)`` or ``{id: state}``."""
    if isinstance(result, tuple):
        return [result[0]], [result[1]]
    if all(isinstance(key, int) for key in result):
        return list(result.values()), list(result)
    return [result], []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", CASES)
def test_every_input_kind_goes_through_one_body(case, kind):
    count, function, oracle = CASES[case]
    natural = [random_state(seed) for seed in range(10, 10 + count)]
    inputs = KINDS[kind](natural)

    got, stream = _call(case, function, inputs)
    got_states, got_scalars = _split(got)
    assert all(isinstance(state, FlatState) for state in got_states)

    # The oracle sees the same values in the same entry order, as dicts.
    want, want_stream = _call(case, oracle, [dict(state) for state in inputs])
    want_states, want_scalars = _split(want)
    assert got_scalars == want_scalars
    assert stream == want_stream  # DP noise consumed the identical stream
    for state, reference in zip(got_states, want_states):
        if case in GEMV_CASES:
            assert set(state) == set(reference)
            for name in reference:
                np.testing.assert_allclose(state[name], reference[name], rtol=0, atol=1e-12)
        else:
            assert states_equal(state, reference)

    if not (kind == "permuted" and case in ORDER_SENSITIVE):
        baseline, _ = _call(case, function, natural)
        for state, reference in zip(got_states, _split(baseline)[0]):
            assert states_equal(state, reference)


@pytest.mark.parametrize("kind", KINDS)
def test_vectors_come_out_in_the_asked_order(kind):
    natural = random_state(20)
    (state,) = KINDS[kind]([natural])
    layout = StateLayout.from_state(natural)
    np.testing.assert_array_equal(
        state_vector(state, layout), np.concatenate([natural[name].ravel() for name in natural])
    )
    np.testing.assert_array_equal(sorted_state_vector(state), O.flatten_state_oracle(natural))
    flattened = flatten_state(state)
    np.testing.assert_array_equal(flattened, O.flatten_state_oracle(natural))
    flattened[:] = 0.0  # the caller owns it: the state must not move
    assert states_equal(state, natural)


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("codec", CODECS, ids=lambda codec: codec.describe())
def test_codecs_encode_the_same_bytes(codec, kind):
    natural = random_state(21)
    (state,) = KINDS[kind]([natural])
    payload = codec.encode(state)
    baseline = codec.encode(natural)
    assert payload.data == baseline.data
    assert payload.schema == baseline.schema == O.state_schema_oracle(natural)
    if codec.lossless:
        assert payload.data == O.flatten_state_oracle(natural).tobytes()


def _missing_key(state):
    return {name: values for name, values in state.items() if name != "alpha"}


def _extra_key(state):
    return {**state, "extra": np.zeros(2)}


def _wrong_shape(state):
    return {**state, "conv.bias": np.zeros(5)}


@pytest.mark.parametrize("kind", ["dict", "flat"])
@pytest.mark.parametrize(
    "damage, message",
    [
        (_missing_key, "state 1 has different keys than state 0"),
        (_extra_key, "state 1 has different keys than state 0"),
        (_wrong_shape, r"state 1 entry 'conv.bias' has shape \(5,\), expected \(4,\)"),
    ],
    ids=["missing key", "extra key", "wrong shape"],
)
def test_incompatible_states_are_refused_at_the_door(damage, message, kind):
    good, bad = KINDS[kind]([random_state(30), damage(random_state(31))])
    for refuse in (
        lambda: check_compatible([good, bad]),
        lambda: state_update(good, bad),
        lambda: apply_update(good, bad),
        lambda: weighted_average([good, bad], [1.0, 1.0]),
        lambda: FederatedServer().alpha_portion_sync({1: good, 2: bad}, {1: 1.0, 2: 1.0}, 0.5),
    ):
        with pytest.raises(ValueError, match=message):
            refuse()


def test_a_spilled_fold_refuses_and_packs_like_a_buffered_one():
    accumulator = StreamingAccumulator(PARITY_LIMIT + 3)
    for seed in range(PARITY_LIMIT + 1):
        accumulator.fold(random_state(seed), 1.0)
    assert O.has_spilled(accumulator)
    accumulator.fold(permuted(random_state(99)), 2.0)
    with pytest.raises(ValueError, match="state 1 has different keys than state 0"):
        accumulator.fold(_missing_key(random_state(100)), 1.0)
    assert isinstance(accumulator.result(), FlatState)
