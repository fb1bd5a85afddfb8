"""Tests for the wire-level transport subsystem: codecs and the channel.

The central guarantees under test:

* every codec's encode → decode round trip is exact where promised
  (bit-exact for float64 identity, quantization-grid-exact for
  ``QuantizationCodec`` — matching the per-tensor grid formula —
  and exact surviving values for ``TopKCodec``),
* payload byte counts are real (``len(data)``) and deterministic,
* a training run routed through an ``IdentityCodec`` float64 channel is
  bit-identical to one without any channel,
* serial and process-pool execution stay bit-identical under every codec,
* top-k sparsified delta uploads with error feedback still converge,
* the carrier envelope (what crosses the pool pipe, the socket and the
  journal instead of a pickle) is bit-exact for raw states and for wire
  tasks under every codec, and refuses what it cannot vouch for,
* the quantize codec's in-place per-tensor passes give the bytes and bits
  of the vectorised oracle in ``tests/fl/oracles.py``,
* a broadcast is decoded once per round in the coordinating process and
  shared read-only by its serial and thread-pool tasks.
"""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.fl import (
    Channel,
    CheckpointManager,
    FederatedClient,
    IdentityCodec,
    ProcessPoolBackend,
    QuantizationCodec,
    SeededModelFactory,
    SerialBackend,
    ThreadPoolBackend,
    TopKCodec,
    create_algorithm,
    create_channel,
    state_bytes,
)
from repro.fl.parameters import FlatState, flat_model_state, flatten_state
from repro.fl.privacy import state_update
from repro.fl.transport import CODECS, TransportDecodeError, WireTask
from repro.fl.transport.codecs import packed_code_bytes, topk_flat_indices
from repro.fl.transport.envelope import (
    decode_carrier,
    encode_carrier,
    pack_envelope,
    unpack_envelope,
)
from repro.fl.trainer import LocalTrainer
from repro.models import RouteNet
from conftest import TINY_CONFIG, build_named, make_factory, run_named, states_equal
from test_state_door import load_fl_oracles

O = load_fl_oracles()


def residual_norm(channel, client_id):
    """L2 norm of one client's error-feedback residual (0 when absent)."""
    residual = channel._residuals.get(client_id)
    if residual is None:
        return 0.0
    return float(np.sqrt(sum(float(np.sum(v**2)) for v in residual.values())))


def _state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.normal(size=(4, 3, 3, 3)),
        "conv.bias": rng.normal(size=4),
        "scale": np.full((2, 2), 1.25),
    }


class TestIdentityCodec:
    def test_float64_roundtrip_bit_exact(self):
        state = _state(1)
        codec = IdentityCodec("float64")
        decoded = codec.decode(codec.encode(state))
        assert states_equal(state, decoded)
        assert codec.lossless

    def test_float64_payload_bytes_are_real_size(self):
        state = _state(2)
        payload = IdentityCodec("float64").encode(state)
        assert payload.num_bytes == state_bytes(state)

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_cast_roundtrip_matches_astype(self, dtype):
        state = _state(3)
        codec = IdentityCodec(dtype)
        decoded = codec.decode(codec.encode(state))
        for name, values in state.items():
            expected = values.astype(dtype).astype(np.float64)
            np.testing.assert_array_equal(decoded[name], expected)
            assert decoded[name].dtype == np.float64

    def test_payload_scales_with_dtype(self):
        state = _state(4)
        full = IdentityCodec("float64").encode(state).num_bytes
        half = IdentityCodec("float32").encode(state).num_bytes
        quarter = IdentityCodec("float16").encode(state).num_bytes
        assert full == 2 * half == 4 * quarter

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            IdentityCodec("int32")

    def test_decode_rejects_foreign_payload(self):
        payload = QuantizationCodec(8).encode(_state())
        with pytest.raises(ValueError, match="encoded by codec"):
            IdentityCodec("float64").decode(payload)


class TestQuantizationCodec:
    @pytest.mark.parametrize("num_bits", [1, 4, 8, 12, 16])
    @pytest.mark.parametrize("deflate", [False, True])
    def test_decode_matches_simulation_exactly(self, num_bits, deflate):
        # The codec must reconstruct exactly the values of the uniform
        # per-tensor grid (same float operations), packed or deflated.
        state = _state(5)
        codec = QuantizationCodec(num_bits, deflate=deflate)
        decoded = codec.decode(codec.encode(state))
        simulated = {}
        for name, values in state.items():
            low, span = values.min(), values.max() - values.min()
            codes = np.round((values - low) / (span or 1.0) * codec.levels)
            simulated[name] = low + codes / codec.levels * span
        assert states_equal(decoded, simulated)

    def test_error_within_quantization_grid(self):
        state = _state(6)
        codec = QuantizationCodec(8, deflate=False)
        decoded = codec.decode(codec.encode(state))
        for name, values in state.items():
            span = float(values.max()) - float(values.min())
            grid = span / codec.levels
            assert np.max(np.abs(decoded[name] - values)) <= grid / 2 + 1e-12

    def test_payload_bytes_without_deflate(self):
        state = _state(7)
        codec = QuantizationCodec(5, deflate=False)
        expected = 0
        for values in state.values():
            array = np.asarray(values)
            expected += 16  # low/high scales, float64 each
            if float(array.max()) > float(array.min()):
                expected += packed_code_bytes(array.size, 5)
        assert codec.encode(state).num_bytes == expected

    def test_constant_tensor_ships_scales_only(self):
        state = {"w": np.full((64,), 3.14)}
        codec = QuantizationCodec(8, deflate=False)
        payload = codec.encode(state)
        assert payload.num_bytes == 16
        np.testing.assert_array_equal(codec.decode(payload)["w"], state["w"])

    @pytest.mark.parametrize("num_bits", [3, 8, 16])
    @pytest.mark.parametrize("position", ["middle", "trailing"])
    def test_empty_tensor_ships_zero_scales(self, num_bits, position):
        # An empty tensor ships scales (0.0, 0.0) and no codes wherever it
        # sorts, and decodes to an empty array; its neighbours are untouched.
        state = _state(9)
        name = "conv.empty" if position == "middle" else "zz.empty"
        state[name] = np.zeros((0, 3))
        codec = QuantizationCodec(num_bits, deflate=False)
        payload = codec.encode(state)
        decoded = codec.decode(payload)
        assert decoded[name].shape == (0, 3)
        full = {key: values for key, values in state.items() if key != name}
        expected = codec.decode(codec.encode(full))
        assert all(decoded[key].tobytes() == expected[key].tobytes() for key in full)
        assert payload.num_bytes == codec.encode(full).num_bytes + 16
        names = [entry for entry, _ in payload.schema]
        stream, offset = payload.data, 0
        for entry in names[: names.index(name)]:
            size = int(np.prod(state[entry].shape))
            offset += 16 + (packed_code_bytes(size, num_bits) if np.ptp(state[entry]) else 0)
        assert np.frombuffer(stream, dtype="<f8", count=2, offset=offset).tolist() == [0.0, 0.0]

    def test_encode_is_deterministic(self):
        state = _state(8)
        codec = QuantizationCodec(8, deflate=True)
        assert codec.encode(state).data == codec.encode(state).data

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationCodec(0)
        with pytest.raises(ValueError):
            QuantizationCodec(17)


def _half_grid(num_bits: int, low: float = -0.37, high: float = 1.93) -> np.ndarray:
    """Every midpoint of the ``num_bits`` grid and its two neighbouring floats.

    Where ``round`` is decided by the last bit, so a reassociated encode
    (``(x - low) * (levels / span)``) lands on other codes for some of them.
    """
    levels = 2**num_bits - 1
    mid = low + (np.arange(levels) + 0.5) / levels * (high - low)
    return np.concatenate([[low, high], np.nextafter(mid, -np.inf), mid, np.nextafter(mid, np.inf)])


def _synthetic_state(num_bits: int, sort: bool) -> FlatState:
    """Random, constant, single-element and half-grid tensors, in model or sorted order."""
    rng = np.random.default_rng(num_bits)
    items = [
        ("grid.mid", _half_grid(num_bits)),
        ("conv.weight", rng.normal(size=(4, 3, 3, 3))),
        ("conv.bias", rng.normal(scale=1e-3, size=4)),
        ("scale", np.full((2, 2), 1.25)),
        ("alpha", np.array(0.75)),
        ("head.bias", rng.normal(size=1)),
        ("bn.running_var", rng.uniform(0.5, 2.0, size=7)),
    ]
    return FlatState.from_items(sorted(items) if sort else items)


@pytest.fixture(scope="module")
def routenet_states(tiny_train_dataset, num_channels):
    """A RouteNet full state (model order) and the delta two FedProx steps made."""
    model = RouteNet(num_channels, seed=3)
    before = flat_model_state(model)
    LocalTrainer(batch_size=2, rng=np.random.default_rng(4)).train_steps(
        model, tiny_train_dataset, steps=2, proximal_mu=1e-3, proximal_reference=before
    )
    after = flat_model_state(model)
    return {"routenet_full": after, "routenet_delta": state_update(before, after)}


class TestQuantizationOracle:
    """The in-place per-tensor codec against the vectorised oracle: same bytes, same bits."""

    @pytest.mark.parametrize("num_bits", [1, 2, 3, 5, 7, 8, 12, 16])
    @pytest.mark.parametrize("deflate", [False, True])
    @pytest.mark.parametrize("case", ["sorted", "model_order", "routenet_full", "routenet_delta"])
    def test_bytes_and_bits_equal_the_oracle(self, num_bits, deflate, case, routenet_states):
        if case in routenet_states:
            state = routenet_states[case]
        else:
            state = _synthetic_state(num_bits, sort=case == "sorted")
        codec = QuantizationCodec(num_bits, deflate=deflate)
        payload = codec.encode(state)
        expected = O.quantize_encode_oracle(codec, state)
        assert payload.schema == expected.schema
        assert payload.data == expected.data
        decoded = codec.decode(payload)
        reference = O.quantize_decode_oracle(codec, payload)
        assert list(decoded) == list(reference)
        for name, values in reference.items():
            assert decoded[name].tobytes() == values.tobytes(), name


class TestTopKCodec:
    def test_exact_count_under_ties(self):
        state = {"w": np.full(10, 2.0)}
        codec = TopKCodec(0.5, value_dtype="float64")
        decoded = codec.decode(codec.encode(state))
        surviving = np.flatnonzero(decoded["w"])
        assert list(surviving) == [0, 1, 2, 3, 4]

    def test_survivors_keep_exact_values_at_float64(self):
        state = _state(9)
        codec = TopKCodec(0.25, value_dtype="float64")
        decoded = codec.decode(codec.encode(state))
        flat = flatten_state(state)
        flat_decoded = flatten_state(decoded)
        kept = np.flatnonzero(flat_decoded)
        np.testing.assert_array_equal(flat_decoded[kept], flat[kept])
        assert kept.size == codec.keep_count(flat.size)

    def test_payload_layout_bytes(self):
        state = _state(10)
        total = flatten_state(state).size
        for dtype, itemsize in (("float64", 8), ("float32", 4), ("float16", 2)):
            codec = TopKCodec(0.2, value_dtype=dtype)
            keep = codec.keep_count(total)
            assert codec.encode(state).num_bytes == 4 + keep * (4 + itemsize)

    def test_full_fraction_float64_is_lossless(self):
        state = _state(11)
        codec = TopKCodec(1.0, value_dtype="float64")
        assert states_equal(state, codec.decode(codec.encode(state)))

    def test_selection_helper_breaks_ties_by_index(self):
        flat = np.array([1.0, -1.0, 0.5, 1.0, -1.0])
        np.testing.assert_array_equal(topk_flat_indices(flat, 3), [0, 1, 3])

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            TopKCodec(0.0)
        with pytest.raises(ValueError):
            TopKCodec(1.5)


class TestChannel:
    def test_identity_roundtrip_and_accounting(self):
        state = _state(12)
        channel = create_channel("none")
        wire_tasks = channel.broadcast([state, state], [1, 2])
        # The same state object is encoded once and its wire task shared...
        assert wire_tasks[0] is wire_tasks[1]
        # ...but bytes are billed once per receiving client.
        size = state_bytes(state)
        assert channel.summary().total_downlink_bytes == 2 * size
        received = channel.receive(1, state=state)
        assert states_equal(received, state)
        assert channel.summary().total_uplink_bytes == size

    def test_bytes_are_totalled_per_round(self):
        state = _state(12)
        size = state_bytes(state)
        channel = create_channel("none")
        channel.broadcast([state, state], [1, 2])
        channel.receive(1, state=state)
        channel.broadcast([state], [1])
        channel.receive(1, state=state)
        channel.broadcast([state], [2], expect_upload=False)
        summary = channel.summary()
        assert summary.rounds == 3
        assert summary.downlink_bytes_per_round == {0: 2 * size, 1: size, 2: size}
        assert summary.uplink_bytes_per_round == {0: size, 1: size}
        assert (summary.total_downlink_bytes, summary.total_uplink_bytes) == (4 * size, 2 * size)

    def test_receive_argument_validation(self):
        channel = create_channel("none")
        channel.broadcast([_state()], [1])
        with pytest.raises(ValueError, match="exactly one"):
            channel.receive(1)
        with pytest.raises(ValueError, match="exactly one"):
            channel.receive(1, state=_state(), payload=IdentityCodec("float64").encode(_state()))

    def test_delta_upload_needs_a_reference(self):
        channel = Channel(QuantizationCodec(8), delta_upload=True)
        with pytest.raises(RuntimeError, match="broadcast reference"):
            channel.receive(1, state=_state())

    def test_each_channel_measures_its_own_traffic(self):
        first = create_channel("none")
        second = create_channel("none")
        first.broadcast([_state()], [1])
        assert first.summary().total_downlink_bytes > 0
        assert second.summary().total_downlink_bytes == 0

    def test_delta_upload_reconstruction(self):
        state = _state(13)
        channel = Channel(QuantizationCodec(8, deflate=False), delta_upload=True)
        channel.broadcast([state], [1])
        new_state = {k: v + 0.01 for k, v in state.items()}
        received = channel.receive(1, state=new_state)
        # reference + quantized(new - reference): within grid error of new.
        for name in state:
            assert np.max(np.abs(received[name] - new_state[name])) < 0.01

    def test_error_feedback_accumulates_and_compensates(self):
        state = _state(14)
        channel = Channel(
            TopKCodec(0.1, value_dtype="float64"),
            downlink_codec=IdentityCodec("float64"),
            delta_upload=True,
            error_feedback=True,
        )
        channel.broadcast([state], [1])
        rng = np.random.default_rng(3)
        new_state = {k: v + 0.1 * rng.normal(size=np.shape(v)) for k, v in state.items()}
        channel.receive(1, state=new_state)
        first_residual = residual_norm(channel, 1)
        assert first_residual > 0.0  # the codec dropped something

        # Round 2: upload an unchanged state.  Without error feedback the
        # delta would be zero and nothing would ever ship; with it, the
        # residual is added to the delta, so the largest dropped entries
        # from round 1 get through and the residual shrinks.
        channel.broadcast([state], [1])
        channel.receive(1, state=state)
        assert residual_norm(channel, 1) < first_residual

    def test_summary_reports_per_round(self):
        state = _state(15)
        channel = create_channel("quantize", compression_bits=8)
        channel.broadcast([state], [1])
        channel.receive(1, state=state)
        channel.broadcast([state], [1])
        channel.receive(1, state=state)
        summary = channel.summary()
        assert summary.rounds == 2
        assert set(summary.uplink_bytes_per_round) == {0, 1}
        assert summary.total_uplink_bytes > 0
        assert summary.delta_upload and not summary.error_feedback
        assert summary.to_dict()["total_bytes"] == summary.total_bytes

    def test_unknown_compression_rejected(self):
        with pytest.raises(ValueError, match="unknown compression"):
            create_channel("gzip")

    def test_wire_objects_are_picklable(self):
        state = _state(16)
        channel = create_channel("topk", topk_fraction=0.2)
        wire_tasks = channel.broadcast([state], [1])
        clone = pickle.loads(pickle.dumps(wire_tasks[0]))
        assert states_equal(
            clone.down_codec.decode(clone.payload),
            channel.downlink_codec.decode(wire_tasks[0].payload),
        )


class CountingQuantization(QuantizationCodec):
    """The quantize codec (same registry name) counting its decodes in this process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decodes = []

    def decode(self, payload):
        self.decodes.append(payload)
        return super().decode(payload)


class CountingIdentity(IdentityCodec):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decodes = []

    def decode(self, payload):
        self.decodes.append(payload)
        return super().decode(payload)


def _counting_channel(delta: bool) -> Channel:
    """A channel whose downlink codec counts; the uplink codec is another object."""
    if delta:
        return Channel(QuantizationCodec(8), downlink_codec=CountingQuantization(8), delta_upload=True)
    return Channel(IdentityCodec("float64"), downlink_codec=CountingIdentity("float64"))


class TestBroadcastDecode:
    """One decode per broadcast in the coordinating process, shared read-only."""

    @pytest.mark.parametrize("delta", [True, False], ids=["quantize_delta", "identity"])
    def test_each_broadcast_is_decoded_once_per_round(self, delta, make_clients, num_channels):
        runs = {}
        for name, backend in (
            ("serial", SerialBackend()),
            ("thread", ThreadPoolBackend(workers=2)),
            ("process", ProcessPoolBackend(workers=2)),
        ):
            channel = _counting_channel(delta)
            runs[name] = run_named("fedavg", make_clients(), num_channels, backend=backend, channel=channel)
            decodes = channel.downlink_codec.decodes
            if name == "process":
                # The workers decode their own envelopes; here only the
                # channel's delta reference is decoded.
                assert len(decodes) == (TINY_CONFIG.rounds if delta else 0)
            else:
                # Two clients a round: the parent decoded 2 + 1 (delta) or 2.
                assert len(decodes) == TINY_CONFIG.rounds
            assert len({id(payload) for payload in decodes}) == len(decodes)
        for name in ("thread", "process"):
            assert states_equal(runs[name].global_state, runs["serial"].global_state), name
            assert [r.mean_loss for r in runs[name].history] == [r.mean_loss for r in runs["serial"].history]

    @pytest.mark.parametrize("delta", [True, False], ids=["quantize_delta", "identity"])
    def test_start_state_is_shared_and_read_only(self, delta):
        channel = _counting_channel(delta)
        state = _state(31)
        tasks = channel.broadcast([state, state], [1, 2])
        assert tasks[0] is tasks[1]
        start = tasks[0].start_state()
        assert tasks[1].start_state() is start
        assert len(channel.downlink_codec.decodes) == 1
        with pytest.raises(ValueError):
            start["conv.bias"][0] = 1.0
        with pytest.raises(ValueError):
            start["scale"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            start.vector[:] = 0.0
        assert states_equal(start, channel.downlink_codec.decode(tasks[0].payload))

    def test_racing_threads_decode_a_shared_task_once(self):
        # More threads than cores, switching every microsecond: the first
        # decode is check-then-act on the shared task, so a lost race would
        # decode twice and hand threads different states.
        channel = _counting_channel(False)
        task = channel.broadcast([_state(33)], [1])[0]
        barrier = threading.Barrier(8)
        seen = []

        def consume():
            barrier.wait(timeout=10)
            seen.append(task.start_state())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consume) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(state is seen[0] for state in seen)
        assert len(channel.downlink_codec.decodes) == 1

    def test_decoded_state_stays_out_of_the_envelope(self):
        channel = _counting_channel(True)
        task = channel.broadcast([_state(32)], [1])[0]
        assert task.decoded is not None
        blob = encode_carrier(task)
        assert blob == encode_carrier(WireTask(task.payload, task.down_codec, task.up_codec, task.delta_upload))
        clone = decode_carrier(blob)
        assert clone.decoded is None and clone.payload == task.payload
        assert states_equal(clone.start_state(), task.decoded)


class TestCarrierEnvelope:
    def test_raw_state_round_trip_is_bit_exact_and_owned(self):
        state = FlatState.from_state(_state(21))
        state["conv.bias"][0] = np.nan
        state["conv.bias"][1] = -0.0
        blob = encode_carrier(state)
        assert b"pickle" not in blob and blob[0] == 2
        decoded = decode_carrier(blob)
        assert decoded.layout is state.layout  # re-interned, state order kept
        assert decoded.vector.tobytes() == state.vector.tobytes()
        assert decoded.vector.flags.writeable and decoded.vector.flags.owndata
        decoded["scale"][:] = 0.0  # the caller's to mutate; the blob is not
        assert decode_carrier(blob)["scale"][0, 0] == 1.25

    def test_plain_dict_states_are_packed_at_the_door(self):
        state = _state(22)
        decoded = decode_carrier(encode_carrier(state))
        assert list(decoded) == list(state)
        assert states_equal(decoded, state)

    @pytest.mark.parametrize(
        "codec",
        [
            IdentityCodec("float64"),
            IdentityCodec("float16"),
            QuantizationCodec(num_bits=5, deflate=False),
            QuantizationCodec(num_bits=8, deflate=True),
            TopKCodec(keep_fraction=0.3, value_dtype="float32", deflate=True),
        ],
    )
    def test_wire_task_round_trip_rebuilds_equal_codecs(self, codec):
        task = WireTask(codec.encode(_state(23)), codec, up_codec=codec, delta_upload=True)
        clone = decode_carrier(encode_carrier(task))
        assert clone.payload == task.payload and isinstance(clone.payload.data, bytes)
        assert type(clone.down_codec) is type(codec)
        assert clone.down_codec.parameters() == codec.parameters()
        assert clone.up_codec.describe() == codec.describe() and clone.delta_upload
        assert states_equal(clone.down_codec.decode(clone.payload), codec.decode(task.payload))
        assert decode_carrier(encode_carrier(WireTask(task.payload, codec))).up_codec is None

    def test_every_registered_codec_is_rebuilt_by_its_parameters(self):
        for name, factory in CODECS.items():
            codec = factory()
            assert factory(**codec.parameters()).describe() == codec.describe(), name

    @pytest.mark.parametrize(
        "path, value, reason",
        [
            (("state",), [["w", [2**40, 2**40]]], "larger than any array"),
            (("state",), [["w", [3]]], "layout disagrees with its buffer"),
            (("state",), [["w", [-1]]], "negative dimension"),
            (("state",), [["w", [1.5]]], "integer dimension"),
            (("wire", "down_codec"), {"name": "pickle", "parameters": {}}, "unknown codec"),
            (("wire", "down_codec"), {"name": "identity", "parameters": {"dtype": "int8"}}, "rejects"),
            (("wire", "down_codec"), {"name": "topk", "parameters": {"surprise": 1}}, "rejects"),
            (("wire", "payload", "data"), 2**62, "byte count disagrees"),
            (("wire", "delta_upload"), 1, "expected a boolean"),
        ],
    )
    def test_lying_metadata_is_a_typed_error(self, path, value, reason):
        codec = IdentityCodec("float32")
        carrier = WireTask(codec.encode(_state(24)), codec) if path[0] == "wire" else {"w": np.ones(2)}
        meta, sections = unpack_envelope(encode_carrier(carrier))
        target = meta
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(TransportDecodeError, match=reason) as excinfo:
            decode_carrier(pack_envelope(meta, sections))
        assert excinfo.value.codec == "envelope"

    def test_a_pickle_is_not_an_envelope(self):
        with pytest.raises(TransportDecodeError, match="not a v2 envelope"):
            decode_carrier(pickle.dumps(FlatState.from_state(_state(25))))
        with pytest.raises(TransportDecodeError, match="exactly one"):
            decode_carrier(pack_envelope({"state": None, "wire": None}))


class TestChannelTrainingIntegration:
    def test_identity_channel_measures_real_bytes(self, make_clients, num_channels):
        channel = create_channel("none")
        clients = make_clients()
        run_named("fedavg", clients, num_channels, channel=channel)
        summary = channel.summary()
        state_size = state_bytes(make_factory(num_channels)().state_dict())
        rounds, n_clients = TINY_CONFIG.rounds, len(clients)
        assert summary.total_downlink_bytes == rounds * n_clients * state_size
        assert summary.total_uplink_bytes == rounds * n_clients * state_size

    @pytest.mark.parametrize("compression", ["float16"])
    def test_serial_and_process_bit_identical_under_every_codec(
        self, compression, make_clients, num_channels
    ):
        """The codecs of the parity matrix's codec axis are its cells'."""
        serial, parallel = (
            run_named("fedavg", make_clients(), num_channels, backend=backend,
                      channel=create_channel(compression, topk_fraction=0.25))
            for backend in (SerialBackend(), ProcessPoolBackend(workers=2))
        )
        assert states_equal(serial.global_state, parallel.global_state)
        assert [r.mean_loss for r in serial.history] == [r.mean_loss for r in parallel.history]

    def test_local_baseline_measures_zero_bytes(self, make_clients, num_channels):
        # Locally created initial states never cross the wire.
        channel = create_channel("none")
        build_named("local", make_clients(), num_channels, channel=channel).run()
        assert channel.summary().total_bytes == 0

    def test_finetune_stage_is_downlink_only(self, make_clients, num_channels):
        # fedprox_finetune: every training round uploads, but the final
        # fine-tuning pass only downloads (the personalized model stays on
        # the client).
        channel = create_channel("none")
        build_named("fedprox_finetune", make_clients(), num_channels, channel=channel).run()
        summary = channel.summary()
        assert summary.rounds == TINY_CONFIG.rounds + 1
        uplink_rounds = set(summary.uplink_bytes_per_round)
        downlink_rounds = set(summary.downlink_bytes_per_round)
        assert downlink_rounds == set(range(TINY_CONFIG.rounds + 1))
        assert uplink_rounds == set(range(TINY_CONFIG.rounds))

    def test_fedbn_private_parameters_never_cross_the_codec(self, client_data, num_channels):
        # FedBN under a lossy wire: the shared part is billed and
        # reconstructed from real payloads, but each client's private
        # normalization statistics must come back bit-exact — they never
        # leave the client, so the codec must never touch them.
        from repro.fl.algorithms.fedbn import normalization_parameter_names

        factory = SeededModelFactory(
            lambda seed: RouteNet(num_channels, base_filters=4, seed=seed), base_seed=0
        )
        clients = [FederatedClient(k, data.train, data.test, factory, TINY_CONFIG) for k, data in enumerate(client_data, 1)]
        norm_names = normalization_parameter_names(factory())

        channel = create_channel("float16")
        lossy = create_algorithm("fedbn", clients, factory, TINY_CONFIG, channel=channel).run()

        # If the private normalization statistics had passed through the
        # float16 wire, every value would be exactly float16-representable;
        # trained running statistics are generic float64s, so at least some
        # must prove they kept full precision.
        assert norm_names
        full_precision_survived = any(
            not np.array_equal(
                state[name], state[name].astype(np.float16).astype(np.float64)
            )
            for state in lossy.client_states.values()
            for name in norm_names
        )
        assert full_precision_survived

        # The measured uplink covers only the shared fraction of the state.
        reference_state = factory().state_dict()
        shared_size = state_bytes(
            {k: v for k, v in reference_state.items() if k not in norm_names},
            bytes_per_value=2,  # float16 wire
        )
        per_round = channel.summary().uplink_bytes_per_round
        assert per_round
        assert all(total == 2 * shared_size for total in per_round.values())

    def test_partial_upload_preserves_private_entries_bit_exact(self):
        # Channel-level check: entries outside upload_names return bit-exact
        # even under an aggressively lossy codec.
        state = _state(20)
        channel = Channel(QuantizationCodec(2, deflate=False))
        channel.broadcast([state], [1])
        new_state = {k: v + 0.5 for k, v in state.items()}
        shared = ["conv.weight"]
        received = channel.receive(1, state=new_state, upload_names=shared)
        assert np.array_equal(received["conv.bias"], new_state["conv.bias"])
        assert np.array_equal(received["scale"], new_state["scale"])
        assert not np.array_equal(received["conv.weight"], new_state["conv.weight"])
        # Only the shared tensor was billed.
        expected = QuantizationCodec(2, deflate=False).encode(
            {"conv.weight": new_state["conv.weight"]}
        ).num_bytes
        assert channel.summary().total_uplink_bytes == expected

    def test_checkpoint_refuses_different_transport(self, tmp_path, make_clients, num_channels):
        # A checkpoint written under a lossy codec must not silently resume
        # into a run with different (or no) transport settings.
        run_named(
            "fedavg", make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path),
            channel=create_channel("quantize"),
        )
        resumed = build_named("fedavg", make_clients(), num_channels, checkpoint=CheckpointManager(tmp_path))
        with pytest.raises(ValueError, match="written by a different run"):
            resumed.run()

    def test_topk_with_error_feedback_converges(self, make_clients, num_channels):
        # A seeded FedAvg run with sparsified delta uploads + error feedback
        # must still train: the final round's mean loss improves on the
        # first round's.
        config = replace(TINY_CONFIG, rounds=4)
        channel = create_channel("topk", topk_fraction=0.25)
        training = run_named("fedavg", make_clients(config), num_channels, config, channel=channel)
        losses = [record.mean_loss for record in training.history]
        assert np.all(np.isfinite(losses))
        assert losses[-1] < losses[0]
        # The codec genuinely dropped something along the way.
        assert any(residual_norm(channel, cid) > 0 for cid in (1, 2))
