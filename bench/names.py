"""Workload and metric names: the single list the harness emits from.

``BENCHMARK.json`` repeats these names for the driver; a unit test keeps
the two in agreement.  Definitions live in ``bench/README.md``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name -> one-line reason (copied into BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "fed9_flnet16": (
        "9 clients, FLNet, FedProx, serial, identity channel: nn is ~99% of the round, "
        "so an nn gain shows here and a wire, codec or eda gain must not"
    ),
    "fed9_routenet16_q8": (
        "same roster with RouteNet and the 8-bit+DEFLATE delta channel: many small layers, "
        "10x the parameters, codec ~15% of the round; a conv change tuned to 9x9 kernels shows its cost here"
    ),
    "wire16_routenet8": (
        "16 clients, RouteNet 8x8, FedAvg over the loopback WireBackend with one joiner process: "
        "2.9 MB states cross the socket 32x a round; the wire and the server's state handling are ~45% of it"
    ),
    "pipeline_smoke": (
        "the real pipeline, cold, at the smoke preset: corpus build, two algorithm runs, evaluation; "
        "eda+features are ~2/3 of it, so a corpus gain shows only here and an nn gain moves it little"
    ),
}

#: (name, unit, better, bound) of the end-to-end metrics, same on every workload.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("cycle_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("wire_mb_per_cycle", "MB", "lower", 0.01),
)


def _layer(prefix: str, *entries: Tuple[str, str, str]) -> List[Tuple[str, str, str]]:
    return [(f"{prefix}.{name}", unit, better) for name, unit, better in entries]


def _times(*names: str) -> List[Tuple[str, str, str]]:
    return [(name, "s", "lower") for name in names]


def _counts(*names: str) -> List[Tuple[str, str, str]]:
    return [(name, "count", "lower") for name in names]


_NN_LEAVES = ("conv2d", "convtranspose2d", "batchnorm2d", "maxpool2d", "relu")

#: (name, unit, better) of the per-layer metrics (traced run).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    _layer(
        "bench",
        *_times("calib_s", "cycle_raw_s", "cycle_median_s"),
        ("cycle_iqr_share", "share", "lower"),
        ("trace_overhead_share", "share", "lower"),
        ("span_coverage_share", "share", "higher"),
        ("drill_coverage_share", "share", "higher"),
    )
    + _layer("eda", *_times("design_s", "place_s", "maps_s", "label_s"), *_counts("placements"))
    + _layer("features", *_times("extract_s"), *_counts("samples"))
    + _layer("data", *_times("build_client_s", "pack_s", "batch_s"), *_counts("batches"))
    + _layer("models", *_times("build_s"), *_counts("params"))
    + _layer(
        "nn",
        *_times("step_s", "forward_s", "loss_s", "backward_s", "optim_s"),
        *_times(*(f"{leaf}.{way}_s" for leaf in _NN_LEAVES for way in ("forward", "backward"))),
        ("alloc_kb_per_step", "kB", "lower"),
        *_counts("pycalls_per_step", "steps"),
    )
    + _layer("fl.client", *_times("task_s", "task_p90_s", "init_s"), *_counts("tasks"))
    + _layer("fl.execution", *_times("map_s", "overhead_s"), *_counts("failures", "retries"))
    + _layer(
        "fl.transport",
        *_times("encode_s", "decode_s"),
        *_counts("encode_calls", "decode_calls"),
        ("uplink_mb", "MB", "lower"),
        ("downlink_mb", "MB", "lower"),
        ("ratio", "ratio", "higher"),
    )
    + _layer("fl.parameters", *_times("average_s", "digest_s", "drift_s"), ("state_mb", "MB", "lower"))
    + _layer("fl.aggregation", *_times("fold_s"), *_counts("folds"))
    + _layer("fl.algorithms", *_times("round_self_s"))
    + _layer(
        "fl.net",
        *_times("encode_task_s", "decode_task_s", "encode_update_s", "decode_update_s"),
        *_times("journal_append_s", "wait_s", "handshake_s"),
        ("frame_mb", "MB", "lower"),
        ("sent_mb", "MB", "lower"),
        ("received_mb", "MB", "lower"),
        *_counts("dispatched", "replays", "reconnects"),
    )
    + _layer("fl.evaluation", *_times("predict_s"), ("avg_auc", "auc", "higher"))
    + _layer("metrics", *_times("auc_s"))
    + _layer("experiments", *_times("run_algorithm_s", "self_s"))
)
