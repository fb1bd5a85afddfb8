"""From the traced run's spans to the per-layer metrics and the share report.

Span times are net of the calibration samples taken inside them and are
rescaled, cycle by cycle, by that cycle's calibrated/raw ratio -- the same
yardstick ``cycle_s`` uses.  ``*_s`` metrics that come from boundary spans
are seconds per cycle (mean over the traced cycles); those that come from a
drill are seconds per call (see bench/README.md).
"""

from __future__ import annotations

from typing import Dict, List

from bench.calib import lower_quartile, quantile, slowness
from bench.names import PER_LAYER
from bench.spans import Span, own_times

#: Span name -> the layer its *own* time is charged to in the share report.
LAYER_OF_SPAN = {
    "fl.client.task": "nn",
    "fl.transport.encode": "fl.transport",
    "fl.transport.decode": "fl.transport",
    "fl.execution.map": "fl.execution",
    "fl.aggregation.fold": "fl.aggregation",
    "fl.aggregation.result": "fl.aggregation",
    "fl.parameters.drift": "fl.parameters",
    "data.build_client": "eda+features",
    "fl.evaluation.predict": "fl.evaluation",
    "experiments.run_algorithm": "experiments",
    "cycle": "fl.algorithms",
}

#: workload -> (layer, least share of the cycle it was chosen to show).  The
#: wire (map - tasks) measured 12-15 % of a wire16_routenet8 round, not the
#: 35 % its issue expected: most of the transfer overlaps the joiner's
#: compute, and the server's per-round work on the states is its own row.
DESIGN_INTENT = {
    "fed9_flnet16": ("nn", 0.80),
    "fed9_routenet16_q8": ("fl.transport", 0.10),
    "wire16_routenet8": ("fl.execution", 0.10),
    "pipeline_smoke": ("eda+features", 0.60),
}


def net_seconds(spans: List[Span], marks) -> List[float]:
    """Duration of each span minus the calibration samples taken inside it."""
    pauses = [(mark["end"], mark["start"] - mark["end"]) for mark in marks]
    return [
        float(span["end"]) - float(span["start"])
        - sum(pause for at, pause in pauses if span["start"] <= at <= span["end"])
        for span in spans
    ]


def per_layer_metrics(run, phases) -> Dict[str, float]:
    """Every per-layer metric of bench/names.py (0 where a layer does not run)."""
    notes, marks = run.notes, run.clock.marks
    spans = run.tracer.spans
    traced = [phase for phase in phases if phase["label"] == "traced"]
    untraced = [phase for phase in phases if phase["label"] == "cycle"]
    cycles = len(traced)

    # The joiner's tasks ran in another process: adopt them under the map
    # span that was open when they started.
    if "joiner" in notes:
        maps = [(index, span) for index, span in enumerate(spans) if span["name"] == "fl.execution.map"]
        for start, end in notes["joiner"]["tasks"]:
            for index, span in maps:
                if span["start"] <= start <= span["end"]:
                    spans.append({"name": "fl.client.task", "start": start, "end": end,
                                  "parent": index, "cycle": span["cycle"]})

    roots = {span["cycle"]: span for span in spans if span["name"] == "cycle"}
    factor = {}
    for phase in traced:
        for cycle, root in roots.items():
            if phase["start"] <= root["start"] <= phase["end"]:
                factor[cycle] = phase["calibrated_s"] / phase["raw_s"]
    # A span outside every traced cycle (none is expected) counts for nothing.
    seconds = [
        net * factor[span["cycle"]] if span["parent"] is not None or span["name"] == "cycle" else 0.0
        for span, net in zip(spans, net_seconds(spans, marks))
    ]
    own = own_times(spans, seconds)

    def per_cycle(name: str, values=seconds) -> float:
        return sum(value for span, value in zip(spans, values) if span["name"] == name) / cycles

    def calls(name: str) -> float:
        return sum(1 for span in spans if span["name"] == name) / cycles

    cycle_s = per_cycle("cycle")
    task_s = per_cycle("fl.client.task")
    map_s = per_cycle("fl.execution.map")
    tasks = [value for span, value in zip(spans, seconds) if span["name"] == "fl.client.task"]
    untraced_times = [phase["calibrated_s"] for phase in untraced]
    median = quantile(untraced_times, 0.5)
    share = run.clock.dispatch_share
    speed = 1.0 / quantile([slowness(mark["bulk"], mark["dispatch"], share) for mark in marks], 0.5)
    drill = notes.get("drill", {})
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update({name: value for name, value in drill.items() if name in values})
    steps = float(notes["steps_per_cycle"])
    values.update(
        {
            "bench.calib_s": quantile([mark["bulk"] + mark["dispatch"] for mark in marks], 0.5),
            "bench.cycle_raw_s": lower_quartile([phase["raw_s"] for phase in untraced]),
            "bench.cycle_median_s": median,
            "bench.cycle_iqr_share": (quantile(untraced_times, 0.75) - quantile(untraced_times, 0.25)) / median,
            "bench.trace_overhead_share": lower_quartile([p["calibrated_s"] for p in traced])
            / lower_quartile(untraced_times) - 1.0,
            "bench.span_coverage_share": 1.0 - per_cycle("cycle", own) / cycle_s,
            "bench.drill_coverage_share": drill.get("nn.step_s", 0.0) * steps / task_s if task_s else 0.0,
            "data.build_client_s": per_cycle("data.build_client"),
            "data.batches": steps,
            "nn.steps": steps,
            "fl.client.task_s": task_s,
            "fl.client.task_p90_s": quantile(tasks, 0.9) if tasks else 0.0,
            "fl.client.tasks": calls("fl.client.task"),
            "fl.client.init_s": notes.get("roster_s", 0.0) * speed / notes["clients"],
            "fl.execution.map_s": map_s,
            "fl.execution.overhead_s": map_s - task_s if map_s else 0.0,
            "fl.execution.failures": float(run.failed),
            "fl.execution.retries": float(notes.get("retries", 0)),
            "fl.transport.encode_s": per_cycle("fl.transport.encode"),
            "fl.transport.decode_s": per_cycle("fl.transport.decode"),
            "fl.transport.encode_calls": calls("fl.transport.encode"),
            "fl.transport.decode_calls": calls("fl.transport.decode"),
            "fl.aggregation.fold_s": per_cycle("fl.aggregation.fold") + per_cycle("fl.aggregation.result"),
            "fl.aggregation.folds": calls("fl.aggregation.fold"),
            "fl.parameters.drift_s": per_cycle("fl.parameters.drift"),
            "fl.algorithms.round_self_s": 0.0 if run.args.workload == "pipeline_smoke" else per_cycle("cycle", own),
            "fl.evaluation.predict_s": per_cycle("fl.evaluation.predict") or notes.get("evaluate_s", 0.0) * speed,
            "fl.evaluation.avg_auc": notes["avg_auc"],
            "experiments.run_algorithm_s": per_cycle("experiments.run_algorithm"),
            "experiments.self_s": per_cycle("experiments.run_algorithm", own),
        }
    )
    if "channel" in notes:
        summary = notes["channel"]
        rounds = summary["rounds"]
        up, down = summary["total_uplink_bytes"] / rounds, summary["total_downlink_bytes"] / rounds
        state_bytes = values["models.params"] * 8
        values.update(
            {
                "fl.transport.uplink_mb": up / 1e6,
                "fl.transport.downlink_mb": down / 1e6,
                "fl.transport.ratio": 2 * notes["clients"] * state_bytes / (up + down),
            }
        )
    values["fl.parameters.state_mb"] = values["models.params"] * 8 / 1e6
    if "network" in notes:
        network, rounds = notes["network"], notes["joiner"]["report"]["tasks_run"] / notes["clients"]
        values.update(
            {
                "fl.net.sent_mb": network["bytes_sent"] / rounds / 1e6,
                "fl.net.received_mb": network["bytes_received"] / rounds / 1e6,
                "fl.net.dispatched": network["dispatched"] / rounds,
                "fl.net.replays": float(network["replays"]),
                "fl.net.reconnects": float(network["reconnects"]),
                "fl.net.wait_s": map_s - task_s,
                "fl.net.handshake_s": notes["handshake_s"] * speed,
            }
        )
    report_shares(run.args.workload, spans, own, cycles, cycle_s, drill)
    return values


def report_shares(workload, spans, own, cycles, cycle_s, drill) -> None:
    """Print the cycle's own-time split by layer; warn when the intent fails."""
    shares: Dict[str, float] = {}
    for span, value in zip(spans, own):
        layer = LAYER_OF_SPAN[str(span["name"])]
        if layer == "fl.algorithms" and workload == "pipeline_smoke":
            layer = "bench (client construction, glue)"
        shares[layer] = shares.get(layer, 0.0) + value / cycles
    print(f"layer shares of one {workload} cycle ({cycle_s:.4f} s; own time of the boundary spans):")
    for layer, value in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {layer:36s} {value:9.4f} s  {value / cycle_s:6.1%}")
    print(f"  {'sum':36s} {sum(shares.values()):9.4f} s  {sum(shares.values()) / cycle_s:6.1%}")
    if workload == "pipeline_smoke" and drill:
        inside = {key: drill[key] for key in ("eda.design_s", "eda.place_s", "eda.maps_s", "eda.label_s",
                                              "features.extract_s", "data.pack_s")}
        print("  corpus drill, inside eda+features: " + ", ".join(f"{k} {v:.3f}" for k, v in inside.items()))
    layer, least = DESIGN_INTENT[workload]
    share = shares.get(layer, 0.0) / cycle_s
    if share < least:
        print(f"WARNING: {layer} is {share:.1%} of a {workload} cycle, below the {least:.0%} it was chosen "
              "to show; this workload no longer exercises its layer")
