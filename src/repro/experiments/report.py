"""Reporting: turn experiment results and bench outputs into markdown.

The benchmark harness writes every regenerated table to ``benchmarks/out/``
(committed copies: ``benchmarks/results/``); this module assembles those
text artifacts — and, when available, live
:class:`~repro.experiments.runner.ExperimentResult`
objects — into a single markdown report of the kind EXPERIMENTS.md is built
from, so the paper-vs-measured summary can be refreshed with one call after a
benchmark run instead of by hand.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.experiments.runner import ExperimentResult
from repro.experiments.tables import PAPER_TABLES, ROW_DISPLAY_NAMES, paper_average
from repro.fl.net import NETWORK_COUNTER_KEYS

PathLike = Union[str, Path]

#: Result-file stem -> the paper artifact (or ablation) it documents.
RESULT_DESCRIPTIONS: Dict[str, str] = {
    "table1_flnet_architecture": "Table 1 — FLNet architecture configuration",
    "table2_client_setup": "Table 2 — experiment data setup for each client",
    "table3_flnet": "Table 3 — ROC AUC with FLNet",
    "table4_routenet": "Table 4 — ROC AUC with RouteNet",
    "table5_pros": "Table 5 — ROC AUC with PROS",
    "ablation_fedprox_mu": "Ablation (Sec. 4.1) — FedAvg vs FedProx proximal strength",
    "ablation_model_robustness": "Ablation (Sec. 4.2) — robustness to parameter aggregation",
    "ablation_kernel_size": "Ablation (Sec. 4.2 / Table 1) — FLNet kernel size",
    "ablation_alpha_sync": "Ablation (Sec. 4.3) — alpha-portion sync strength",
    "ablation_ifca_clusters": "Ablation (Sec. 4.3) — IFCA cluster count",
    "ablation_heterogeneity": "Ablation (Sec. 4.1) — IID vs non-IID clients",
    "ablation_privacy": "Extension — differential-privacy noise vs accuracy",
    "communication_costs": "Extension — communication cost per algorithm",
    "execution_backends": "Engineering — serial vs. process-pool execution",
    "transport_compression": "Engineering — measured wire traffic per codec",
    "scheduling_policies": "Engineering — round policies under heavy-tail stragglers",
    "global_router": "Substrate validation — global router",
}


def load_result_texts(results_dir: PathLike) -> Dict[str, str]:
    """Read every ``*.txt`` artifact under ``results_dir`` keyed by stem."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"results directory {results_dir} does not exist")
    texts: Dict[str, str] = {}
    for path in sorted(results_dir.glob("*.txt")):
        texts[path.stem] = path.read_text(encoding="utf-8").rstrip("\n")
    return texts


def _format_bytes(num_bytes: int) -> str:
    """Human-friendly byte count (binary-free, decimal units)."""
    value = float(num_bytes)
    for unit in ("B", "kB", "MB", "GB"):
        if value < 1000.0 or unit == "GB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value):,d} B"
        value /= 1000.0
    return f"{int(num_bytes):,d} B"  # pragma: no cover - unreachable


def communication_markdown(result: ExperimentResult) -> str:
    """A markdown table of *measured* per-round transport traffic.

    One row per algorithm that ran through a transport channel: the uplink
    and downlink codecs, mean measured uplink/downlink bytes per round, and
    run totals.  Returns an explanatory placeholder when the experiment ran
    without compression (no channel, nothing measured).
    """
    measured = [o for o in result.outcomes if o.communication is not None]
    if not measured:
        return "_No transport channel was active — run with a compression setting to measure bytes._"
    lines = [
        "| Method | Uplink codec | Downlink codec | Rounds | Uplink/round | Downlink/round | Total uplink | Total downlink |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for outcome in measured:
        comm = outcome.communication
        # Per-round means count only rounds with traffic in that direction
        # (e.g. the fine-tuning pass broadcasts but never uploads).
        up_rounds = max(len(comm.uplink_bytes_per_round), 1)
        down_rounds = max(len(comm.downlink_bytes_per_round), 1)
        lines.append(
            f"| {outcome.algorithm} | {comm.uplink_codec} | {comm.downlink_codec} "
            f"| {comm.rounds} "
            f"| {_format_bytes(comm.total_uplink_bytes // up_rounds)} "
            f"| {_format_bytes(comm.total_downlink_bytes // down_rounds)} "
            f"| {_format_bytes(comm.total_uplink_bytes)} "
            f"| {_format_bytes(comm.total_downlink_bytes)} |"
        )
    return "\n".join(lines)


def communication_text(result: ExperimentResult) -> str:
    """Plain-text rendering of the measured transport traffic (CLI output).

    Per algorithm: codec description, per-round means, and totals.  Lines
    are formatted so that a nonzero run is easy to assert on
    (``total uplink <N> B``).
    """
    measured = [o for o in result.outcomes if o.communication is not None]
    if not measured:
        return "No transport channel was active; nothing was measured."
    lines: List[str] = []
    for outcome in measured:
        comm = outcome.communication
        # Per-round means count only rounds with traffic in that direction
        # (e.g. the fine-tuning pass broadcasts but never uploads).
        up_rounds = max(len(comm.uplink_bytes_per_round), 1)
        down_rounds = max(len(comm.downlink_bytes_per_round), 1)
        flags = []
        if comm.delta_upload:
            flags.append("delta uploads")
        if comm.error_feedback:
            flags.append("error feedback")
        suffix = f" ({', '.join(flags)})" if flags else ""
        lines.append(
            f"{outcome.algorithm:<22} up {comm.uplink_codec} / down {comm.downlink_codec}{suffix}"
        )
        lines.append(
            f"{'':<22} total uplink {comm.total_uplink_bytes:,d} B "
            f"({comm.total_uplink_bytes // up_rounds:,d} B/round), "
            f"total downlink {comm.total_downlink_bytes:,d} B "
            f"({comm.total_downlink_bytes // down_rounds:,d} B/round) "
            f"over {comm.rounds} round(s)"
        )
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    """Human-friendly simulated duration."""
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:,.2f} h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:,.1f} min"
    return f"{seconds:,.1f} s"


def scheduling_markdown(result: ExperimentResult) -> str:
    """A markdown table of the client-scheduling outcome per algorithm.

    One row per algorithm that ran under a round scheduler: the policy and
    models, how many client tasks were selected / arrived / dropped, the
    simulated wall-clock time, and (for fedbuff) buffered-aggregation and
    staleness statistics.  Returns an explanatory placeholder when the
    experiment ran without scheduling options.
    """
    scheduled = [o for o in result.outcomes if o.scheduling is not None]
    if not scheduled:
        return "_No round scheduler was active — run with scheduling options to simulate client populations._"
    lines = [
        "| Method | Policy | Sampler | Straggler | Rounds | Selected | Arrived | Dropped | Simulated time | Aggregations | Mean staleness |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for outcome in scheduled:
        sched = outcome.scheduling
        aggregations = str(sched.buffered_aggregations) if sched.policy == "fedbuff" else "—"
        staleness = f"{sched.mean_staleness:.2f}" if sched.policy == "fedbuff" else "—"
        lines.append(
            f"| {outcome.algorithm} | {sched.policy} | {sched.sampler} | {sched.straggler} "
            f"| {sched.rounds} | {sched.total_selected} | {sched.total_arrived} "
            f"| {sched.total_dropped} | {_format_seconds(sched.simulated_seconds)} "
            f"| {aggregations} | {staleness} |"
        )
    return "\n".join(lines)


def scheduling_text(result: ExperimentResult) -> str:
    """Plain-text rendering of the client-scheduling outcome (CLI output).

    Lines are formatted so a run's effects are easy to assert on
    (``dropped stragglers <N>``, ``buffered aggregations <N>``).
    """
    scheduled = [o for o in result.outcomes if o.scheduling is not None]
    if not scheduled:
        return "No round scheduler was active; every client ran every round."
    lines: List[str] = []
    for outcome in scheduled:
        sched = outcome.scheduling
        lines.append(
            f"{outcome.algorithm:<22} policy {sched.policy}, sampler {sched.sampler}, "
            f"availability {sched.availability}, straggler {sched.straggler}"
        )
        lines.append(
            f"{'':<22} selected {sched.total_selected}, arrived {sched.total_arrived}, "
            f"dropped stragglers {sched.total_dropped}, simulated time "
            f"{sched.simulated_seconds:,.1f} s over {sched.rounds} round(s)"
        )
        if sched.policy == "fedbuff":
            lines.append(
                f"{'':<22} buffered aggregations {sched.buffered_aggregations}, "
                f"buffered updates {sched.updates_buffered}, "
                f"mean staleness {sched.mean_staleness:.2f}, "
                f"max staleness {sched.max_staleness}"
            )
    return "\n".join(lines)


def resilience_markdown(result: ExperimentResult) -> str:
    """A markdown table of the fault-tolerance outcome per algorithm.

    One row per algorithm that ran under a resilience manager: the quorum
    and retry policy, how many attempts were retried / given up, pool
    respawns, injected fault totals, and the clients permanently dropped.
    Returns an explanatory placeholder when the experiment ran without
    fault-tolerance options.
    """
    resilient = [o for o in result.outcomes if o.resilience is not None]
    if not resilient:
        return "_No resilience manager was active — run with quorum/fault options to exercise fault tolerance._"
    lines = [
        "| Method | Quorum | Retry policy | Retries | Gave up | Respawns | Injected | Dropped clients | Backoff |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for outcome in resilient:
        res = outcome.resilience
        injected = sum(res.injected.values())
        dropped = ", ".join(str(client) for client in res.dropped_clients) or "—"
        lines.append(
            f"| {outcome.algorithm} | {res.quorum:.2f} | {res.retry_policy} "
            f"| {res.retries} | {res.gave_up} | {res.respawns} | {injected} "
            f"| {dropped} | {_format_seconds(res.backoff_seconds)} |"
        )
    networked = [o for o in resilient if o.resilience.network]
    if networked:
        lines.append("")
        lines.append(
            "| Method | Dispatched | Completed | Disconnects | Heartbeat losses "
            "| Reconnects | Replayed | Injected wire faults |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        for outcome in networked:
            net = outcome.resilience.network
            injected_wire = (
                net.get("injected_disconnects", 0)
                + net.get("injected_delays", 0)
                + net.get("injected_corruptions", 0)
            )
            lines.append(
                f"| {outcome.algorithm} | {net.get('dispatched', 0)} "
                f"| {net.get('completed', 0)} | {net.get('disconnects', 0)} "
                f"| {net.get('heartbeat_losses', 0)} | {net.get('reconnects', 0)} "
                f"| {net.get('replays', 0)} | {injected_wire} |"
            )
    return "\n".join(lines)


def wire_line(network: Mapping[str, int], *extra: str) -> str:
    """One greppable line per wire run: ``wire: dispatched=N ... reconnects=N ...``.

    Every server counter but the injected-fault ones (they get their own
    line), then any ``extra`` keys of ``network`` (the byte totals).
    """
    keys = [key for key in NETWORK_COUNTER_KEYS if not key.startswith("injected_")]
    return "wire: " + " ".join(f"{key}={network.get(key, 0)}" for key in (*keys, *extra))


def resilience_text(result: ExperimentResult) -> str:
    """Plain-text rendering of the fault-tolerance outcome (CLI output).

    Lines are formatted so a chaos run's effects are easy to assert on
    (``retries <N>``, ``dropped clients <N>``).
    """
    resilient = [o for o in result.outcomes if o.resilience is not None]
    if not resilient:
        return "No resilience manager was active; a client failure aborts the run."
    lines: List[str] = []
    for outcome in resilient:
        res = outcome.resilience
        lines.append(
            f"{outcome.algorithm:<22} quorum {res.quorum:.2f}, retry policy {res.retry_policy}"
        )
        lines.append(
            f"{'':<22} retries {res.retries}, gave up {res.gave_up}, "
            f"pool respawns {res.respawns}, dropped clients {len(res.dropped_clients)}, "
            f"backoff {res.backoff_seconds:,.1f} s"
        )
        if any(res.injected.values()):
            injected = ", ".join(
                f"{kind} {count}" for kind, count in res.injected.items() if count
            )
            lines.append(f"{'':<22} injected faults: {injected}")
        if res.network:
            net = res.network
            lines.append(f"{'':<22} {wire_line(net)}")
            injected_wire = {
                kind: net.get(f"injected_{kind}s", 0)
                for kind in ("disconnect", "delay", "corruption")
                if net.get(f"injected_{kind}s", 0)
            }
            if injected_wire:
                rendered = ", ".join(f"{kind} {count}" for kind, count in injected_wire.items())
                lines.append(f"{'':<22} injected wire faults: {rendered}")
        for record in res.renormalizations:
            lines.append(
                f"{'':<22} round {record['round']}: dropped {record['dropped_ids']}, "
                f"remaining weight {record['remaining_weight_fraction']:.3f}"
            )
    return "\n".join(lines)


def comparison_markdown(model: str, result: ExperimentResult, digits: int = 3) -> str:
    """A markdown paper-vs-measured table for one table experiment.

    ``model`` selects the paper table (``flnet`` -> Table 3, ``routenet`` ->
    Table 4, ``pros`` -> Table 5); rows of ``result`` whose algorithm does not
    appear in the paper's table (e.g. extension algorithms) are listed with an
    em-dash in the paper column.
    """
    if model.lower() not in PAPER_TABLES:
        raise ValueError(f"no paper table for model {model!r}; expected one of {sorted(PAPER_TABLES)}")
    lines = ["| Method | Paper avg | Measured avg |", "|---|---|---|"]
    paper_table = PAPER_TABLES[model.lower()]
    for row in result.rows:
        display = ROW_DISPLAY_NAMES.get(row.algorithm, row.algorithm)
        if row.algorithm in paper_table:
            paper_value = f"{paper_average(model, row.algorithm):.2f}"
        else:
            paper_value = "—"
        lines.append(f"| {display} | {paper_value} | {row.average_auc:.{digits}f} |")
    return "\n".join(lines)


def results_report(
    results_dir: PathLike,
    title: str = "Regenerated evaluation artifacts",
    descriptions: Optional[Mapping[str, str]] = None,
) -> str:
    """A markdown report embedding every bench artifact under ``results_dir``.

    Each artifact becomes a section headed by its paper-artifact description
    (falling back to the file stem for unknown files) with the bench's text
    output in a fenced code block.
    """
    descriptions = dict(RESULT_DESCRIPTIONS if descriptions is None else descriptions)
    texts = load_result_texts(results_dir)
    lines: List[str] = [f"# {title}", ""]
    if not texts:
        lines.append("_No benchmark results found — run `pytest benchmarks/ --benchmark-only` first._")
        return "\n".join(lines)

    known = [stem for stem in descriptions if stem in texts]
    unknown = [stem for stem in sorted(texts) if stem not in descriptions]
    for stem in known + unknown:
        heading = descriptions.get(stem, stem)
        lines.append(f"## {heading}")
        lines.append("")
        lines.append("```text")
        lines.append(texts[stem])
        lines.append("```")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def write_results_report(
    results_dir: PathLike,
    output_path: PathLike,
    title: str = "Regenerated evaluation artifacts",
) -> Path:
    """Render :func:`results_report` and write it to ``output_path``."""
    output_path = Path(output_path)
    output_path.write_text(results_report(results_dir, title=title), encoding="utf-8")
    return output_path
