"""Reporting: the plain-text summaries the CLI prints under a result table.

One renderer per after-the-fact summary an algorithm run carries —
measured transport traffic, client scheduling, fault tolerance — each
formatted so a run's effects are easy to assert on with ``grep``.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.experiments.runner import ExperimentResult
from repro.fl.net import NETWORK_COUNTER_KEYS


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
