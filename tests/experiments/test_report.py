"""Tests for the plain-text run summaries the CLI prints."""

from repro.experiments import smoke
from repro.experiments.report import communication_text, resilience_text, scheduling_text, wire_line
from repro.experiments.runner import AlgorithmOutcome, ExperimentResult
from repro.fl import ChannelSummary, TrainingResult
from repro.fl.evaluation import EvaluationRow
from repro.fl.faults.supervisor import ResilienceSummary
from repro.fl.net import NETWORK_COUNTER_KEYS
from repro.fl.scheduling.scheduler import SchedulingSummary


def _fake_result(model="flnet"):
    """An ExperimentResult with hand-written evaluation rows (no training)."""
    result = ExperimentResult(config=smoke(model))
    for algorithm, auc in (("local", 0.70), ("fedprox", 0.80), ("dp_fedprox", 0.75)):
        row = EvaluationRow(algorithm=algorithm, per_client_auc={1: auc, 2: auc + 0.02})
        result.outcomes.append(
            AlgorithmOutcome(
                algorithm=algorithm,
                evaluation=row,
                training=TrainingResult(algorithm=algorithm),
                runtime_seconds=1.0,
            )
        )
    return result


def _summary(uplink=1000, downlink=2000, rounds=2):
    return ChannelSummary(
        uplink_codec="quantize-8b+deflate",
        downlink_codec="quantize-8b+deflate",
        delta_upload=True,
        error_feedback=False,
        rounds=rounds,
        total_uplink_bytes=uplink,
        total_downlink_bytes=downlink,
        uplink_bytes_per_round={0: uplink // rounds, 1: uplink // rounds},
        downlink_bytes_per_round={0: downlink // rounds, 1: downlink // rounds},
    )


class TestCommunicationReport:
    def test_no_channel_placeholder(self):
        result = _fake_result()
        assert "nothing was measured" in communication_text(result)

    def test_text_contains_greppable_totals(self):
        result = _fake_result()
        result.outcomes[0].communication = _summary(uplink=123456, downlink=7890)
        text = communication_text(result)
        assert "total uplink 123,456 B" in text
        assert "total downlink 7,890 B" in text
        assert "delta uploads" in text


def _scheduling(policy="deadline", **overrides):
    fields = dict(
        policy=policy,
        sampler="uniform(0.67)",
        availability="always",
        straggler="lognormal(median=10, sigma=0.8)",
        rounds=3,
        total_selected=18,
        total_arrived=15,
        total_dropped=3,
        simulated_seconds=1234.56,
    )
    fields.update(overrides)
    return SchedulingSummary(**fields)


def _resilience(**overrides):
    fields = dict(
        quorum=0.7,
        retries=4,
        gave_up=1,
        respawns=0,
        dropped_clients=[2],
        injected={"crash": 2, "exception": 0, "timeout": 1, "corruption": 0},
        backoff_seconds=0.25,
        renormalizations=[{"round": 1, "dropped_ids": [2], "remaining_weight_fraction": 0.6667}],
        retry_policy="exponential(max_retries=2)",
    )
    fields.update(overrides)
    return ResilienceSummary(**fields)


class TestSchedulingReport:
    def test_no_scheduler_placeholder(self):
        assert "every client ran every round" in scheduling_text(_fake_result())

    def test_text_contains_greppable_counts(self):
        result = _fake_result()
        result.outcomes[1].scheduling = _scheduling()
        lines = scheduling_text(result).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("fedprox") and "policy deadline, sampler uniform(0.67)" in lines[0]
        assert "selected 18, arrived 15, dropped stragglers 3" in lines[1]
        assert "simulated time 1,234.6 s over 3 round(s)" in lines[1]

    def test_buffer_line_only_under_fedbuff(self):
        result = _fake_result()
        result.outcomes[0].scheduling = _scheduling()
        result.outcomes[1].scheduling = _scheduling(
            "fedbuff", buffered_aggregations=5, updates_buffered=10, mean_staleness=1.25, max_staleness=3
        )
        text = scheduling_text(result)
        assert text.count("buffered aggregations") == 1
        assert "buffered aggregations 5, buffered updates 10, mean staleness 1.25, max staleness 3" in text


class TestResilienceReport:
    def test_no_manager_placeholder(self):
        assert "a client failure aborts the run" in resilience_text(_fake_result())

    def test_text_contains_greppable_counts(self):
        result = _fake_result()
        result.outcomes[1].resilience = _resilience()
        text = resilience_text(result)
        assert "quorum 0.70, retry policy exponential(max_retries=2)" in text
        assert "retries 4, gave up 1, pool respawns 0, dropped clients 1, backoff 0.2 s" in text
        assert "round 1: dropped [2], remaining weight 0.667" in text
        assert "wire:" not in text

    def test_only_nonzero_injected_faults_are_listed(self):
        result = _fake_result()
        result.outcomes[1].resilience = _resilience()
        assert "injected faults: crash 2, timeout 1" in resilience_text(result)
        result.outcomes[1].resilience = _resilience(injected={"crash": 0, "timeout": 0})
        assert "injected faults" not in resilience_text(result)

    def test_wire_counters_and_injected_wire_faults(self):
        network = {key: 0 for key in NETWORK_COUNTER_KEYS}
        network.update(dispatched=12, completed=11, reconnects=1, injected_disconnects=2)
        result = _fake_result()
        result.outcomes[1].resilience = _resilience(network=network)
        text = resilience_text(result)
        assert "wire: dispatched=12 completed=11" in text
        assert "reconnects=1" in text
        assert "injected wire faults: disconnect 2" in text
        assert "delay" not in text


class TestWireLine:
    def test_counters_in_order_without_injected_keys(self):
        line = wire_line({"dispatched": 3, "replays": 1, "injected_delays": 9, "bytes_sent": 40}, "bytes_sent")
        keys = [item.split("=")[0] for item in line.removeprefix("wire: ").split()]
        expected = [key for key in NETWORK_COUNTER_KEYS if not key.startswith("injected_")]
        assert keys == expected + ["bytes_sent"]
        assert "dispatched=3" in line and "replays=1" in line and "bytes_sent=40" in line
        assert "completed=0" in line
