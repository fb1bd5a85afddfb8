"""Tests for the plain-text run summaries the CLI prints."""

from repro.experiments import smoke
from repro.experiments.report import communication_text
from repro.experiments.runner import AlgorithmOutcome, ExperimentResult
from repro.fl import ChannelSummary, TrainingResult
from repro.fl.evaluation import EvaluationRow


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
