"""End-to-end integration tests: corpus -> federated training -> evaluation.

These use the ``smoke`` preset (3 clients, one per suite style, 16x16 grids,
2 rounds x 2 steps) so the whole experiment pipeline — the same code path the
benchmark harness uses to regenerate the paper's tables — runs in under a
minute.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentRunner, format_rows, run_experiment, smoke
from repro.utils.rng import hash_str, new_rng
from repro.utils.validation import check_choice, check_in_range, check_positive, check_probability


@pytest.fixture(scope="module")
def smoke_runner():
    return ExperimentRunner(smoke("flnet"))


@pytest.fixture(scope="session")
def corpus_cache(tmp_path_factory):
    """One directory the smoke corpus is cached in for the whole session."""
    return tmp_path_factory.mktemp("corpus_cache")


@pytest.mark.slow
def test_readme_python_snippet(corpus_cache):
    """README's documented entry point: ``run_experiment`` then ``as_table``."""
    result = run_experiment(smoke("flnet"), algorithms=["fedavg"], cache_dir=corpus_cache)
    table = result.as_table()
    assert [row["method"] for row in table] == ["fedavg"]
    clients = [f"client{spec.client_id}" for spec in result.config.client_specs]
    assert all(0.0 <= table[0][key] <= 1.0 for key in clients + ["average"])
    assert any(corpus_cache.rglob("*.npz"))


@pytest.mark.slow
class TestSmokeExperiment:
    def test_corpus_matches_spec(self, smoke_runner):
        data = smoke_runner.client_data()
        assert len(data) == len(smoke_runner.config.client_specs)
        for client, spec in zip(data, smoke_runner.config.client_specs):
            assert len(client.train.design_names()) == spec.train_designs
            assert len(client.test.design_names()) == spec.test_designs
            assert client.num_train_samples > 0
            assert client.num_test_samples > 0

    def test_fedprox_and_baselines_run(self, smoke_runner):
        result = smoke_runner.run(["local", "centralized", "fedprox"])
        assert [o.algorithm for o in result.outcomes] == ["local", "centralized", "fedprox"]
        for outcome in result.outcomes:
            for auc in outcome.evaluation.per_client_auc.values():
                assert 0.0 <= auc <= 1.0
            assert outcome.runtime_seconds > 0
        table = result.as_table()
        assert len(table) == 3
        text = format_rows(result.rows, title="smoke")
        assert "smoke" in text

    def test_personalized_algorithm_runs(self, smoke_runner):
        result = smoke_runner.run(["fedprox_finetune"])
        outcome = result.outcomes[0]
        assert outcome.training.client_states
        assert set(outcome.evaluation.per_client_auc) == {1, 2, 3}

    def test_experiment_result_accessors(self, smoke_runner):
        result = smoke_runner.run(["fedprox"])
        assert result.average_auc("fedprox") == result.row("fedprox").average_auc
        with pytest.raises(KeyError):
            result.row("ifca")

    def test_default_population_run_spills_and_releases(self):
        """A 40-client cohort leaves the 32-update parity buffer: the default
        fold becomes the O(P) running sum and every client is released right
        after its update is folded."""
        config = (
            smoke("flnet")
            .with_algorithms(["fedavg"])
            .with_scheduling(clients_per_round=40)
            .with_population(population=10_000)
        )
        outcome = ExperimentRunner(config).run().outcomes[0]
        summary = outcome.population
        assert summary["eager_clients_before_sampling"] == 0
        assert summary["folded_updates"] == config.fl.rounds * 40
        assert summary["peak_materialized"] < 40
        for record in outcome.training.history:
            assert np.isfinite(record.mean_loss)
            assert len(record.per_client_loss) == 40
            # Drift is folded per arrival, so a spilled fold still reports it.
            assert record.extra["client_drift"] > 0


class TestUtils:
    def test_new_rng_accepts_generator(self):
        rng = np.random.default_rng(0)
        assert new_rng(rng) is rng

    def test_hash_str_is_stable(self):
        assert hash_str("fedprox") == hash_str("fedprox")
        assert hash_str("fedprox") != hash_str("fedavg")

    def test_validation_helpers(self):
        assert check_positive("x", 3) == 3
        assert check_positive("x", 0, allow_zero=True) == 0
        with pytest.raises(ValueError):
            check_positive("x", 0)
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)
        assert check_in_range("v", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("v", 50, 0, 10)
        assert check_choice("c", "a", ["a", "b"]) == "a"
        with pytest.raises(ValueError):
            check_choice("c", "z", ["a", "b"])
