"""Tests for experiment configuration presets and the paper reference tables."""

import dataclasses
import math
import typing

import pytest

from repro.experiments import (
    PAPER_TABLE1_FLNET_ARCHITECTURE,
    PAPER_TABLE2_SETUP,
    comparison_table,
    default,
    format_rows,
    preset,
    smoke,
)
from repro.experiments.config import TABLE_ALGORITHMS, ExperimentConfig, paper
from repro.experiments.tables import PAPER_TABLES
from repro.fl import FLConfig
from repro.fl.evaluation import EvaluationRow


GROUPS = ("execution", "transport", "scheduling", "resilience", "wire")


def numeric_options():
    """``(group, option)`` for every int/float option the five groups declare."""
    found = []
    for group in GROUPS:
        options = getattr(smoke(), group)
        annotations = typing.get_type_hints(type(options))
        for option in dataclasses.fields(options):
            kinds = typing.get_args(annotations[option.name]) or (annotations[option.name],)
            if (int in kinds or float in kinds) and str not in kinds:
                found.append((group, option.name))
    return found


class TestPresets:
    def test_paper_preset_hyperparameters(self):
        config = paper("flnet")
        assert config.fl.rounds == 50
        assert config.fl.local_steps == 100
        assert config.fl.finetune_steps == 5000
        assert config.corpus.placement_scale == 1.0
        assert len(config.client_specs) == 9

    def test_default_preset_is_scaled_down(self):
        config = default("flnet")
        assert config.fl.rounds < paper().fl.rounds
        assert config.corpus.placement_scale < 1.0
        assert config.algorithms == TABLE_ALGORITHMS

    def test_smoke_preset_uses_reduced_roster(self):
        config = smoke("flnet")
        assert len(config.client_specs) < 9
        assert config.fl.rounds <= 2

    def test_preset_lookup(self):
        assert preset("default", "routenet").model == "routenet"
        with pytest.raises(ValueError):
            preset("huge")

    def test_with_algorithms(self):
        reduced = default("flnet").with_algorithms(["fedprox"])
        assert reduced.algorithms == ("fedprox",)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="x", model="resnet")

    def test_with_execution_keeps_omitted_options(self):
        config = default("flnet").with_execution(checkpoint_dir="ckpt")
        updated = config.with_execution(workers=4)
        assert updated.execution.workers == 4
        assert updated.execution.checkpoint_dir == "ckpt"  # omitted -> kept
        cleared = updated.with_execution(checkpoint_dir=None)
        assert cleared.execution.checkpoint_dir is None  # explicit None -> reset
        assert cleared.execution.workers == 4

    def test_builders_reject_options_of_another_group(self):
        config = default("flnet")
        with pytest.raises(TypeError, match="unexpected keyword argument 'aggregation'"):
            config.with_population(aggregation="streaming")
        with pytest.raises(TypeError, match="unexpected keyword argument 'workers'"):
            config.with_transport(workers=2)
        with pytest.raises(TypeError, match="'compute_dtype'"):
            config.with_scheduling(compute_dtype="float32")

    def test_execution_options_validated(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            default("flnet").with_execution(backend="threads")
        with pytest.raises(ValueError, match="workers must be > 0"):
            default("flnet").with_execution(workers=0)

    def test_with_scheduling_keeps_omitted_options(self):
        config = default("flnet").with_scheduling(participation=0.5)
        updated = config.with_scheduling(straggler_model="lognormal")
        assert updated.scheduling.participation == 0.5  # omitted -> kept
        assert updated.scheduling.straggler_model == "lognormal"
        assert updated.scheduling.requested
        cleared = updated.with_scheduling(participation=None, straggler_model=None)
        assert not cleared.scheduling.requested

    def test_scheduling_options_validated(self):
        with pytest.raises(ValueError, match="participation"):
            default("flnet").with_scheduling(participation=1.5)
        with pytest.raises(ValueError, match="straggler_model must be one of"):
            default("flnet").with_scheduling(straggler_model="snail")
        with pytest.raises(ValueError, match="deadline"):
            default("flnet").with_scheduling(round_policy="deadline")

    def test_fedbuff_incompatible_algorithms_fail_at_config_time(self):
        # fedavgm supports scheduling but not the fedbuff policy; the
        # mismatch must surface before any algorithm trains.
        with pytest.raises(ValueError, match="not supported by \\['fedavgm'\\]"):
            default("flnet").with_algorithms(["fedavg", "fedavgm"]).with_scheduling(
                round_policy="fedbuff"
            )
        # The FedProx family is fine.
        config = default("flnet").with_algorithms(["fedavg", "fedprox"]).with_scheduling(
            round_policy="fedbuff"
        )
        assert config.scheduling.round_policy == "fedbuff"

    def test_each_preset_targets_all_three_models(self):
        for model in ("flnet", "routenet", "pros"):
            assert preset("smoke", model).model == model

    def test_with_wire_keeps_omitted_options(self):
        config = smoke("flnet").with_wire(wire_port=7001, heartbeat_interval=0.5)
        updated = config.with_wire(client_timeout=4.0)
        assert updated.wire.wire_port == 7001  # omitted -> kept
        assert updated.wire.heartbeat_interval == 0.5
        assert updated.wire.client_timeout == 4.0

    def test_wire_options_validated(self):
        with pytest.raises(ValueError, match="port"):
            smoke("flnet").with_wire(wire_port=70000)
        with pytest.raises(ValueError, match="heartbeat"):
            smoke("flnet").with_wire(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="missed probe"):
            smoke("flnet").with_wire(heartbeat_interval=2.0, client_timeout=1.0)
        with pytest.raises(ValueError, match="rate"):
            smoke("flnet").with_wire(wire_fault_disconnect_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            smoke("flnet").with_wire(
                wire_fault_disconnect_rate=0.6, wire_fault_corrupt_rate=0.6
            )

    def test_wire_backend_rejects_workers_and_population(self):
        with pytest.raises(ValueError, match="workers"):
            smoke("flnet").with_execution(backend="wire", workers=4)
        with pytest.raises(ValueError, match="roster"):
            smoke("flnet").with_execution(backend="wire").with_population(population=30)

    def test_wire_backend_is_registered_with_execution(self):
        config = smoke("flnet").with_execution(backend="wire")
        assert config.execution.backend == "wire"


class TestNonFiniteOptions:
    """The range checks test the accepted side, so NaN never slips through."""

    def test_every_numeric_option_is_covered(self):
        assert len(numeric_options()) == 23  # of the 33; the rest are names and paths
        assert ("scheduling", "deadline") in numeric_options()
        assert ("wire", "wire_delay_seconds") in numeric_options()

    @pytest.mark.parametrize("group, option", numeric_options())
    def test_nan_rejected(self, group, option):
        with pytest.raises(ValueError, match=option):
            getattr(smoke(), f"with_{group}")(**{option: math.nan})

    @pytest.mark.parametrize(
        "group, option",
        [("scheduling", "over_selection"), ("wire", "heartbeat_interval")],
    )
    def test_infinity_rejected_where_no_finite_run_could_honour_it(self, group, option):
        # int(ceil(inf * cohort)) overflows; a probe that is never sent
        # cannot miss.  (An infinite deadline or timeout just never fires.)
        with pytest.raises(ValueError, match=option):
            getattr(smoke(), f"with_{group}")(**{option: math.inf})

    def test_population_rejects_nan(self):
        with pytest.raises(ValueError, match="population"):
            smoke().with_scheduling(clients_per_round=2).with_population(math.nan)

    @pytest.mark.parametrize("option", ["learning_rate", "weight_decay", "proximal_mu", "alpha"])
    def test_fl_config_rejects_nan(self, option):
        with pytest.raises(ValueError, match=option):
            FLConfig(**{option: math.nan})


class TestPaperReferenceTables:
    def test_tables_exist_for_all_models(self):
        assert set(PAPER_TABLES) == {"flnet", "routenet", "pros"}

    def test_every_row_has_ten_entries(self):
        for table in PAPER_TABLES.values():
            for values in table.values():
                assert len(values) == 10  # 9 clients + average

    def test_average_column_consistent_with_clients(self):
        for table in PAPER_TABLES.values():
            for values in table.values():
                clients_mean = sum(values[:9]) / 9
                assert values[9] == pytest.approx(clients_mean, abs=0.011)

    def test_headline_claims_hold_in_reference_data(self):
        """The paper's qualitative claims are encoded in its own numbers."""
        flnet = PAPER_TABLES["flnet"]
        routenet = PAPER_TABLES["routenet"]
        pros = PAPER_TABLES["pros"]
        # FedProx with FLNet beats local models; fine-tuning beats FedProx.
        assert flnet["fedprox"][-1] > flnet["local"][-1]
        assert flnet["fedprox_finetune"][-1] >= flnet["fedprox"][-1]
        # Centralized training is the empirical upper bound for FLNet.
        assert flnet["centralized"][-1] >= flnet["fedprox_finetune"][-1]
        # RouteNet and PROS degrade below their local baselines under FedProx.
        assert routenet["fedprox"][-1] < routenet["local"][-1]
        assert pros["fedprox"][-1] < pros["local"][-1]
        # FLNet beats both baselines under decentralized training.
        assert flnet["fedprox"][-1] > routenet["fedprox"][-1]
        assert flnet["fedprox"][-1] > pros["fedprox"][-1]

    def test_paper_average_lookup(self):
        assert PAPER_TABLES["flnet"]["fedprox"][-1] == pytest.approx(0.78)
        assert PAPER_TABLES["routenet"]["centralized"][-1] == pytest.approx(0.83)

    def test_table1_architecture_constants(self):
        assert PAPER_TABLE1_FLNET_ARCHITECTURE[0]["filters"] == 64
        assert PAPER_TABLE1_FLNET_ARCHITECTURE[1]["activation"] == "None"

    def test_table2_totals(self):
        assert len(PAPER_TABLE2_SETUP) == 9
        total_designs = sum(r["train_designs"] + r["test_designs"] for r in PAPER_TABLE2_SETUP)
        total_placements = sum(r["train_placements"] + r["test_placements"] for r in PAPER_TABLE2_SETUP)
        assert total_designs == 74
        assert total_placements == 7131


class TestFormatting:
    def make_row(self, name="fedprox"):
        return EvaluationRow(algorithm=name, per_client_auc={1: 0.8, 2: 0.7})

    def test_format_rows_contains_headers_and_values(self):
        text = format_rows([self.make_row()], title="Table X")
        assert "Table X" in text
        assert "Client 1" in text
        assert "0.800" in text
        assert "FedProx" in text

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_comparison_table(self):
        text = comparison_table("flnet", {"fedprox": 0.75, "local": 0.7})
        assert "paper avg" in text
        assert "0.78" in text  # the paper's FedProx average for FLNet

    def test_format_rows_rounds_to_three_decimals(self):
        row = EvaluationRow(algorithm="fedavg", per_client_auc={1: 0.12345, 2: 0.98765})
        text = format_rows([row])
        assert "0.123" in text and "0.988" in text
        assert "0.556" in text  # the average, 0.55555
        assert "0.1234" not in text

    def test_comparison_table_prints_measured_to_three_decimals(self):
        text = comparison_table("flnet", {"fedprox": 0.76543})
        assert "0.765" in text
        assert "0.7654" not in text
