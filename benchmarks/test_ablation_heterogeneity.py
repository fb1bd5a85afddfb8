"""Ablation: client-level data heterogeneity.

The paper's Section 4.1 attributes the difficulty of decentralized routability
training to heterogeneity: clients hold designs from different benchmark
suites, so their feature and label distributions differ.  This ablation
compares two three-client corpora of identical size — a homogeneous (IID-like)
split where every client holds ISCAS'89-style designs, and the heterogeneous
split where each client holds a different suite — and reports, for each, the
local-baseline AUC, the FedProx AUC, and the client drift (RMS pairwise
distance between client models before aggregation).  Heterogeneity should
increase drift and shrink FedProx's margin over local training.
"""

from dataclasses import replace

from conftest import write_result

from repro.data.clients import ClientSpec
from repro.experiments import ExperimentRunner, smoke
from repro.fl import create_algorithm, evaluate_result

HOMOGENEOUS_SPECS = (
    ClientSpec(1, "iscas89", 2, 1, 8, 4),
    ClientSpec(2, "iscas89", 2, 1, 8, 4),
    ClientSpec(3, "iscas89", 2, 1, 8, 4),
)


def run_heterogeneity_study():
    outcomes = {}
    heterogeneous = smoke("flnet")
    homogeneous = replace(heterogeneous, client_specs=HOMOGENEOUS_SPECS, name="smoke:flnet:iid")
    for label, config in (("homogeneous (IID)", homogeneous), ("heterogeneous", heterogeneous)):
        runner = ExperimentRunner(config)
        clients = runner.federated_clients()
        local = create_algorithm("local", clients, runner.model_factory(), config.fl).run()
        federated = create_algorithm("fedprox", clients, runner.model_factory(), config.fl).run()
        local_auc = evaluate_result(local, clients).average_auc
        fed_auc = evaluate_result(federated, clients).average_auc
        drift = federated.history[-1].extra.get("client_drift", float("nan"))
        outcomes[label] = (local_auc, fed_auc, drift)
    return outcomes


def test_ablation_heterogeneity(benchmark):
    outcomes = benchmark.pedantic(run_heterogeneity_study, rounds=1, iterations=1)

    assert set(outcomes) == {"homogeneous (IID)", "heterogeneous"}
    for local_auc, fed_auc, drift in outcomes.values():
        assert 0.0 <= local_auc <= 1.0
        assert 0.0 <= fed_auc <= 1.0
        assert drift >= 0.0

    lines = [
        "Ablation: client data heterogeneity (FLNet, 3 clients, smoke corpus)",
        "(heterogeneity is expected to increase client drift)",
        "",
        f"{'Split':<20}{'local AUC':>11}{'fedprox AUC':>13}{'RMS pairwise distance':>24}",
    ]
    for label, (local_auc, fed_auc, drift) in outcomes.items():
        lines.append(f"{label:<20}{local_auc:>11.3f}{fed_auc:>13.3f}{drift:>24.3f}")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("ablation_heterogeneity", text)
