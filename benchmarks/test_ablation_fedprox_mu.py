"""Ablation: the FedProx proximal term under client heterogeneity.

Section 4.1 of the paper argues that FedProx's proximal term is what keeps
decentralized training stable on heterogeneous routability data.  This
ablation compares FedAvg (mu = 0) against FedProx at the paper's mu and at a
much stronger mu, all with FLNet on the reduced smoke corpus (three clients,
one per suite style), and reports the resulting average AUC and the client
drift (RMS pairwise distance between client models before aggregation).
"""

from dataclasses import replace

from conftest import write_result

from repro.experiments import ExperimentRunner, smoke
from repro.fl import create_algorithm, evaluate_result


def run_mu_sweep():
    config = smoke("flnet")
    runner = ExperimentRunner(config)
    clients = runner.federated_clients()
    outcomes = {}
    for label, algorithm, mu in (
        ("fedavg (mu=0)", "fedavg", 0.0),
        ("fedprox (mu=1e-4)", "fedprox", 1e-4),
        ("fedprox (mu=1e-1)", "fedprox", 1e-1),
    ):
        runner.config.fl = replace(config.fl, proximal_mu=mu)
        training = create_algorithm(algorithm, clients, runner.model_factory(), runner.config.fl).run()
        evaluation = evaluate_result(training, clients)
        drift = training.history[-1].extra.get("client_drift", float("nan"))
        outcomes[label] = (evaluation.average_auc, drift)
    return outcomes


def test_ablation_fedprox_mu(benchmark):
    outcomes = benchmark.pedantic(run_mu_sweep, rounds=1, iterations=1)

    assert len(outcomes) == 3
    for auc, _ in outcomes.values():
        assert 0.0 <= auc <= 1.0

    lines = ["Ablation: FedAvg vs FedProx proximal strength (FLNet, smoke corpus)", ""]
    lines.append(f"{'Setting':<22}{'avg AUC':>10}{'RMS pairwise distance':>24}")
    for label, (auc, drift) in outcomes.items():
        lines.append(f"{label:<22}{auc:>10.3f}{drift:>24.3f}")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("ablation_fedprox_mu", text)
