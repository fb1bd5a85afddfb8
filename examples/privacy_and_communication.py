#!/usr/bin/env python
"""Privacy and communication costs of federated routability estimation.

The paper's framework leaves data where it is and ships model parameters
instead; this example quantifies the two practical costs of that choice:

1. **Differential privacy**: train FLNet with DP-FedProx (per-client update
   clipping + Gaussian noise) at several noise levels and report the
   resulting (epsilon, delta) guarantee next to the achieved ROC AUC, so the
   privacy/utility trade-off is explicit.
2. **Communication**: print the analytic per-round uplink/downlink cost of
   every training algorithm for the three estimators, and show how much
   top-k sparsification and 8-bit quantization would save (and distort).
3. **Measured transport**: run real federated rounds through the wire-level
   transport channel (identity vs. 8-bit quantized delta uploads) and
   compare *measured* payload bytes and accuracy.

Run with:  python examples/privacy_and_communication.py
"""

from __future__ import annotations

import numpy as np

from repro.data import CorpusConfig
from repro.data.clients import ClientSpec, CorpusBuilder
from repro.fl import (
    BYTES_PER_FLOAT32,
    DPFedProx,
    FedProx,
    FederatedClient,
    FLConfig,
    PrivacyConfig,
    QuantizationCodec,
    SeededModelFactory,
    TopKCodec,
    create_channel,
    estimate_communication,
    evaluate_result,
    state_bytes,
    state_distance,
    state_norm,
)
from repro.models import FLNet
from repro.models.registry import available_models, create_model

CLIENT_SPECS = (
    ClientSpec(1, "itc99", train_designs=2, test_designs=1, paper_train_placements=10, paper_test_placements=4),
    ClientSpec(2, "iscas89", train_designs=2, test_designs=1, paper_train_placements=10, paper_test_placements=4),
)

CORPUS = CorpusConfig(
    grid_width=16,
    grid_height=16,
    placement_scale=0.5,
    min_placements_per_design=3,
    base_seed=23,
)

FL = FLConfig(
    rounds=3,
    local_steps=5,
    finetune_steps=10,
    learning_rate=2e-3,
    batch_size=4,
    proximal_mu=1e-4,
)

NOISE_LEVELS = (0.0, 0.3, 1.0)


def privacy_utility_study(clients, factory) -> None:
    print("=== Privacy / utility trade-off (DP-FedProx, client-level DP) ===")
    factory.reset()
    baseline = FedProx(clients, factory, FL).run()
    baseline_auc = evaluate_result(baseline, clients).average_auc
    print(f"{'noise multiplier':>18} {'epsilon':>12} {'avg AUC':>9}")
    print(f"{'(no DP)':>18} {'inf':>12} {baseline_auc:>9.3f}")
    for noise in NOISE_LEVELS:
        factory.reset()
        privacy = PrivacyConfig(clip_norm=0.5, noise_multiplier=noise)
        algorithm = DPFedProx(clients, factory, FL, privacy=privacy)
        result = algorithm.run()
        auc = evaluate_result(result, clients).average_auc
        epsilon = algorithm.accountant.epsilon()
        label = "inf" if np.isinf(epsilon) else f"{epsilon:.2f}"
        print(f"{noise:>18.1f} {label:>12} {auc:>9.3f}")
    print(
        "Clipping alone (noise 0.0) gives no formal guarantee; increasing the noise "
        "tightens epsilon at a growing accuracy cost.\n"
    )


def communication_study(num_channels: int) -> None:
    print("=== Communication cost per algorithm (9 clients, 50 rounds) ===")
    for model_name in available_models():
        state = create_model(model_name, in_channels=num_channels, seed=0).state_dict()
        # Sized at the analytic model's float32 wire precision so the copy
        # size matches the per-algorithm totals printed below it.
        size_mb = state_bytes(state, BYTES_PER_FLOAT32) / 1e6
        print(f"\n{model_name}: {size_mb:.2f} MB per model copy")
        print(f"  {'algorithm':<22} {'total traffic (MB)':>20}")
        for algorithm in ("fedavg", "fedprox", "fedprox_lg", "ifca", "fedprox_finetune"):
            report = estimate_communication(algorithm, state, num_clients=9, rounds=50, global_fraction=0.8, num_clusters=4)
            print(f"  {algorithm:<22} {report.total_bytes / 1e6:>20.1f}")

    print("\n=== Update compression on one FLNet state ===")
    state = create_model("flnet", in_channels=num_channels, seed=0).state_dict()
    for label, codec in (
        ("top-10% sparsification", TopKCodec(keep_fraction=0.10, value_dtype="float64")),
        ("8-bit quantization", QuantizationCodec(num_bits=8, deflate=False)),
        ("4-bit quantization", QuantizationCodec(num_bits=4, deflate=False)),
    ):
        payload = codec.encode(state)
        error = state_distance(state, codec.decode(payload)) / state_norm(state)
        print(
            f"  {label:<24} {state_bytes(state) / payload.num_bytes:>6.1f}x smaller, "
            f"relative L2 error {error:.4f}"
        )


def measured_transport_study(client_data, factory) -> None:
    print("\n=== Measured transport: identity wire vs 8-bit quantized delta uploads ===")
    print(f"{'compression':>12} {'uplink B':>12} {'downlink B':>12} {'avg AUC':>9}")
    for compression in ("none", "quantize"):
        # Fresh clients per setting: per-client RNG streams are stateful, so
        # reusing a roster would compare different batch-sampling sequences
        # instead of isolating the codec's effect.
        factory.reset()
        clients = [FederatedClient.from_client_data(data, factory, FL) for data in client_data]
        channel = create_channel(compression, compression_bits=8)
        result = FedProx(clients, factory, FL, channel=channel).run()
        auc = evaluate_result(result, clients).average_auc
        summary = channel.summary()
        print(
            f"{compression:>12} {summary.total_uplink_bytes:>12,d} "
            f"{summary.total_downlink_bytes:>12,d} {auc:>9.3f}"
        )
    print(
        "Every byte above is the length of a payload that was actually encoded; "
        "quantized uploads are delta-encoded against the received broadcast."
    )


def main() -> None:
    print("Synthesizing two clients' private data...")
    client_data = CorpusBuilder(CORPUS).build_all(CLIENT_SPECS)
    channels = len(CORPUS.features)
    factory = SeededModelFactory(lambda seed: FLNet(channels, hidden_filters=16, seed=seed), base_seed=0)
    clients = [FederatedClient.from_client_data(data, factory, FL) for data in client_data]

    privacy_utility_study(clients, factory)
    communication_study(channels)
    measured_transport_study(client_data, factory)


if __name__ == "__main__":
    main()
