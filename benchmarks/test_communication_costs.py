"""Communication cost of decentralized training, per estimator and algorithm.

Federated training's practical footprint is the parameter traffic it
generates.  This benchmark (no training involved) sizes each of the three
estimators at the paper's configuration (9 clients, R = 50 rounds) and tables
the total traffic of every algorithm in the registry, plus the savings that
top-k sparsification and 8-bit quantization realize on one FLNet state
(real encoded payloads against the state's real float64 in-memory size; see
``test_transport_compression`` for *measured* traffic of full training runs).
"""

from conftest import write_result

from repro.fl import (
    BYTES_PER_FLOAT32,
    QuantizationCodec,
    TopKCodec,
    estimate_communication,
    state_bytes,
    state_distance,
    state_norm,
)
from repro.models.registry import available_models, create_model

NUM_CLIENTS = 9
ROUNDS = 50
CHANNELS = 6
ALGORITHMS_TO_TABLE = ("fedavg", "fedprox", "fedprox_lg", "ifca", "fedprox_finetune", "fedbn")


def run_costs():
    per_model = {}
    for name in available_models():
        state = create_model(name, in_channels=CHANNELS, seed=0).state_dict()
        rows = {}
        for algorithm in ALGORITHMS_TO_TABLE:
            report = estimate_communication(
                algorithm, state, num_clients=NUM_CLIENTS, rounds=ROUNDS, global_fraction=0.8, num_clusters=4
            )
            rows[algorithm] = report.total_bytes
        # Sized at the analytic model's float32 wire precision so the column
        # stays comparable with the per-algorithm totals next to it.
        per_model[name] = (state_bytes(state, BYTES_PER_FLOAT32), rows)

    flnet_state = create_model("flnet", in_channels=CHANNELS, seed=0).state_dict()
    codecs = {
        "top-10% sparsification": TopKCodec(keep_fraction=0.10, value_dtype="float64"),
        "8-bit quantization": QuantizationCodec(num_bits=8, deflate=False),
    }
    compression_rows = {}
    for label, codec in codecs.items():
        payload = codec.encode(flnet_state)
        error = state_distance(flnet_state, codec.decode(payload)) / state_norm(flnet_state)
        compression_rows[label] = (state_bytes(flnet_state) / payload.num_bytes, error)
    return per_model, compression_rows


def test_communication_costs(benchmark):
    per_model, compression_rows = benchmark.pedantic(run_costs, rounds=1, iterations=1)

    assert set(per_model) == set(available_models())
    for _, rows in per_model.values():
        assert rows["fedbn"] <= rows["fedprox"]
        assert rows["ifca"] >= rows["fedprox"]

    lines = [
        f"Communication cost ({NUM_CLIENTS} clients, {ROUNDS} rounds, "
        "analytic model at float32 wire precision)",
        "",
        f"{'Model':<10}{'state (MB)':>12}" + "".join(f"{name:>18}" for name in ALGORITHMS_TO_TABLE),
    ]
    for model, (size, rows) in per_model.items():
        cells = "".join(f"{rows[name] / 1e6:>18.1f}" for name in ALGORITHMS_TO_TABLE)
        lines.append(f"{model:<10}{size / 1e6:>12.2f}{cells}")
    lines.append("")
    lines.append("Update compression on one FLNet state:")
    for label, (ratio, error) in compression_rows.items():
        lines.append(f"  {label:<26}{ratio:>6.1f}x smaller, relative L2 error {error:.4f}")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("communication_costs", text)
