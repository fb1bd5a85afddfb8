#!/usr/bin/env python
"""Quickstart: train a routability estimator on one synthetic design.

This example walks through the whole single-machine pipeline of the library
in a couple of minutes:

1. generate a synthetic design in the style of a public benchmark suite,
2. run the placer several times to get multiple placement solutions,
3. extract routability features and ground-truth DRC hotspot labels,
4. train FLNet on a few placements and evaluate ROC AUC on held-out ones.

Run with:  python examples/quickstart.py

Works from a fresh checkout: if the ``repro`` package is not installed
(``pip install -e .``), the repository's ``src/`` directory is put on the
path automatically.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    import repro  # noqa: F401 - probing for an installed package
except ImportError:  # fresh checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.data import PlacementSample, RoutabilityDataset
from repro.eda import DrcHotspotLabeler, all_maps, generate_design, sweep_placements
from repro.features import FeatureExtractor
from repro.fl import LocalTrainer, predict_dataset
from repro.metrics import roc_auc_score
from repro.models import FLNet

GRID = 24
TRAIN_PLACEMENTS = 10
TEST_PLACEMENTS = 4
STEPS = 60


def build_dataset() -> tuple:
    """Generate one design, sweep placements, and label DRC hotspots."""
    design = generate_design("itc99", "quickstart_design", seed=7)
    print(f"Generated design: {design.netlist.num_cells} cells, {design.netlist.num_nets} nets")

    placements = sweep_placements(
        design, count=TRAIN_PLACEMENTS + TEST_PLACEMENTS, grid_width=GRID, grid_height=GRID
    )
    extractor = FeatureExtractor()
    labeler = DrcHotspotLabeler(label_seed=1)

    samples = []
    for index, placement in enumerate(placements):
        analysis = all_maps(placement)
        features = extractor.extract(placement, analysis)
        drc = labeler.label(placement, precomputed_maps=analysis)
        samples.append(
            PlacementSample(
                features=features,
                label=drc.hotspots,
                design_name=design.name,
                suite=design.suite,
                placement_index=index,
            )
        )
    train = RoutabilityDataset(samples[:TRAIN_PLACEMENTS], name="quickstart/train")
    test = RoutabilityDataset(samples[TRAIN_PLACEMENTS:], name="quickstart/test")
    print(f"Dataset: {len(train)} training placements, {len(test)} testing placements")
    print(f"Hotspot fraction: {train.hotspot_fraction():.3f}")
    return train, test, extractor.num_channels


def main() -> None:
    train, test, channels = build_dataset()

    model = FLNet(channels, seed=0)
    print(f"FLNet parameters: {model.num_parameters()}")

    trainer = LocalTrainer(
        loss="mse",
        optimizer="adam",
        learning_rate=2e-3,
        weight_decay=1e-5,
        batch_size=4,
        rng=np.random.default_rng(0),
    )
    stats = trainer.train_steps(model, train, steps=STEPS)
    print(f"Trained {stats.steps} steps; mean loss {stats.mean_loss:.4f} -> final loss {stats.final_loss:.4f}")

    scores, labels = predict_dataset(model, test)
    auc = roc_auc_score(labels, scores)
    print(f"Held-out ROC AUC on unseen placements: {auc:.3f}")

    # For comparison: an untrained model of the same architecture.
    untrained_scores, _ = predict_dataset(FLNet(channels, seed=99), test)
    untrained_auc = roc_auc_score(labels, untrained_scores)
    print(f"Untrained-model ROC AUC (reference):   {untrained_auc:.3f}")


if __name__ == "__main__":
    main()
