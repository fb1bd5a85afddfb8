#!/usr/bin/env python
"""Inspecting the synthetic physical-design flow.

This example exercises the EDA substrate on its own (no machine learning):
it generates one design per benchmark-suite style, places each one, runs the
global-routing congestion model and the DRC labeler, and prints the summary
statistics that show how the four suites differ — the client-level data
heterogeneity the paper's federated-learning experiments are built on.

Run with:  python examples/data_generation_flow.py
"""

from __future__ import annotations

import numpy as np

from repro.eda import (
    DrcHotspotLabeler,
    PlacementConfig,
    Placer,
    all_maps,
    estimate_congestion,
    generate_design,
    suite_names,
)

GRID = 32


def describe_suite(suite: str, seed: int) -> dict:
    """Run the full flow for one suite and collect summary statistics."""
    design = generate_design(suite, f"{suite}_demo", seed=seed)
    netlist = design.netlist

    placer = Placer()
    config = PlacementConfig(
        grid_width=GRID,
        grid_height=GRID,
        utilization=float(np.mean(design.style.utilization_range)),
        seed=seed,
    )
    placement = placer.place(design, config)

    analysis = all_maps(placement)
    congestion = estimate_congestion(placement, precomputed_maps=analysis)
    drc = DrcHotspotLabeler(label_seed=0).label(placement, precomputed_maps=analysis)

    return {
        "suite": design.style.display_name,
        "cells": netlist.num_cells,
        "nets": netlist.num_nets,
        "macros": netlist.num_macros,
        "avg_net_degree": netlist.num_pins / netlist.num_nets,
        "die_um": f"{placement.die_width_um:.0f}x{placement.die_height_um:.0f}",
        "utilization": placement.utilization_achieved(),
        "peak_congestion": float(congestion["congestion"].max()),
        "overflow_bins": int((congestion["overflow"] > 0).sum()),
        "hotspot_fraction": drc.hotspot_fraction,
    }


def main() -> None:
    rows = [describe_suite(suite, seed=42 + i) for i, suite in enumerate(suite_names())]

    header = (
        f"{'Suite':<10}{'Cells':>7}{'Nets':>7}{'Macros':>8}{'AvgDeg':>8}"
        f"{'Die (um)':>12}{'Util':>7}{'PeakCong':>10}{'OvflBins':>10}{'Hotspot%':>10}"
    )
    print("Synthetic flow summary, one design per benchmark-suite style")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['suite']:<10}{row['cells']:>7}{row['nets']:>7}{row['macros']:>8}"
            f"{row['avg_net_degree']:>8.2f}{row['die_um']:>12}{row['utilization']:>7.2f}"
            f"{row['peak_congestion']:>10.2f}{row['overflow_bins']:>10}"
            f"{100 * row['hotspot_fraction']:>9.1f}%"
        )
    print()
    print(
        "The systematic differences between the rows (size, macro count, fanout, "
        "utilization, congestion profile) are what make the 9 clients of Table 2 "
        "statistically heterogeneous."
    )


if __name__ == "__main__":
    main()
