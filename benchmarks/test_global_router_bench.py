"""Benchmark of the global-routing substrate.

Routes one synthetic design from each benchmark-suite style on a 24x24 grid
and reports wirelength, overflow before/after negotiated rip-up-and-reroute,
and the correlation between the router's bin-level congestion and the fast
probabilistic congestion model used for bulk dataset generation.  This is a
substrate benchmark (the paper's tables do not include it); it documents how
far the router's congestion agrees with the model that labels every corpus.
The router itself labels nothing.
"""

import numpy as np
from conftest import write_result

from repro.eda import (
    GlobalRouterConfig,
    PlacementConfig,
    Placer,
    estimate_congestion,
    generate_design,
    route_placement,
)

GRID = 24
SUITE_SEEDS = {"iscas89": 3, "itc99": 5, "iwls05": 7, "ispd15": 9}


def run_router_study():
    placer = Placer()
    results = {}
    for suite, seed in SUITE_SEEDS.items():
        design = generate_design(suite, f"router_bench_{suite}", seed=seed)
        placement = placer.place(
            design, PlacementConfig(grid_width=GRID, grid_height=GRID, utilization=0.72, seed=seed)
        )
        routed = route_placement(placement, GlobalRouterConfig(max_ripup_iterations=4))
        model_congestion = estimate_congestion(placement)["congestion"]
        routed_congestion = routed.congestion_maps()["congestion"]
        correlation = float(
            np.corrcoef(model_congestion.ravel(), routed_congestion.ravel())[0, 1]
        )
        results[suite] = {
            "cells": design.netlist.num_cells,
            "nets": len(routed.routes),
            "wirelength_bins": routed.total_wirelength_bins,
            "overflow_initial": routed.initial_overflow,
            "overflow_final": routed.total_overflow,
            "iterations": routed.iterations,
            "correlation": correlation,
        }
    return results


def test_global_router(benchmark):
    results = benchmark.pedantic(run_router_study, rounds=1, iterations=1)

    assert set(results) == set(SUITE_SEEDS)
    for stats in results.values():
        assert stats["wirelength_bins"] > 0
        assert stats["overflow_final"] <= stats["overflow_initial"] + 1e-9
        assert stats["correlation"] > 0.2

    header = (
        f"{'Suite':<10}{'cells':>7}{'nets':>7}{'WL (bins)':>11}"
        f"{'overflow pre':>14}{'overflow post':>15}{'iters':>7}{'corr':>7}"
    )
    lines = ["Global router benchmark (24x24 grid, negotiated rip-up and reroute)", "", header]
    for suite, stats in results.items():
        lines.append(
            f"{suite:<10}{stats['cells']:>7d}{stats['nets']:>7d}{stats['wirelength_bins']:>11d}"
            f"{stats['overflow_initial']:>14.1f}{stats['overflow_final']:>15.1f}"
            f"{stats['iterations']:>7d}{stats['correlation']:>7.2f}"
        )
    text = "\n".join(lines)
    print("\n" + text)
    write_result("global_router", text)
