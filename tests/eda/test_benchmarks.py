"""Tests for the synthetic benchmark-suite generators."""

import pytest

from repro.eda.benchmarks import (
    SUITES,
    generate_design,
    suite_names,
)


class TestSuiteRegistry:
    def test_all_four_suites_present(self):
        assert set(suite_names()) == {"iscas89", "itc99", "iwls05", "ispd15"}

    def test_only_ispd15_has_macros(self):
        assert SUITES["ispd15"].macro_count_range[1] > 0
        for name in ("iscas89", "itc99", "iwls05"):
            assert SUITES[name].macro_count_range == (0, 0)

    def test_suites_have_distinct_size_ranges(self):
        ranges = {name: style.cell_count_range for name, style in SUITES.items()}
        assert ranges["iscas89"][1] < ranges["ispd15"][0] + ranges["ispd15"][1]
        assert ranges["iscas89"][0] < ranges["itc99"][0] < ranges["ispd15"][0]

    def test_drc_sensitivities_differ_across_suites(self):
        quantiles = {style.drc.hotspot_quantile for style in SUITES.values()}
        macro_weights = {style.drc.macro_weight for style in SUITES.values()}
        assert len(quantiles) > 1
        assert len(macro_weights) > 1


class TestGenerateDesign:
    def test_deterministic_for_same_seed(self):
        a = generate_design("iscas89", "d", seed=3)
        b = generate_design("iscas89", "d", seed=3)
        assert a.netlist.num_cells == b.netlist.num_cells
        assert a.netlist.num_nets == b.netlist.num_nets
        assert a.netlist.cell_names == b.netlist.cell_names
        assert a.netlist.pin_cells.tobytes() == b.netlist.pin_cells.tobytes()

    def test_different_seeds_differ(self):
        a = generate_design("iscas89", "d", seed=3)
        b = generate_design("iscas89", "d", seed=4)
        assert (a.netlist.num_cells, a.netlist.num_nets) != (b.netlist.num_cells, b.netlist.num_nets)

    def test_cell_count_within_suite_range(self):
        for suite, style in SUITES.items():
            design = generate_design(suite, f"{suite}_probe", seed=0)
            lo, hi = style.cell_count_range
            assert lo <= design.netlist.num_cells <= hi

    def test_explicit_cell_count(self):
        design = generate_design("itc99", "d", seed=0, cell_count=777)
        assert design.netlist.num_cells == 777

    def test_ispd15_contains_macros(self):
        design = generate_design("ispd15", "d", seed=1, cell_count=2000)
        assert design.netlist.num_macros >= SUITES["ispd15"].macro_count_range[0]

    def test_netlist_is_valid(self):
        design = generate_design("iwls05", "d", seed=2, cell_count=1000)
        design.netlist.validate()

    def test_average_net_degree_tracks_suite_fanout(self):
        small = generate_design("iscas89", "a", seed=0, cell_count=600)
        large = generate_design("ispd15", "b", seed=0, cell_count=2500)
        def degree(netlist):
            return netlist.num_pins / netlist.num_nets

        assert degree(large.netlist) > degree(small.netlist) - 0.5

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            generate_design("mcnc", "d", seed=0)

    def test_clusters_are_assigned(self):
        design = generate_design("iscas89", "d", seed=0, cell_count=400)
        clusters = set(design.netlist.cluster.tolist())
        assert len(clusters) > 1

    def test_design_style_property(self):
        design = generate_design("itc99", "d", seed=0, cell_count=700)
        assert design.style is SUITES["itc99"]
