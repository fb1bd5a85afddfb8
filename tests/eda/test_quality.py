"""Tests for placement and routing quality metrics."""

import pytest

from repro.eda.global_router import route_placement
from repro.eda.placement import PlacementConfig, Placer
from repro.eda.quality import (
    net_wirelengths,
    placement_quality,
    quality_table,
    routing_quality,
    total_steiner_wirelength,
)
from repro.eda.steiner import hpwl


def distinct_net_cells(netlist):
    """``{net: its distinct cell names in pin order}``, read straight off the pin table."""
    bounds = netlist.pin_offsets.tolist()
    cells = [netlist.cell_names[c] for c in netlist.pin_cells.tolist()]
    return {
        net: list(dict.fromkeys(cells[start:stop]))
        for net, start, stop in zip(netlist.net_names, bounds[:-1], bounds[1:])
    }


class TestNetWirelengths:
    def test_covers_every_multi_cell_net(self, small_placement):
        lengths = net_wirelengths(small_placement)
        nets = distinct_net_cells(small_placement.design.netlist)
        multi = [net for net, names in nets.items() if len(names) >= 2]
        assert set(lengths) == set(multi)

    def test_matches_manual_hpwl(self, small_placement):
        lengths = net_wirelengths(small_placement)
        centers = small_placement.centers_um()
        net, names = next(iter(distinct_net_cells(small_placement.design.netlist).items()))
        points = centers[[small_placement.cell_index(n) for n in names]]
        assert lengths[net] == pytest.approx(hpwl(points))

    def test_steiner_at_least_hpwl(self, small_placement):
        plain = net_wirelengths(small_placement, steiner=False)
        steiner = net_wirelengths(small_placement, steiner=True)
        for name, value in plain.items():
            assert steiner[name] >= value - 1e-9

    def test_hpwl_bit_equal_to_per_net_estimator(self, small_placement, macro_placement):
        """The boxes-derived HPWL is the per-net ``hpwl(points)`` value, and sums in net order."""
        for placement in (small_placement, macro_placement):
            centers = placement.centers_um()
            expected = {}
            for net, names in distinct_net_cells(placement.design.netlist).items():
                if len(names) >= 2:
                    expected[net] = hpwl(centers[[placement.cell_index(n) for n in names]])
            lengths = net_wirelengths(placement)
            assert list(lengths.items()) == list(expected.items())

    def test_totals_are_sums(self, small_placement):
        total_hpwl = placement_quality(small_placement).total_hpwl_um
        assert total_hpwl == pytest.approx(sum(net_wirelengths(small_placement).values()))
        assert total_steiner_wirelength(small_placement) >= total_hpwl


class TestPlacementQuality:
    def test_report_fields(self, small_placement):
        report = placement_quality(small_placement)
        netlist = small_placement.design.netlist
        assert report.design == small_placement.design.name
        assert report.num_cells == netlist.num_cells
        assert report.num_nets == netlist.num_nets
        assert report.total_hpwl_um > 0
        assert report.max_net_hpwl_um >= report.mean_net_hpwl_um
        assert 0 < report.utilization < 1.5
        assert report.macro_coverage == 0.0

    def test_macro_design_reports_coverage(self, macro_placement):
        report = placement_quality(macro_placement)
        assert report.num_macros > 0
        assert report.macro_coverage > 0.0

    def test_to_dict_round_trip(self, small_placement):
        report = placement_quality(small_placement)
        data = report.to_dict()
        assert data["design"] == report.design
        assert data["total_hpwl_um"] == report.total_hpwl_um
        assert len(data) == len(report.__dataclass_fields__)

    def test_lower_utilization_means_larger_die_and_hpwl(self, small_design):
        placer = Placer()
        dense = placer.place(small_design, PlacementConfig(grid_width=16, grid_height=16, utilization=0.85, seed=2))
        sparse = placer.place(small_design, PlacementConfig(grid_width=16, grid_height=16, utilization=0.40, seed=2))
        dense_report = placement_quality(dense)
        sparse_report = placement_quality(sparse)
        assert sparse_report.die_width_um > dense_report.die_width_um
        assert sparse_report.total_hpwl_um > dense_report.total_hpwl_um


class TestRoutingQuality:
    @pytest.fixture(scope="class")
    def routed(self, small_placement):
        return route_placement(small_placement)

    def test_report_consistent_with_result(self, routed):
        report = routing_quality(routed)
        assert report.nets_routed == len(routed.routes)
        assert report.wirelength_bins == routed.total_wirelength_bins
        assert report.overflow_total == pytest.approx(routed.total_overflow)
        assert 0.0 <= report.congested_bin_fraction <= 1.0
        assert report.max_congestion >= report.mean_congestion

    def test_threshold_validation(self, routed):
        with pytest.raises(ValueError):
            routing_quality(routed, congestion_threshold=0.0)

    def test_to_dict(self, routed):
        data = routing_quality(routed).to_dict()
        assert data["nets_routed"] == len(routed.routes)


class TestComparisonHelpers:
    def test_quality_table_renders_rows(self, small_placement, macro_placement):
        reports = [placement_quality(small_placement), placement_quality(macro_placement)]
        table = quality_table(reports)
        assert small_placement.design.name in table
        assert macro_placement.design.name in table
        assert len(table.splitlines()) == 2 + len(reports)

    def test_quality_table_empty(self):
        assert "no placements" in quality_table([])
