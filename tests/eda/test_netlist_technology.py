"""Tests for the netlist data model and technology abstraction."""

import pytest

from repro.eda import Cell, Net, Netlist, Pin, Technology, nangate45
from repro.eda.technology import RoutingLayer


class TestCellPinNet:
    def test_cell_area(self):
        assert Cell("a", width_sites=3, height_rows=2).area_sites == 6

    def test_cell_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Cell("a", width_sites=0)

    def test_pin_direction_validation(self):
        with pytest.raises(ValueError):
            Pin("a", "x", direction="bidir")

    def test_net_driver_and_sinks(self):
        net = Net("n", [Pin("a", "o", "output"), Pin("b", "i", "input"), Pin("c", "i", "input")])
        assert net.driver.cell_name == "a"
        assert [p.cell_name for p in net.sinks] == ["b", "c"]
        assert net.degree == 3

    def test_net_cell_names_deduplicated(self):
        net = Net("n", [Pin("a", "o", "output"), Pin("a", "i0", "input"), Pin("b", "i", "input")])
        assert net.cell_names() == ["a", "b"]


class TestNetlist:
    def make_netlist(self):
        netlist = Netlist("top")
        for name in ("a", "b", "c"):
            netlist.add_cell(Cell(name))
        netlist.add_net(Net("n1", [Pin("a", "o", "output"), Pin("b", "i", "input")]))
        netlist.add_net(Net("n2", [Pin("b", "o", "output"), Pin("c", "i", "input"), Pin("a", "i2", "input")]))
        return netlist

    def test_counts(self):
        netlist = self.make_netlist()
        assert netlist.num_cells == 3
        assert netlist.num_nets == 2
        assert netlist.num_pins == 5
        assert netlist.average_net_degree() == pytest.approx(2.5)

    def test_duplicate_cell_rejected(self):
        netlist = self.make_netlist()
        with pytest.raises(ValueError):
            netlist.add_cell(Cell("a"))

    def test_net_referencing_unknown_cell_rejected(self):
        netlist = self.make_netlist()
        with pytest.raises(ValueError):
            netlist.add_net(Net("bad", [Pin("zz", "o", "output"), Pin("a", "i", "input")]))

    def test_pin_counts_per_cell(self):
        counts = self.make_netlist().pin_counts_per_cell()
        assert counts == {"a": 2, "b": 2, "c": 1}

    def test_net_membership_table(self):
        """Distinct cells per multi-cell net; pins (not cells) counted; dropped by add_cell/add_net."""
        netlist = self.make_netlist()
        netlist.add_net(Net("loop", [Pin("c", "o", "output"), Pin("c", "i", "input")]))
        netlist.add_net(Net("twice", [Pin("a", "o", "output"), Pin("c", "i0", "input"), Pin("c", "i1", "input")]))
        table = netlist.net_membership()
        assert table is netlist.net_membership()
        assert table.names == ["n1", "n2", "twice"]
        assert table.offsets.tolist() == [0, 2, 5, 7]
        assert table.cells.tolist() == [0, 1, 1, 2, 0, 0, 2]
        assert table.pin_counts.tolist() == [3, 2, 5]
        assert list(table.spans()) == [("n1", 0, 2), ("n2", 2, 5), ("twice", 5, 7)]
        netlist.add_cell(Cell("d"))
        assert netlist.net_membership().pin_counts.tolist() == [3, 2, 5, 0]
        netlist.add_net(Net("n3", [Pin("d", "o", "output"), Pin("a", "i3", "input")]))
        assert netlist.net_membership().names[-1] == "n3"
        assert netlist.pin_counts_per_cell() == {"a": 4, "b": 2, "c": 5, "d": 1}

    def test_validate_accepts_good_netlist(self):
        self.make_netlist().validate()

    def test_validate_rejects_driverless_net(self):
        netlist = Netlist("bad")
        netlist.add_cell(Cell("a"))
        netlist.add_cell(Cell("b"))
        netlist.add_net(Net("n", [Pin("a", "i", "input"), Pin("b", "i", "input")]))
        with pytest.raises(ValueError):
            netlist.validate()


class TestTechnology:
    def test_nangate45_layers(self):
        tech = nangate45()
        assert len(tech.horizontal_layers) == 3
        assert len(tech.vertical_layers) == 3
        assert tech.site_area_um2() > 0

    def test_capacity_scales_with_span(self):
        tech = nangate45()
        assert tech.horizontal_capacity(20.0) == pytest.approx(2 * tech.horizontal_capacity(10.0))

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            RoutingLayer("m1", "diagonal", 0.2)
        with pytest.raises(ValueError):
            RoutingLayer("m1", "horizontal", -1.0)

    def test_technology_requires_layers(self):
        with pytest.raises(ValueError):
            Technology("t", 0.2, 1.4, ())

    def test_tracks_in_span(self):
        layer = RoutingLayer("m2", "horizontal", 0.2)
        assert layer.tracks_in(2.0) == pytest.approx(10.0)
