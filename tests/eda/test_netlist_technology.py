"""Tests for the netlist data model and technology abstraction."""

import numpy as np
import pytest

from repro.eda import Netlist, Technology, nangate45
from repro.eda.technology import RoutingLayer


def make_netlist(cells=("a", "b", "c"), nets=None, **overrides):
    """A netlist from cell names and ``{net: [(cell, pin, direction), ...]}``.

    A pin on a cell not in ``cells`` gets the out-of-range index ``len(cells)``.
    """
    if nets is None:
        nets = {
            "n1": [("a", "o", "output"), ("b", "i", "input")],
            "n2": [("b", "o", "output"), ("c", "i", "input"), ("a", "i2", "input")],
        }
    index = {name: i for i, name in enumerate(cells)}
    pins = [pin for net_pins in nets.values() for pin in net_pins]
    columns = dict(
        cell_names=list(cells),
        width_sites=[1] * len(cells),
        height_rows=[1] * len(cells),
        is_macro=[False] * len(cells),
        is_sequential=[False] * len(cells),
        cluster=[0] * len(cells),
        net_names=list(nets),
        pin_offsets=np.cumsum([0] + [len(net_pins) for net_pins in nets.values()]),
        pin_cells=[index.get(cell, len(cells)) for cell, _, _ in pins],
        pin_names=[pin for _, pin, _ in pins],
        pin_is_output=[direction == "output" for _, _, direction in pins],
    )
    columns.update(overrides)
    return Netlist("top", **columns)


class TestNetlist:
    def test_counts(self):
        netlist = make_netlist()
        assert netlist.num_cells == 3
        assert netlist.num_nets == 2
        assert netlist.num_pins == 5
        assert netlist.num_macros == 0

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError, match="duplicate cell name 'a'"):
            make_netlist(cells=("a", "b", "c", "a"))

    def test_duplicate_net_rejected(self):
        with pytest.raises(ValueError, match="duplicate net name 'n1'"):
            make_netlist(net_names=["n1", "n1"])

    def test_net_referencing_unknown_cell_rejected(self):
        nets = {
            "n1": [("a", "o", "output"), ("b", "i", "input")],
            "bad": [("zz", "o", "output"), ("a", "i", "input")],
        }
        with pytest.raises(ValueError, match="net 'bad' references unknown cell"):
            make_netlist(nets=nets)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError, match="width_sites must be positive"):
            make_netlist(width_sites=[1, 0, 1])
        with pytest.raises(ValueError, match="height_rows must be positive"):
            make_netlist(height_rows=[1, 1, -2])

    def test_malformed_pin_table_rejected(self):
        with pytest.raises(ValueError, match="pin_offsets"):
            make_netlist(pin_offsets=[0, 3, 2])
        with pytest.raises(ValueError, match="pin_cells has shape"):
            make_netlist(pin_cells=[0, 1, 1, 2])

    def test_arrays_are_read_only(self):
        netlist = make_netlist()
        with pytest.raises(ValueError):
            netlist.pin_cells[0] = 2

    def test_net_membership_table(self):
        """Distinct cells per multi-cell net; pins (not cells) counted."""
        nets = {
            "n1": [("a", "o", "output"), ("b", "i", "input")],
            "n2": [("b", "o", "output"), ("c", "i", "input"), ("a", "i2", "input")],
            "loop": [("c", "o", "output"), ("c", "i", "input")],
            "twice": [("a", "o", "output"), ("c", "i0", "input"), ("c", "i1", "input")],
            "n3": [("d", "o", "output"), ("a", "i3", "input")],
        }
        netlist = make_netlist(cells=("a", "b", "c", "d"), nets=nets)
        table = netlist.net_membership()
        assert table is netlist.net_membership()
        assert table.names == ["n1", "n2", "twice", "n3"]
        assert table.offsets.tolist() == [0, 2, 5, 7, 9]
        assert table.cells.tolist() == [0, 1, 1, 2, 0, 0, 2, 3, 0]
        assert table.pin_counts.tolist() == [4, 2, 5, 1]
        assert list(table.spans()) == [("n1", 0, 2), ("n2", 2, 5), ("twice", 5, 7), ("n3", 7, 9)]

    def test_validate_accepts_good_netlist(self):
        make_netlist().validate()

    def test_validate_rejects_driverless_net(self):
        nets = {"n": [("a", "i", "input"), ("b", "i", "input")]}
        with pytest.raises(ValueError, match="no driver"):
            make_netlist(cells=("a", "b"), nets=nets).validate()

    def test_validate_rejects_single_pin_net(self):
        nets = {"n1": [("a", "o", "output"), ("b", "i", "input")], "stub": [("c", "o", "output")]}
        with pytest.raises(ValueError, match="'stub' has fewer than 2 pins"):
            make_netlist(nets=nets).validate()


class TestTechnology:
    def test_nangate45_layers(self):
        tech = nangate45()
        assert len(tech.horizontal_layers) == 3
        assert len(tech.vertical_layers) == 3

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
