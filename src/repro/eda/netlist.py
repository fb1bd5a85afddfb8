"""Netlist data model: cells, pins, nets, and the netlist container.

The model is deliberately small — the synthetic flow only needs connectivity,
cell geometry, and a macro flag — but it is a real netlist: every net refers
to concrete pins on concrete cells, and the container validates referential
integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class Cell:
    """A placeable instance (standard cell or macro).

    Attributes
    ----------
    name:
        Unique instance name within the netlist.
    width_sites / height_rows:
        Footprint in placement sites horizontally and in rows vertically.
        Standard cells have ``height_rows == 1``; macros are larger in both
        dimensions.
    is_macro:
        Whether the instance is a macro (placed first, acts as a routing
        blockage for the congestion model).
    is_sequential:
        Whether the instance is a flip-flop/latch; sequential cells anchor
        clusters during netlist generation.
    cluster:
        Logical-cluster index assigned by the generator, used by the placer
        to keep tightly connected cells together.
    """

    name: str
    width_sites: int = 1
    height_rows: int = 1
    is_macro: bool = False
    is_sequential: bool = False
    cluster: int = 0

    def __post_init__(self):
        check_positive("width_sites", self.width_sites)
        check_positive("height_rows", self.height_rows)

    @property
    def area_sites(self) -> int:
        """Footprint area in site units."""
        return self.width_sites * self.height_rows


@dataclass(frozen=True)
class Pin:
    """A pin: a (cell, pin-name) pair with a direction."""

    cell_name: str
    pin_name: str
    direction: str = "input"

    def __post_init__(self):
        if self.direction not in ("input", "output"):
            raise ValueError(f"pin direction must be input/output, got {self.direction!r}")

    @property
    def full_name(self) -> str:
        return f"{self.cell_name}/{self.pin_name}"


@dataclass
class Net:
    """A net connecting one driver pin to one or more sink pins."""

    name: str
    pins: List[Pin] = field(default_factory=list)

    @property
    def driver(self) -> Optional[Pin]:
        for pin in self.pins:
            if pin.direction == "output":
                return pin
        return None

    @property
    def sinks(self) -> List[Pin]:
        return [pin for pin in self.pins if pin.direction == "input"]

    @property
    def degree(self) -> int:
        return len(self.pins)

    def cell_names(self) -> List[str]:
        """Names of the distinct cells touched by this net."""
        return list(dict.fromkeys(pin.cell_name for pin in self.pins))


@dataclass(frozen=True)
class NetMembership:
    """Connectivity of a netlist as flat arrays over netlist-order cell indices.

    ``cells[offsets[i]:offsets[i + 1]]`` are the distinct cells of net
    ``names[i]`` in pin order; only nets touching at least two distinct cells
    are listed, in netlist order.  ``pin_counts[c]`` counts every pin on cell
    ``c`` over *all* nets (a net may touch a cell twice).
    """

    names: List[str]
    cells: np.ndarray
    offsets: np.ndarray
    pin_counts: np.ndarray

    def spans(self) -> Iterator[Tuple[str, int, int]]:
        """``(name, start, stop)`` per listed net; ``cells[start:stop]`` are its members."""
        bounds = self.offsets.tolist()
        return zip(self.names, bounds[:-1], bounds[1:])


class Netlist:
    """A container of cells and nets with referential-integrity checks."""

    def __init__(self, name: str):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._nets: Dict[str, Net] = {}
        self._membership: Optional[NetMembership] = None

    # -- construction --------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell name {cell.name!r} in netlist {self.name!r}")
        self._cells[cell.name] = cell
        self._membership = None
        return cell

    def add_net(self, net: Net) -> Net:
        if net.name in self._nets:
            raise ValueError(f"duplicate net name {net.name!r} in netlist {self.name!r}")
        for pin in net.pins:
            if pin.cell_name not in self._cells:
                raise ValueError(
                    f"net {net.name!r} references unknown cell {pin.cell_name!r}"
                )
        self._nets[net.name] = net
        self._membership = None
        return net

    # -- access ----------------------------------------------------------------
    @property
    def cells(self) -> Dict[str, Cell]:
        return self._cells

    @property
    def nets(self) -> Dict[str, Net]:
        return self._nets

    def cell(self, name: str) -> Cell:
        return self._cells[name]

    def net(self, name: str) -> Net:
        return self._nets[name]

    def iter_cells(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def iter_nets(self) -> Iterator[Net]:
        return iter(self._nets.values())

    # -- statistics --------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def num_nets(self) -> int:
        return len(self._nets)

    @property
    def num_macros(self) -> int:
        return sum(1 for cell in self._cells.values() if cell.is_macro)

    @property
    def num_pins(self) -> int:
        return sum(net.degree for net in self._nets.values())

    def average_net_degree(self) -> float:
        if not self._nets:
            return 0.0
        return self.num_pins / self.num_nets

    def net_membership(self) -> NetMembership:
        """The :class:`NetMembership` table, built once and cached.

        ``add_cell`` / ``add_net`` drop the cache; editing ``Net.pins`` in
        place after the net was added is not seen.
        """
        if self._membership is None:
            index = {name: i for i, name in enumerate(self._cells)}
            names: List[str] = []
            members: List[int] = []
            offsets = [0]
            pin_cells: List[int] = []
            for net in self._nets.values():
                cells = [index[pin.cell_name] for pin in net.pins]
                pin_cells.extend(cells)
                distinct = dict.fromkeys(cells)
                if len(distinct) >= 2:
                    names.append(net.name)
                    members.extend(distinct)
                    offsets.append(len(members))
            self._membership = NetMembership(
                names=names,
                cells=np.asarray(members, dtype=np.intp),
                offsets=np.asarray(offsets, dtype=np.intp),
                pin_counts=np.bincount(np.asarray(pin_cells, dtype=np.intp), minlength=len(index)),
            )
        return self._membership

    def pin_counts_per_cell(self) -> Dict[str, int]:
        """Number of net pins landing on each cell."""
        return dict(zip(self._cells, self.net_membership().pin_counts.tolist()))

    def validate(self) -> None:
        """Raise ``ValueError`` if the netlist violates basic structural rules."""
        for net in self._nets.values():
            if net.degree < 2:
                raise ValueError(f"net {net.name!r} has fewer than 2 pins")
            if net.driver is None:
                raise ValueError(f"net {net.name!r} has no driver pin")
        isolated = int((self.net_membership().pin_counts == 0).sum())
        if isolated > max(2, self.num_cells // 10):
            raise ValueError(
                f"netlist {self.name!r} has {isolated} unconnected cells; "
                "generation likely went wrong"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist(name={self.name!r}, cells={self.num_cells}, nets={self.num_nets}, "
            f"macros={self.num_macros})"
        )

