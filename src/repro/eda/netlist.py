"""Netlist data model: cells as parallel arrays, nets as one CSR pin table.

The model is deliberately small — the synthetic flow only needs connectivity,
cell geometry, and a macro flag — but it is a real netlist: every net refers
to concrete pins on concrete cells, and the container checks referential
integrity when it is built.  A cell is an index into the cell arrays; net
``k``'s pins are rows ``pin_offsets[k]:pin_offsets[k + 1]`` of the pin table.
A netlist is immutable once built, so the tables derived from it are cached.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


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


def _column(values, dtype, length: int, what: str) -> np.ndarray:
    """``values`` as a read-only 1-D array of ``length`` entries."""
    array = np.array(values, dtype=dtype)
    if array.shape != (length,):
        raise ValueError(f"{what} has shape {array.shape}, expected ({length},)")
    array.flags.writeable = False
    return array


class Netlist:
    """Cells and nets of one design.

    Cell attributes are parallel arrays indexed by a cell's position in
    ``cell_names``:

    ``width_sites`` / ``height_rows``
        Footprint in placement sites horizontally and in rows vertically
        (positive).  Standard cells have ``height_rows == 1``; macros are
        larger in both dimensions.
    ``is_macro``
        Macros are placed first and act as routing blockages.
    ``is_sequential``
        Flip-flops/latches; they anchor the generator's global nets.
    ``cluster``
        Logical-cluster index assigned by the generator, used by the placer
        to keep tightly connected cells together.

    Nets are ``net_names`` plus one pin table in CSR form: net ``k``'s pins
    are rows ``pin_offsets[k]:pin_offsets[k + 1]`` of ``pin_cells`` (cell
    index), ``pin_names`` (name on the cell) and ``pin_is_output`` (``True``
    for a driver pin, ``False`` for a sink).

    Name columns are tuples and array columns are read-only, so a built
    netlist cannot change and :meth:`net_membership` can be cached.
    """

    def __init__(
        self,
        name: str,
        cell_names: Sequence[str],
        width_sites,
        height_rows,
        is_macro,
        is_sequential,
        cluster,
        net_names: Sequence[str],
        pin_offsets,
        pin_cells,
        pin_names: Sequence[str],
        pin_is_output,
    ):
        self.name = name
        self.cell_names: Tuple[str, ...] = tuple(cell_names)
        self.net_names: Tuple[str, ...] = tuple(net_names)
        self.pin_names: Tuple[str, ...] = tuple(pin_names)
        n_cells, n_pins = len(self.cell_names), len(self.pin_names)
        self.width_sites = _column(width_sites, np.int64, n_cells, "width_sites")
        self.height_rows = _column(height_rows, np.int64, n_cells, "height_rows")
        self.is_macro = _column(is_macro, bool, n_cells, "is_macro")
        self.is_sequential = _column(is_sequential, bool, n_cells, "is_sequential")
        self.cluster = _column(cluster, np.int64, n_cells, "cluster")
        self.pin_offsets = _column(pin_offsets, np.intp, len(self.net_names) + 1, "pin_offsets")
        self.pin_cells = _column(pin_cells, np.intp, n_pins, "pin_cells")
        self.pin_is_output = _column(pin_is_output, bool, n_pins, "pin_is_output")
        self._membership: Optional[NetMembership] = None

        for kind, names in (("cell", self.cell_names), ("net", self.net_names)):
            if len(set(names)) < len(names):
                duplicate = next(item for item, count in Counter(names).items() if count > 1)
                raise ValueError(f"duplicate {kind} name {duplicate!r} in netlist {name!r}")
        for what, sizes in (("width_sites", self.width_sites), ("height_rows", self.height_rows)):
            bad = np.flatnonzero(sizes <= 0)
            if bad.size:
                raise ValueError(
                    f"{what} must be positive, got {int(sizes[bad[0]])} for cell {self.cell_names[bad[0]]!r}"
                )
        offsets = self.pin_offsets
        if offsets[0] != 0 or offsets[-1] != n_pins or np.any(np.diff(offsets) < 0):
            raise ValueError(f"pin_offsets must rise from 0 to {n_pins} in netlist {name!r}")
        unknown = np.flatnonzero((self.pin_cells < 0) | (self.pin_cells >= n_cells))
        if unknown.size:
            net = int(np.searchsorted(offsets, unknown[0], side="right")) - 1
            raise ValueError(
                f"net {self.net_names[net]!r} references unknown cell index {int(self.pin_cells[unknown[0]])}"
            )

    # -- statistics --------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cell_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_macros(self) -> int:
        return int(self.is_macro.sum())

    @property
    def num_pins(self) -> int:
        return len(self.pin_names)

    def pin_nets(self) -> np.ndarray:
        """Net index of every pin."""
        return np.repeat(np.arange(self.num_nets, dtype=np.intp), np.diff(self.pin_offsets))

    def net_membership(self) -> NetMembership:
        """The :class:`NetMembership` table, built once and cached."""
        if self._membership is None:
            pin_nets = self.pin_nets()
            # A pin is a member when no earlier pin of its net sits on the same cell.
            keys = pin_nets * self.num_cells + self.pin_cells
            first = np.zeros(keys.size, dtype=bool)
            first[np.unique(keys, return_index=True)[1]] = True
            distinct = np.bincount(pin_nets[first], minlength=self.num_nets)
            listed = distinct >= 2
            self._membership = NetMembership(
                names=[self.net_names[k] for k in np.flatnonzero(listed).tolist()],
                cells=self.pin_cells[first & listed[pin_nets]],
                offsets=np.concatenate([[0], np.cumsum(distinct[listed])]).astype(np.intp),
                pin_counts=np.bincount(self.pin_cells, minlength=self.num_cells),
            )
        return self._membership

    def validate(self) -> None:
        """Raise ``ValueError`` if the netlist violates basic structural rules."""
        degree = np.diff(self.pin_offsets)
        drivers = np.bincount(self.pin_nets()[self.pin_is_output], minlength=self.num_nets)
        bad = np.flatnonzero((degree < 2) | (drivers == 0))
        if bad.size:
            net = int(bad[0])
            problem = "has fewer than 2 pins" if degree[net] < 2 else "has no driver pin"
            raise ValueError(f"net {self.net_names[net]!r} {problem}")
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
