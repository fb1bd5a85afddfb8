"""On-disk interchange formats for netlists and placements.

Real design flows exchange data through LEF/DEF and structural Verilog; the
reproduction mirrors that with three deliberately simple text formats so the
synthetic corpus can be inspected, archived, and re-loaded without pickling
Python objects:

* **Verilog-style netlist** (``.v``): one module per design, gate instances
  with explicit net connections, plus ``// repro:`` pragmas carrying the
  generator attributes (macro flag, cluster, geometry) that structural
  Verilog cannot express.
* **DEF-style placement** (``.def``): DIEAREA, a COMPONENTS section with
  ``PLACED`` locations in database units, and pragmas carrying the placement
  configuration so a :class:`~repro.eda.placement.Placement` can be
  reconstructed bit-exactly.
* **Bookshelf ``.pl``** positions, the minimal format used by academic
  placers, for interoperability with external tools.

All writers/readers round-trip: ``read(write(x)) == x`` up to floating-point
formatting, which the tests pin down.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.eda.benchmarks import Design, SUITES
from repro.eda.netlist import Netlist
from repro.eda.placement import Placement, PlacementConfig, cell_sizes_um
from repro.eda.technology import Technology, nangate45

PathLike = Union[str, Path]

#: DEF database units per micron (NanGate45 LEF uses 2000).
DEF_UNITS_PER_MICRON = 2000


# ---------------------------------------------------------------------------
# Verilog-style netlist
# ---------------------------------------------------------------------------
def write_netlist_verilog(netlist: Netlist, path: PathLike, suite: Optional[str] = None, seed: int = 0) -> Path:
    """Write ``netlist`` as a structural-Verilog-style file.

    Cell attributes that Verilog cannot express (macro flag, cluster index,
    footprint) are emitted as ``// repro:cell`` pragmas, and the design-level
    suite/seed as a ``// repro:design`` pragma, so :func:`read_netlist_verilog`
    can reconstruct an identical :class:`~repro.eda.netlist.Netlist`.
    """
    path = Path(path)
    lines = [
        f"// repro:design name={netlist.name} suite={suite or 'unknown'} seed={seed}",
        f"module {netlist.name} ();",
    ]
    cells = zip(
        netlist.cell_names,
        netlist.width_sites.tolist(),
        netlist.height_rows.tolist(),
        netlist.is_macro.tolist(),
        netlist.is_sequential.tolist(),
        netlist.cluster.tolist(),
    )
    for name, width, height, macro, sequential, cluster in cells:
        lines.append(
            "  // repro:cell "
            f"name={name} width={width} height={height} "
            f"macro={int(macro)} seq={int(sequential)} cluster={cluster}"
        )
    lines.extend(f"  wire {net};" for net in netlist.net_names)
    pin_nets, pin_cells = netlist.pin_nets().tolist(), netlist.pin_cells.tolist()
    for net, cell, pin, output in zip(pin_nets, pin_cells, netlist.pin_names, netlist.pin_is_output.tolist()):
        lines.append(
            f"  // repro:pin net={netlist.net_names[net]} cell={netlist.cell_names[cell]} "
            f"pin={pin} dir={'output' if output else 'input'}"
        )
    lines.append("endmodule")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_netlist_verilog(path: PathLike) -> Tuple[Netlist, str, int]:
    """Read and validate a netlist written by :func:`write_netlist_verilog`.

    Returns ``(netlist, suite, seed)``.  Malformed input raises
    ``ValueError`` naming the file and line.
    """
    path = Path(path)
    name = path.stem
    suite = "unknown"
    seed = 0
    cell_index: Dict[str, int] = {}
    cell_columns: Tuple[List[int], ...] = ([], [], [], [], [])
    pins_by_net: Dict[str, List[Tuple[str, str, bool, str]]] = {}

    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        where = f"{path}:{lineno}"
        if line.startswith("// repro:design"):
            attrs = _parse_pragma(line)
            name = attrs.get("name", name)
            suite = attrs.get("suite", suite)
            seed = _number_attr(attrs, "seed", where, default=seed)
        elif line.startswith("// repro:cell"):
            attrs = _parse_pragma(line)
            cell = _attr(attrs, "name", where)
            if cell in cell_index:
                raise ValueError(f"{where}: duplicate cell name {cell!r}")
            cell_index[cell] = len(cell_index)
            for column, key in zip(cell_columns, ("width", "height", "macro", "seq", "cluster")):
                column.append(_number_attr(attrs, key, where))
        elif line.startswith("wire "):
            pins_by_net.setdefault(line[len("wire ") :].rstrip(";").strip(), [])
        elif line.startswith("// repro:pin"):
            attrs = _parse_pragma(line)
            cell = _attr(attrs, "cell", where)
            direction = _attr(attrs, "dir", where)
            if direction not in ("input", "output"):
                raise ValueError(f"{where}: pin direction must be input/output, got {direction!r}")
            pins_by_net.setdefault(_attr(attrs, "net", where), []).append(
                (cell, _attr(attrs, "pin", where), direction == "output", where)
            )
        elif line.startswith("module "):
            name = line[len("module ") :].split()[0].rstrip("();")

    widths, heights, macros, sequentials, clusters = cell_columns
    pins = [pin for net_pins in pins_by_net.values() for pin in net_pins]
    for cell, _, _, where in pins:
        if cell not in cell_index:
            raise ValueError(f"{where}: pin references unknown cell {cell!r}")
    pin_cells = [cell_index[cell] for cell, _, _, _ in pins]
    pin_names = [pin for _, pin, _, _ in pins]
    pin_is_output = [output for _, _, output, _ in pins]
    try:
        netlist = Netlist(
            name,
            cell_names=list(cell_index),
            width_sites=widths,
            height_rows=heights,
            is_macro=np.array(macros) != 0,
            is_sequential=np.array(sequentials) != 0,
            cluster=clusters,
            net_names=list(pins_by_net),
            pin_offsets=np.cumsum([0] + [len(net_pins) for net_pins in pins_by_net.values()]),
            pin_cells=pin_cells,
            pin_names=pin_names,
            pin_is_output=pin_is_output,
        )
        netlist.validate()
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
    return netlist, suite, seed


def write_design(design: Design, path: PathLike) -> Path:
    """Write a :class:`~repro.eda.benchmarks.Design` (netlist + provenance)."""
    return write_netlist_verilog(design.netlist, path, suite=design.suite, seed=design.seed)


def read_design(path: PathLike) -> Design:
    """Read a design written by :func:`write_design`."""
    netlist, suite, seed = read_netlist_verilog(path)
    if suite not in SUITES:
        raise ValueError(f"design file {path} names unknown suite {suite!r}")
    return Design(name=netlist.name, suite=suite, netlist=netlist, seed=seed)


def _parse_pragma(line: str) -> Dict[str, str]:
    """Parse ``key=value`` tokens out of a ``// repro:`` pragma line."""
    tokens = line.split()
    attrs: Dict[str, str] = {}
    for token in tokens:
        if "=" in token:
            key, _, value = token.partition("=")
            attrs[key] = value
    return attrs


def _attr(attrs: Dict[str, str], key: str, where: str) -> str:
    """``attrs[key]``, or a ``ValueError`` naming ``where`` (``file:line``)."""
    if key not in attrs:
        raise ValueError(f"{where}: pragma is missing {key}=")
    return attrs[key]


def _number_attr(attrs: Dict[str, str], key: str, where: str, cast=int, default=None):
    """``cast(attrs[key])`` (``default`` when absent and given), or a ``ValueError``."""
    if default is not None and key not in attrs:
        return default
    return _number(_attr(attrs, key, where), cast, f"{key}=", where)


def _number(token: str, cast, what: str, where: str):
    """``cast(token)``, or a ``ValueError`` naming ``where`` and ``what``."""
    try:
        return cast(token)
    except ValueError:
        raise ValueError(f"{where}: {what} is not a valid {cast.__name__}: {token!r}") from None


# ---------------------------------------------------------------------------
# DEF-style placement
# ---------------------------------------------------------------------------
def write_placement_def(placement: Placement, path: PathLike) -> Path:
    """Write ``placement`` as a DEF-style file with repro pragmas.

    Coordinates are emitted in DEF database units
    (:data:`DEF_UNITS_PER_MICRON` per micron) the way Innovus would write
    them; the placement configuration (grid, utilization, aspect ratio,
    seed) travels in a pragma so the round-trip is exact.
    """
    path = Path(path)
    config = placement.config
    units = DEF_UNITS_PER_MICRON
    lines = [
        "VERSION 5.8 ;",
        f"DESIGN {placement.design.name} ;",
        f"UNITS DISTANCE MICRONS {units} ;",
        (
            "# repro:placement "
            f"grid_width={config.grid_width} grid_height={config.grid_height} "
            f"utilization={config.utilization!r} aspect_ratio={config.aspect_ratio!r} "
            f"cluster_noise={config.cluster_noise!r} seed={config.seed} "
            f"technology={placement.technology.name}"
        ),
        (
            f"DIEAREA ( 0 0 ) ( {int(round(placement.die_width_um * units))} "
            f"{int(round(placement.die_height_um * units))} ) ;"
        ),
        f"COMPONENTS {placement.num_cells} ;",
    ]
    for index, name in enumerate(placement.cell_names):
        x = int(round(placement.positions_um[index, 0] * units))
        y = int(round(placement.positions_um[index, 1] * units))
        source = "BLOCK" if placement.is_macro[index] else "DIST"
        lines.append(f"  - {name} {source} + PLACED ( {x} {y} ) N ;")
    lines.append("END COMPONENTS")
    lines.append("END DESIGN")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_placement_def(
    path: PathLike,
    design: Design,
    technology: Optional[Technology] = None,
) -> Placement:
    """Reconstruct a :class:`~repro.eda.placement.Placement` from a DEF file.

    ``design`` must be the design the DEF was written from (the DEF stores
    positions only; cell geometry comes from the netlist and technology).
    """
    path = Path(path)
    technology = technology if technology is not None else nangate45()
    units = DEF_UNITS_PER_MICRON
    config_attrs: Dict[str, str] = {}
    config_where = str(path)
    die_width_um = 0.0
    die_height_um = 0.0
    positions: Dict[str, Tuple[float, float]] = {}
    design_name = design.name

    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        where = f"{path}:{lineno}"
        if line.startswith("DESIGN "):
            design_name = line.split()[1]
        elif line.startswith("UNITS DISTANCE MICRONS"):
            tokens = line.split()
            units = _number(tokens[3] if len(tokens) > 3 else "", int, "UNITS DISTANCE MICRONS", where)
            if units <= 0:
                raise ValueError(f"{where}: UNITS DISTANCE MICRONS must be positive, got {units}")
        elif line.startswith("# repro:placement"):
            config_attrs, config_where = _parse_pragma(line), where
        elif line.startswith("DIEAREA"):
            tokens = [t for t in line.replace("(", " ").replace(")", " ").split()[1:] if t != ";"]
            if len(tokens) < 4:
                raise ValueError(f"{where}: DIEAREA needs four integers, got {len(tokens)}")
            numbers = [_number(token, int, "a DIEAREA coordinate", where) for token in tokens]
            die_width_um = numbers[2] / units
            die_height_um = numbers[3] / units
        elif line.startswith("- "):
            tokens = line.replace("(", " ").replace(")", " ").split()
            if "PLACED" not in tokens:
                raise ValueError(f"{where}: component {tokens[1]!r} has no PLACED location")
            placed = tokens.index("PLACED")
            coords = tokens[placed + 1 : placed + 3]
            if len(coords) < 2:
                raise ValueError(f"{where}: PLACED needs an x and a y")
            x, y = (_number(token, int, "a PLACED coordinate", where) / units for token in coords)
            positions[tokens[1]] = (x, y)

    if design_name != design.name:
        raise ValueError(
            f"DEF file is for design {design_name!r}, not {design.name!r}"
        )
    if not config_attrs:
        raise ValueError(f"{path} is missing the repro placement pragma")
    netlist = design.netlist
    missing = [name for name in netlist.cell_names if name not in positions]
    if missing:
        raise ValueError(f"DEF file is missing placements for {len(missing)} cells (e.g. {missing[0]!r})")

    config = PlacementConfig(
        grid_width=_number_attr(config_attrs, "grid_width", config_where),
        grid_height=_number_attr(config_attrs, "grid_height", config_where),
        utilization=_number_attr(config_attrs, "utilization", config_where, float),
        aspect_ratio=_number_attr(config_attrs, "aspect_ratio", config_where, float),
        cluster_noise=_number_attr(config_attrs, "cluster_noise", config_where, float),
        seed=_number_attr(config_attrs, "seed", config_where),
    )

    return Placement(
        design=design,
        config=config,
        technology=technology,
        cell_names=list(netlist.cell_names),
        positions_um=np.array([positions[name] for name in netlist.cell_names], dtype=np.float64),
        sizes_um=cell_sizes_um(netlist, technology),
        is_macro=netlist.is_macro.copy(),
        die_width_um=die_width_um,
        die_height_um=die_height_um,
    )


# ---------------------------------------------------------------------------
# Bookshelf .pl positions
# ---------------------------------------------------------------------------
def write_bookshelf_pl(placement: Placement, path: PathLike) -> Path:
    """Write cell positions in the academic Bookshelf ``.pl`` format."""
    path = Path(path)
    lines = ["UCLA pl 1.0", f"# repro design {placement.design.name}"]
    for index, name in enumerate(placement.cell_names):
        x, y = placement.positions_um[index]
        suffix = " /FIXED" if placement.is_macro[index] else ""
        lines.append(f"{name}\t{x:.4f}\t{y:.4f}\t: N{suffix}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_bookshelf_pl(path: PathLike) -> Dict[str, Tuple[float, float]]:
    """Read a Bookshelf ``.pl`` file into a ``{cell: (x, y)}`` dictionary."""
    path = Path(path)
    positions: Dict[str, Tuple[float, float]] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("UCLA"):
            continue
        tokens = line.split()
        if len(tokens) < 3:
            continue
        positions[tokens[0]] = (float(tokens[1]), float(tokens[2]))
    return positions


def apply_positions(placement: Placement, positions: Dict[str, Tuple[float, float]]) -> Placement:
    """A copy of ``placement`` with cell positions replaced by ``positions``.

    Cells absent from ``positions`` keep their current location; unknown cell
    names raise.
    """
    unknown = [name for name in positions if name not in placement._name_to_index]
    if unknown:
        raise ValueError(f"positions reference unknown cells: {unknown[:3]}")
    coords = placement.positions_um.copy()
    for name, (x, y) in positions.items():
        coords[placement.cell_index(name)] = (x, y)
    return Placement(
        design=placement.design,
        config=placement.config,
        technology=placement.technology,
        cell_names=list(placement.cell_names),
        positions_um=coords,
        sizes_um=placement.sizes_um.copy(),
        is_macro=placement.is_macro.copy(),
        die_width_um=placement.die_width_um,
        die_height_um=placement.die_height_um,
    )
