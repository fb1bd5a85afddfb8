"""Round-trip tests for the netlist / placement interchange formats."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.benchmarks import SUITES, generate_design
from repro.eda.io import (
    DEF_UNITS_PER_MICRON,
    apply_positions,
    read_bookshelf_pl,
    read_design,
    read_netlist_verilog,
    read_placement_def,
    write_bookshelf_pl,
    write_design,
    write_netlist_verilog,
    write_placement_def,
)


CELL_ARRAYS = ("width_sites", "height_rows", "is_macro", "is_sequential", "cluster")
PIN_ARRAYS = ("pin_offsets", "pin_cells", "pin_is_output")


def assert_same_netlist(loaded, original):
    """Every name list and every cell and pin array is equal, dtype and bytes."""
    assert loaded.name == original.name
    assert loaded.cell_names == original.cell_names
    assert loaded.net_names == original.net_names
    assert loaded.pin_names == original.pin_names
    for attr in CELL_ARRAYS + PIN_ARRAYS:
        got, want = getattr(loaded, attr), getattr(original, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr


class TestNetlistVerilogRoundTrip:
    def test_round_trip_is_exact(self, small_design, tmp_path):
        path = write_netlist_verilog(small_design.netlist, tmp_path / "design.v", suite=small_design.suite)
        netlist, suite, _ = read_netlist_verilog(path)
        assert suite == small_design.suite
        assert_same_netlist(netlist, small_design.netlist)

    def test_macro_design_round_trip(self, macro_placement, tmp_path):
        original = macro_placement.design.netlist
        path = write_netlist_verilog(original, tmp_path / "macro.v")
        assert_same_netlist(read_netlist_verilog(path)[0], original)

    @given(
        suite=st.sampled_from(sorted(SUITES)),
        seed=st.integers(0, 2**16),
        cell_count=st.integers(20, 200),
    )
    @settings(max_examples=25, deadline=None)
    def test_design_round_trip_property(self, suite, seed, cell_count):
        design = generate_design(suite, f"prop_{suite}_{seed}", seed, cell_count=cell_count)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = read_design(write_design(design, Path(tmp) / f"{design.name}.v"))
        assert (loaded.name, loaded.suite, loaded.seed) == (design.name, design.suite, design.seed)
        assert_same_netlist(loaded.netlist, design.netlist)
        got, want = loaded.netlist.net_membership(), design.netlist.net_membership()
        assert got.names == want.names
        for attr in ("cells", "offsets", "pin_counts"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


NETLIST_LINES = [
    "// repro:design name=tiny suite=iscas89 seed=0",
    "module tiny ();",
    "  // repro:cell name=a width=1 height=1 macro=0 seq=0 cluster=0",
    "  // repro:cell name=b width=1 height=1 macro=0 seq=0 cluster=0",
    "  wire n0;",
    "  // repro:pin net=n0 cell=a pin=o dir=output",
    "  // repro:pin net=n0 cell=b pin=i0 dir=input",
    "endmodule",
]


class TestMalformedNetlistVerilog:
    def test_well_formed_text_reads(self, tmp_path):
        netlist, suite, seed = read_netlist_verilog(_write(tmp_path, "tiny.v", NETLIST_LINES))
        assert (netlist.cell_names, netlist.net_names, suite, seed) == (("a", "b"), ("n0",), "iscas89", 0)

    @pytest.mark.parametrize(
        "line,text,message",
        [
            (1, "// repro:design name=tiny suite=iscas89 seed=zero", "seed= is not a valid int: 'zero'"),
            (3, "  // repro:cell name=a height=1 macro=0 seq=0 cluster=0", "pragma is missing width="),
            (3, "  // repro:cell name=a width=wide height=1 macro=0 seq=0 cluster=0", "width= is not a valid int"),
            (4, "  // repro:cell name=b width=1 height=1 macro=0 seq=0", "pragma is missing cluster="),
            (4, "  // repro:cell name=a width=1 height=1 macro=0 seq=0 cluster=0", "duplicate cell name 'a'"),
            (7, "  // repro:pin cell=b pin=i0 dir=input", "pragma is missing net="),
            (7, "  // repro:pin net=n0 cell=zz pin=i0 dir=input", "unknown cell 'zz'"),
            (7, "  // repro:pin net=n0 cell=b pin=i0 dir=bidir", "must be input/output"),
        ],
    )
    def test_malformed_pragma_names_file_and_line(self, tmp_path, line, text, message):
        lines = list(NETLIST_LINES)
        lines[line - 1] = text
        with pytest.raises(ValueError, match=f"tiny.v:{line}: .*{re.escape(message)}"):
            read_netlist_verilog(_write(tmp_path, "tiny.v", lines))

    def test_pin_before_its_cell_reads(self, tmp_path):
        lines = list(NETLIST_LINES)
        lines.append(lines.pop(3))
        netlist, _, _ = read_netlist_verilog(_write(tmp_path, "tiny.v", lines))
        assert (netlist.cell_names, netlist.pin_cells.tolist()) == (("a", "b"), [0, 1])

    def test_read_netlist_is_validated(self, tmp_path):
        lines = list(NETLIST_LINES)
        lines[5] = "  // repro:pin net=n0 cell=a pin=o dir=input"
        with pytest.raises(ValueError, match="tiny.v: net 'n0' has no driver pin"):
            read_netlist_verilog(_write(tmp_path, "tiny.v", lines))


class TestDesignRoundTrip:
    def test_design_round_trip(self, small_design, tmp_path):
        path = write_design(small_design, tmp_path / f"{small_design.name}.v")
        loaded = read_design(path)
        assert loaded.name == small_design.name
        assert loaded.suite == small_design.suite
        assert loaded.seed == small_design.seed
        assert loaded.netlist.num_cells == small_design.netlist.num_cells

    def test_unknown_suite_rejected(self, small_design, tmp_path):
        path = write_netlist_verilog(small_design.netlist, tmp_path / "odd.v", suite="sram_compiler")
        with pytest.raises(ValueError, match="unknown suite"):
            read_design(path)


class TestPlacementDefRoundTrip:
    def test_positions_preserved(self, small_placement, tmp_path):
        path = write_placement_def(small_placement, tmp_path / "design.def")
        loaded = read_placement_def(path, small_placement.design)
        assert loaded.cell_names == small_placement.cell_names
        np.testing.assert_allclose(
            loaded.positions_um,
            small_placement.positions_um,
            atol=1.0 / DEF_UNITS_PER_MICRON,
        )

    def test_config_and_die_preserved(self, small_placement, tmp_path):
        path = write_placement_def(small_placement, tmp_path / "design.def")
        loaded = read_placement_def(path, small_placement.design)
        assert loaded.config == small_placement.config
        assert loaded.die_width_um == pytest.approx(small_placement.die_width_um, abs=1e-3)
        assert loaded.die_height_um == pytest.approx(small_placement.die_height_um, abs=1e-3)

    def test_macro_flags_follow_netlist(self, macro_placement, tmp_path):
        path = write_placement_def(macro_placement, tmp_path / "macro.def")
        loaded = read_placement_def(path, macro_placement.design)
        np.testing.assert_array_equal(loaded.is_macro, macro_placement.is_macro)

    def test_wrong_design_rejected(self, small_placement, tmp_path):
        path = write_placement_def(small_placement, tmp_path / "design.def")
        other = generate_design("iscas89", "other_design", seed=99, cell_count=260)
        with pytest.raises(ValueError, match="not"):
            read_placement_def(path, other)

    def test_missing_pragma_rejected(self, small_placement, tmp_path):
        path = write_placement_def(small_placement, tmp_path / "design.def")
        stripped = "\n".join(
            line for line in path.read_text().splitlines() if not line.startswith("# repro:placement")
        )
        path.write_text(stripped)
        with pytest.raises(ValueError, match="pragma"):
            read_placement_def(path, small_placement.design)


class TestMalformedPlacementDef:
    @pytest.mark.parametrize(
        "prefix,text,message",
        [
            ("DIEAREA", "DIEAREA ( 0 0 ) ( 4000 ) ;", "DIEAREA needs four integers, got 3"),
            ("  - ", "  - u0 DIST + ( 10 20 ) N ;", "component 'u0' has no PLACED location"),
            ("  - ", "  - u0 DIST + PLACED ( 10", "PLACED needs an x and a y"),
            ("  - ", "  - u0 DIST + PLACED ( 10 up ) N ;", "a PLACED coordinate is not a valid int: 'up'"),
            ("DIEAREA", "DIEAREA ( 0 0 ) ( --5 4000 ) ;", "a DIEAREA coordinate is not a valid int: '--5'"),
            ("DIEAREA", "DIEAREA ( 0 0 ) ( \u00b2 4000 ) ;", "a DIEAREA coordinate is not a valid int: '\u00b2'"),
            ("UNITS", "UNITS DISTANCE MICRONS many ;", "UNITS DISTANCE MICRONS is not a valid int"),
            ("UNITS", "UNITS DISTANCE MICRONS 0 ;", "UNITS DISTANCE MICRONS must be positive, got 0"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, small_placement, tmp_path, prefix, text, message):
        path = write_placement_def(small_placement, tmp_path / "design.def")
        lines = path.read_text().splitlines()
        line = next(i for i, old in enumerate(lines, start=1) if old.startswith(prefix))
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"design.def:{line}: {re.escape(message)}"):
            read_placement_def(path, small_placement.design)


class TestBookshelfPl:
    def test_round_trip_positions(self, small_placement, tmp_path):
        path = write_bookshelf_pl(small_placement, tmp_path / "design.pl")
        positions = read_bookshelf_pl(path)
        assert set(positions) == set(small_placement.cell_names)
        for index, name in enumerate(small_placement.cell_names):
            assert positions[name][0] == pytest.approx(small_placement.positions_um[index, 0], abs=1e-3)
            assert positions[name][1] == pytest.approx(small_placement.positions_um[index, 1], abs=1e-3)

    def test_comments_and_header_skipped(self, tmp_path):
        content = "UCLA pl 1.0\n# a comment\n\ncellA  1.5  2.5 : N\n"
        path = tmp_path / "tiny.pl"
        path.write_text(content)
        assert read_bookshelf_pl(path) == {"cellA": (1.5, 2.5)}


class TestApplyPositions:
    def test_moves_named_cells_only(self, small_placement):
        name = small_placement.cell_names[0]
        other = small_placement.cell_names[1]
        moved = apply_positions(small_placement, {name: (1.0, 2.0)})
        assert tuple(moved.positions_um[moved.cell_index(name)]) == (1.0, 2.0)
        np.testing.assert_array_equal(
            moved.positions_um[moved.cell_index(other)],
            small_placement.positions_um[small_placement.cell_index(other)],
        )

    def test_original_untouched(self, small_placement):
        name = small_placement.cell_names[0]
        before = small_placement.positions_um[small_placement.cell_index(name)].copy()
        apply_positions(small_placement, {name: (0.0, 0.0)})
        np.testing.assert_array_equal(
            small_placement.positions_um[small_placement.cell_index(name)], before
        )

    def test_unknown_cell_rejected(self, small_placement):
        with pytest.raises(ValueError, match="unknown cells"):
            apply_positions(small_placement, {"no_such_cell": (0.0, 0.0)})

    def test_pl_file_feeds_apply_positions(self, small_placement, tmp_path):
        """External-tool style flow: dump .pl, read it back, re-apply."""
        path = write_bookshelf_pl(small_placement, tmp_path / "design.pl")
        positions = read_bookshelf_pl(path)
        rebuilt = apply_positions(small_placement, positions)
        np.testing.assert_allclose(rebuilt.positions_um, small_placement.positions_um, atol=1e-3)
