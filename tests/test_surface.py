"""Tests for the surface gate ``tools/surface.py``.

The gate's verdicts are checked on a small fake source tree (a package with
one reached, one INTERNAL and one UNREACHED export; a class with a reached
method, one its own module calls, and a method and a property only tests
mention; a function with three defaulted parameters), so each rule — reach
from outside ``tests/``, use by the defining module only, the ``KEEP``
table and its stale entries, a keyword passed by name, by position or
never — is exercised without depending on what the real tree happens to
hold.  One test runs the gate on the real tree.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "surface.py"


@pytest.fixture(scope="module")
def surface():
    spec = importlib.util.spec_from_file_location("surface_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def fake_tree(tmp_path, surface, monkeypatch):
    """``repro.pkg`` exports ``used`` (reached), ``spare`` (INTERNAL) and ``lonely`` (UNREACHED)."""
    write(tmp_path / "src" / "repro" / "__init__.py", "")
    write(
        tmp_path / "src" / "repro" / "pkg" / "__init__.py",
        'from repro.pkg.mod import lonely, spare, used\n\n__all__ = ["used", "spare", "lonely"]\n',
    )
    write(
        tmp_path / "src" / "repro" / "pkg" / "mod.py",
        "def spare():\n    return 1\n\n\ndef used():\n    return spare()\n\n\ndef lonely():\n    return 2\n",
    )
    write(tmp_path / "tools" / "user.py", "from repro.pkg import used\n\nused()\n")
    write(tmp_path / "tests" / "test_pkg.py", "from repro.pkg import lonely\n\n\ndef test_lonely():\n    lonely()\n")
    for directory in ("bench", "benchmarks", "examples"):
        (tmp_path / directory).mkdir()
    monkeypatch.setattr(surface, "ROOT", tmp_path)
    monkeypatch.setattr(surface, "SOURCE", tmp_path / "src")
    monkeypatch.setattr(surface, "KEEP", {})
    return tmp_path


@pytest.fixture
def member_tree(fake_tree):
    """Adds ``repro.pkg.shapes``: ``Shape.area`` (reached), ``Shape.corner`` (its
    module calls it), ``Shape.scale`` and the ``Shape.sides`` property (only
    tests mention them), and ``draw(canvas, width=, colour=, dashed=)``, whose
    ``width`` a tool passes by position, ``colour`` by name and ``dashed`` never."""
    write(
        fake_tree / "src" / "repro" / "pkg" / "shapes.py",
        "class Shape:\n"
        "    def area(self):\n        return self.corner()\n\n"
        "    def corner(self):\n        return 0\n\n"
        "    def scale(self):\n        return 1\n\n"
        "    @property\n    def sides(self):\n        return 4\n\n\n"
        "def draw(canvas, width=1, colour=None, dashed=False):\n    return canvas\n",
    )
    write(
        fake_tree / "tools" / "painter.py",
        "from repro.pkg.shapes import Shape, draw\n\nShape().area()\ndraw(None, 2)\ndraw(None, colour='red')\n",
    )
    write(
        fake_tree / "tests" / "test_shapes.py",
        "from repro.pkg.shapes import Shape, draw\n\n\n"
        "def test_shape():\n    Shape().scale()\n    Shape().sides\n    draw(None, dashed=True)\n",
    )
    return fake_tree


def verdicts(surface):
    return {row["qualified"]: row for row in surface.audit()}


def member_verdicts(surface):
    return {row["qualified"]: row for row in surface.audit_members()}


class TestAudit:
    def test_verdicts_of_the_fake_package(self, surface, fake_tree):
        rows = verdicts(surface)
        assert set(rows) == {"repro.pkg.used", "repro.pkg.spare", "repro.pkg.lonely"}
        assert rows["repro.pkg.used"]["verdict"] == ""
        assert rows["repro.pkg.used"]["reach"] == [fake_tree / "tools" / "user.py"]
        assert rows["repro.pkg.spare"]["verdict"] == "INTERNAL"
        assert rows["repro.pkg.lonely"]["verdict"] == "UNREACHED"
        assert rows["repro.pkg.lonely"]["tests"] == [fake_tree / "tests" / "test_pkg.py"]

    def test_exports_resolve_to_the_defining_module(self, surface, fake_tree):
        rows = verdicts(surface)
        mod = fake_tree / "src" / "repro" / "pkg" / "mod.py"
        assert {row["defined_in"] for row in rows.values()} == {mod}

    def test_reexport_chain_is_followed(self, surface, fake_tree):
        write(fake_tree / "src" / "repro" / "top" / "__init__.py", "from repro.pkg import used\n")
        mod = fake_tree / "src" / "repro" / "pkg" / "mod.py"
        assert surface.defining_file("repro.top", "used") == mod

    def test_identifiers_can_leave_out_imports(self, surface, tmp_path):
        path = write(tmp_path / "mod.py", "import os.path\nfrom json import dumps\n\nvalue = thing.attr\n")
        assert {"os", "path", "json", "dumps", "value", "thing", "attr"} <= surface.identifiers(path)
        without = surface.identifiers(path, imports=False)
        assert {"value", "thing", "attr"} <= without
        assert not {"os", "json", "dumps"} & without


class TestMembers:
    def test_reached_method(self, surface, member_tree):
        row = member_verdicts(surface)["repro.pkg.shapes.Shape.area"]
        assert row["verdict"] == ""
        assert row["kind"] == "method"
        assert row["reach"] == [member_tree / "tools" / "painter.py"]

    def test_method_only_tests_mention_is_unreached(self, surface, member_tree):
        row = member_verdicts(surface)["repro.pkg.shapes.Shape.scale"]
        assert row["verdict"] == "UNREACHED"
        assert row["reach"] == []
        assert row["tests"] == [member_tree / "tests" / "test_shapes.py"]

    def test_property_only_tests_mention_is_unreached(self, surface, member_tree):
        row = member_verdicts(surface)["repro.pkg.shapes.Shape.sides"]
        assert (row["kind"], row["verdict"]) == ("property", "UNREACHED")

    def test_method_its_own_module_calls_is_not_flagged(self, surface, member_tree):
        row = member_verdicts(surface)["repro.pkg.shapes.Shape.corner"]
        assert row["verdict"] == ""
        assert row["reach"] == [member_tree / "src" / "repro" / "pkg" / "shapes.py"]

    def test_dunders_are_not_audited(self, surface, member_tree):
        write(member_tree / "src" / "repro" / "pkg" / "boxed.py", "class Box:\n    def __len__(self):\n        return 0\n")
        assert not [name for name in member_verdicts(surface) if "__" in name]


class TestKeywords:
    def test_only_the_never_passed_keyword_is_reported(self, surface, member_tree):
        # ``width`` goes by position and ``colour`` by name; a test passing
        # ``dashed`` is not reach.
        rows = surface.audit_keywords()
        assert [row["qualified"] for row in rows] == ["repro.pkg.shapes.draw(dashed=)"]
        assert rows[0]["calls"] == 2

    def test_star_arguments_pass_everything(self, surface, member_tree):
        write(member_tree / "tools" / "forwarder.py", "from repro.pkg.shapes import draw\n\ndraw(*[], **{})\n")
        assert surface.audit_keywords() == []

    def test_super_init_call_counts_for_the_base(self, surface, member_tree):
        write(
            member_tree / "src" / "repro" / "pkg" / "bases.py",
            "class Base:\n    def __init__(self, size=1, depth=2):\n        self.size = size\n\n\n"
            "class Child(Base):\n    def __init__(self):\n        super().__init__(depth=3)\n",
        )
        names = {row["qualified"] for row in surface.audit_keywords()}
        assert "repro.pkg.bases.Base(size=)" in names
        assert "repro.pkg.bases.Base(depth=)" not in names

    def test_never_passed_keyword_is_listed_but_not_gated(self, surface, member_tree, monkeypatch, capsys):
        keep = {
            "repro.pkg.lonely": "kept for a reason",
            "repro.pkg.shapes.Shape.scale": "kept for a reason",
            "repro.pkg.shapes.Shape.sides": "kept for a reason",
        }
        monkeypatch.setattr(surface, "KEEP", keep)
        assert surface.main(["--flagged"]) == 0
        assert "draw(dashed=)" not in capsys.readouterr().out
        assert surface.main([]) == 0
        captured = capsys.readouterr()
        assert "repro.pkg.shapes.draw(dashed=)" in captured.out
        assert "NEVER PASSED" in captured.out
        assert "1 defaulted parameters no reach call passes" in captured.err


class TestGate:
    def test_unkept_unreached_name_fails(self, surface, fake_tree, capsys):
        assert surface.main(["--flagged"]) == 1
        captured = capsys.readouterr()
        assert "repro.pkg.lonely" in captured.out
        assert "not in KEEP" in captured.out
        assert "1 UNREACHED names not in KEEP" in captured.err

    def test_kept_unreached_name_passes(self, surface, fake_tree, monkeypatch, capsys):
        monkeypatch.setattr(surface, "KEEP", {"repro.pkg.lonely": "kept for a reason"})
        assert surface.main(["--flagged"]) == 0
        assert "KEEP: kept for a reason" in capsys.readouterr().out

    def test_stale_keep_entry_fails(self, surface, fake_tree, monkeypatch, capsys):
        keep = {"repro.pkg.lonely": "kept for a reason", "repro.pkg.used": "no longer unreached"}
        monkeypatch.setattr(surface, "KEEP", keep)
        assert surface.main(["--flagged"]) == 1
        assert "KEEP entry repro.pkg.used is not UNREACHED any more" in capsys.readouterr().err

    def test_full_listing_is_not_a_gate(self, surface, fake_tree, capsys):
        assert surface.main([]) == 0
        out = capsys.readouterr().out
        assert "repro.pkg.used" in out and "repro.pkg.spare" in out

    def test_unkept_unreached_member_fails(self, surface, member_tree, monkeypatch, capsys):
        monkeypatch.setattr(surface, "KEEP", {"repro.pkg.lonely": "kept for a reason"})
        assert surface.main(["--flagged"]) == 1
        captured = capsys.readouterr()
        assert "repro.pkg.shapes.Shape.scale" in captured.out and "repro.pkg.shapes.Shape.sides" in captured.out
        assert "repro.pkg.shapes.Shape.area" not in captured.out
        assert "2 UNREACHED names not in KEEP" in captured.err

    def test_kept_unreached_member_passes(self, surface, member_tree, monkeypatch, capsys):
        keep = {
            "repro.pkg.lonely": "kept for a reason",
            "repro.pkg.shapes.Shape.scale": "a test-only reader, kept",
            "repro.pkg.shapes.Shape.sides": "a test-only reader, kept",
        }
        monkeypatch.setattr(surface, "KEEP", keep)
        assert surface.main(["--flagged"]) == 0
        assert "KEEP: a test-only reader, kept" in capsys.readouterr().out

    def test_stale_member_keep_entry_fails(self, surface, member_tree, monkeypatch, capsys):
        keep = {
            "repro.pkg.lonely": "kept for a reason",
            "repro.pkg.shapes.Shape.scale": "kept for a reason",
            "repro.pkg.shapes.Shape.sides": "kept for a reason",
            "repro.pkg.shapes.Shape.area": "no longer unreached",
        }
        monkeypatch.setattr(surface, "KEEP", keep)
        assert surface.main(["--flagged"]) == 1
        err = capsys.readouterr().err
        assert "KEEP entry repro.pkg.shapes.Shape.area is not UNREACHED any more" in err
        assert "KEEP entry repro.pkg.shapes.Shape.scale" not in err

    def test_checked_in_tree_passes(self, surface, capsys):
        assert surface.main(["--flagged"]) == 0, capsys.readouterr().err
