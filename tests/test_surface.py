"""Tests for the exported-surface gate ``tools/surface.py``.

The gate's verdicts are checked on a small fake source tree (a package with
one reached, one INTERNAL and one UNREACHED export), so each rule — reach
from outside ``tests/``, use by the defining module only, the ``KEEP``
table and its stale entries — is exercised without depending on what the
real tree happens to export.  One test runs the gate on the real tree.
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


def verdicts(surface):
    return {f"{row['package']}.{row['name']}": row for row in surface.audit()}


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

    def test_checked_in_tree_passes(self, surface, capsys):
        assert surface.main(["--flagged"]) == 0, capsys.readouterr().err
