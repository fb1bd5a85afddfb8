#!/usr/bin/env python3
"""Audit the exported surface: who uses each ``__all__`` name of every ``repro`` package.

For every package under ``src/repro`` whose ``__init__.py`` declares
``__all__``, each exported name is listed with the module that defines it
and the files that mention it (an import alias, a bare name or an attribute
access, read off the AST) — not counting the defining module, the
re-exporting imports of an ``__init__.py`` or the tests.  A name nobody in
``src/``, ``bench/``, ``benchmarks/``, ``examples/`` or ``tools/`` mentions
is ``INTERNAL`` when its own module uses it (only the export is spare) and
``UNREACHED`` when not even that: only its tests keep it alive.  Matching is
by identifier, so a method that shares an exported name hides a flag; read
the table as questions, not verdicts.

    python tools/surface.py            # every name, flagged ones marked
    python tools/surface.py --flagged  # only the UNREACHED names; the gate

``--flagged`` is a gate: it exits 1 when an UNREACHED name is missing from
``KEEP`` (delete the name, or keep it with a one-line reason) or when a
``KEEP`` entry is no longer UNREACHED (drop the entry).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Where a use counts as reach (tests are counted separately).
REACH_DIRS = ("src", "bench", "benchmarks", "examples", "tools")
#: UNREACHED names that stay exported anyway, each with its reason.
KEEP: Dict[str, str] = {
    "repro.experiments.run_experiment": "README's documented Python entry point",
    "repro.eda.read_design": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.eda.read_placement_def": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.eda.read_bookshelf_pl": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.eda.apply_positions": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
}


def identifiers(path: Path, imports: bool = True) -> Set[str]:
    """Every bare name and attribute name a file mentions, and (``imports``) what it imports."""
    found: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            for dotted in [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]:
                found.update(dotted.split("."))
    return found


def module_path(module: str) -> Optional[Path]:
    """The file of a dotted ``repro...`` module, or ``None`` if there is none."""
    base = SOURCE.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def exports(init: Path) -> Dict[str, Tuple[Optional[Path], str]]:
    """``name -> (defining file, name there)`` for each ``__all__`` entry of a package ``__init__``."""
    names: List[str] = []
    origin: Dict[str, Tuple[Optional[Path], str]] = {}
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names = [element.value for element in node.value.elts]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                origin[alias.asname or alias.name] = (defining_file(node.module, alias.name), alias.name)
    return {name: origin.get(name, (init, name)) for name in names}


def defining_file(module: str, name: str) -> Optional[Path]:
    """Follow re-exporting ``__init__`` files down to the module that defines ``name``."""
    submodule = module_path(f"{module}.{name}")
    if submodule is not None:
        return submodule
    path = module_path(module)
    while path is not None and path.name == "__init__.py":
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and name in (a.asname or a.name for a in node.names):
                path = module_path(node.module)
                break
        else:
            break
    return path


def audit() -> List[dict]:
    # An ``__init__`` re-export is not a use, a registry entry in one is:
    # only what its code mentions counts there, not what it imports.
    mentions = {
        path: identifiers(path, imports=path.name != "__init__.py")
        for top in (*REACH_DIRS, "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    rows = []
    for init in sorted(SOURCE.rglob("__init__.py")):
        for name, (defined_in, defined_as) in exports(init).items():
            users = [
                path
                for path, found in mentions.items()
                if (name in found or defined_as in found) and path != defined_in
            ]
            reach = [path for path in users if path.relative_to(ROOT).parts[0] != "tests"]
            own = defined_in is not None and defined_as in identifiers(defined_in, imports=False)
            rows.append(
                {
                    "package": ".".join(init.parent.relative_to(SOURCE).parts),
                    "name": name,
                    "defined_in": defined_in,
                    "reach": reach,
                    "tests": [path for path in users if path not in reach],
                    "verdict": "" if reach else "INTERNAL" if own else "UNREACHED",
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flagged", action="store_true", help="list only the UNREACHED names")
    args = parser.parse_args(argv)
    rows = audit()
    flagged = [row for row in rows if row["verdict"] == "UNREACHED"]
    internal = [row for row in rows if row["verdict"] == "INTERNAL"]
    for row in flagged if args.flagged else rows:
        where = row["defined_in"].relative_to(ROOT) if row["defined_in"] else "?"
        reach = ", ".join(str(path.relative_to(ROOT)) for path in row["reach"][:4])
        if len(row["reach"]) > 4:
            reach += f", +{len(row['reach']) - 4}"
        verdict = row["verdict"]
        if verdict == "UNREACHED":
            verdict += f" (KEEP: {KEEP[qualified(row)]})" if qualified(row) in KEEP else " (not in KEEP)"
        print(
            f"{qualified(row):<52} {str(where):<44} "
            f"tests={len(row['tests']):<2} {reach or verdict}"
        )
    packages = len({row["package"] for row in rows})
    print(
        f"{len(rows)} exported names in {packages} packages: {len(flagged)} UNREACHED, "
        f"{len(internal)} INTERNAL (used only by their own module)",
        file=sys.stderr,
    )
    unkept = [qualified(row) for row in flagged if qualified(row) not in KEEP]
    stale = sorted(set(KEEP) - {qualified(row) for row in flagged})
    for name in stale:
        print(f"KEEP entry {name} is not UNREACHED any more: drop it", file=sys.stderr)
    if unkept:
        print(f"{len(unkept)} UNREACHED names not in KEEP: delete them or keep them with a reason", file=sys.stderr)
    return 1 if args.flagged and (unkept or stale) else 0


def qualified(row: dict) -> str:
    return f"{row['package']}.{row['name']}"


if __name__ == "__main__":
    raise SystemExit(main())
