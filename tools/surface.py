#!/usr/bin/env python3
"""Audit the surface: who uses each export, method, property and keyword of ``repro``.

Three passes over the AST, each matching by identifier:

* **Exports.** For every package under ``src/repro`` whose ``__init__.py``
  declares ``__all__``, each exported name is listed with the module that
  defines it and the files that mention it (an import alias, a bare name or
  an attribute access) — not counting the defining module, the re-exporting
  imports of an ``__init__.py`` or the tests.  A name nobody in ``src/``,
  ``bench/``, ``benchmarks/``, ``examples/`` or ``tools/`` mentions is
  ``INTERNAL`` when its own module uses it (only the export is spare) and
  ``UNREACHED`` when not even that: only its tests keep it alive.
* **Members.** Every method and property defined on a class under ``src/``
  (dunders aside) is ``UNREACHED`` when its identifier is mentioned under
  ``tests/`` and in no file of those reach directories, its own module
  included.  One nobody mentions (a hook the standard library calls) is
  listed unflagged; one called only through a string (``getattr``) or
  sharing its identifier with a reached one escapes.  Read the table as
  questions, not verdicts.
* **Keywords.** Every defaulted parameter of a function or method under
  ``src/`` is ``NEVER PASSED`` when no call in a reach directory to a
  callable of that name passes it by keyword or by position (``*args`` and
  ``**kwargs`` at a call pass everything).  A ``cls(...)`` registry call or a
  forwarded ``**options`` hides its real call sites, so this pass is listed,
  never gated.

    python tools/surface.py            # every export and member, every keyword never passed
    python tools/surface.py --flagged  # only the UNREACHED exports and members; the gate

``--flagged`` is a gate: it exits 1 when an UNREACHED export or member is
missing from ``KEEP`` (delete it, or keep it with a one-line reason) or when
a ``KEEP`` entry is no longer UNREACHED (drop the entry).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Where a use counts as reach (tests are counted separately).
REACH_DIRS = ("src", "bench", "benchmarks", "examples", "tools")
#: UNREACHED exports and members that stay anyway, each with its reason.
KEEP: Dict[str, str] = {
    "repro.experiments.run_experiment": "README's documented Python entry point",
    "repro.eda.read_design": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.eda.read_placement_def": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.eda.read_bookshelf_pl": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.eda.apply_positions": "a reader kept for ROADMAP's 'Real DEF in and out' tail item",
    "repro.experiments.runner.ExperimentResult.as_table": "README's Python snippet prints it",
}
#: Decorators that make a method a property.
PROPERTY_DECORATORS = {"property", "cached_property", "setter", "getter", "deleter"}


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


def module_name(path: Path) -> str:
    """The dotted module name of a file under ``src/``."""
    parts = path.relative_to(SOURCE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


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


def all_mentions() -> Dict[Path, Set[str]]:
    """``file -> identifiers`` for every file of the reach directories and the tests."""
    # An ``__init__`` re-export is not a use, a registry entry in one is:
    # only what its code mentions counts there, not what it imports.
    return {
        path: identifiers(path, imports=path.name != "__init__.py")
        for top in (*REACH_DIRS, "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def in_tests(path: Path) -> bool:
    return path.relative_to(ROOT).parts[0] == "tests"


def audit(mentions: Optional[Dict[Path, Set[str]]] = None) -> List[dict]:
    """One row per ``__all__`` name of every ``repro`` package."""
    mentions = all_mentions() if mentions is None else mentions
    rows = []
    for init in sorted(SOURCE.rglob("__init__.py")):
        for name, (defined_in, defined_as) in exports(init).items():
            users = [
                path
                for path, found in mentions.items()
                if (name in found or defined_as in found) and path != defined_in
            ]
            reach = [path for path in users if not in_tests(path)]
            own = defined_in is not None and defined_as in identifiers(defined_in, imports=False)
            rows.append(
                {
                    "qualified": f"{module_name(init)}.{name}",
                    "defined_in": defined_in,
                    "reach": reach,
                    "tests": [path for path in users if path not in reach],
                    "verdict": "" if reach else "INTERNAL" if own else "UNREACHED",
                }
            )
    return rows


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def decorator_names(function: ast.AST) -> Set[str]:
    return {
        decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", "")
        for decorator in function.decorator_list
    }


def classes(path: Path) -> Iterator[ast.ClassDef]:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            yield node


def methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def audit_members(mentions: Optional[Dict[Path, Set[str]]] = None) -> List[dict]:
    """One row per method and property (dunders aside) of every class under ``src/``."""
    mentions = all_mentions() if mentions is None else mentions
    rows: Dict[str, dict] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for cls in classes(path):
            for function in methods(cls):
                qualified = f"{module_name(path)}.{cls.name}.{function.name}"
                if is_dunder(function.name) or qualified in rows:
                    continue
                users = [user for user, found in mentions.items() if function.name in found]
                reach = [user for user in users if not in_tests(user)]
                tests = [user for user in users if in_tests(user)]
                rows[qualified] = {
                    "qualified": qualified,
                    "kind": "property" if decorator_names(function) & PROPERTY_DECORATORS else "method",
                    "defined_in": path,
                    "reach": reach,
                    "tests": tests,
                    "verdict": "" if reach or not tests else "UNREACHED",
                }
    return list(rows.values())


def reach_calls() -> Dict[str, List[ast.Call]]:
    """``callee identifier -> calls`` over every file of the reach directories.

    A ``super().__init__(...)`` call is filed under the bases of its class.
    """
    calls: Dict[str, List[ast.Call]] = {}
    for top in REACH_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            to_bases = {}
            for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
                bases = [base.id if isinstance(base, ast.Name) else getattr(base, "attr", "") for base in cls.bases]
                for node in ast.walk(cls):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__init__"
                        and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "id", None) == "super"
                    ):
                        to_bases[id(node)] = bases
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    for name in to_bases.get(id(node), [callee] if callee is not None else []):
                        calls.setdefault(name, []).append(node)
    return calls


def defaulted(function: ast.FunctionDef, bound: bool) -> Iterator[Tuple[str, Optional[int]]]:
    """``(name, positional index or None)`` of each defaulted parameter, ``self`` aside when ``bound``."""
    positional = function.args.posonlyargs + function.args.args
    skip = 1 if bound and positional else 0
    first_default = len(positional) - len(function.args.defaults)
    for index, arg in enumerate(positional):
        if index >= max(first_default, skip):
            yield arg.arg, index - skip
    for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, position: Optional[int]) -> bool:
    """Whether ``call`` passes the parameter ``name`` (at ``position``, if it can go by position)."""
    if any(keyword.arg is None or keyword.arg == name for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def audit_keywords() -> List[dict]:
    """One row per defaulted parameter under ``src/`` that no reach call passes."""
    calls = reach_calls()
    rows = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        owners += [(cls, function) for cls in classes(path) for function in methods(cls)]
        for cls, function in owners:
            if function.name == "__init__" and cls is not None:
                callees, label = (cls.name,), cls.name
            elif is_dunder(function.name):
                continue
            else:
                callees = (function.name,)
                label = f"{cls.name}.{function.name}" if cls is not None else function.name
            bound = cls is not None and "staticmethod" not in decorator_names(function)
            sites = [call for callee in callees for call in calls.get(callee, [])]
            for name, position in defaulted(function, bound):
                if not any(passes(call, name, position) for call in sites):
                    rows.append(
                        {"qualified": f"{module_name(path)}.{label}({name}=)", "defined_in": path, "calls": len(sites)}
                    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flagged", action="store_true", help="list only the UNREACHED exports and members")
    args = parser.parse_args(argv)
    mentions = all_mentions()
    rows = audit(mentions)
    members = audit_members(mentions)
    unreached_exports = [row for row in rows if row["verdict"] == "UNREACHED"]
    unreached_members = [row for row in members if row["verdict"] == "UNREACHED"]
    flagged = unreached_exports + unreached_members
    internal = [row for row in rows if row["verdict"] == "INTERNAL"]
    for row in flagged if args.flagged else rows + members:
        where = row["defined_in"].relative_to(ROOT) if row["defined_in"] else "?"
        reach = ", ".join(str(path.relative_to(ROOT)) for path in row["reach"][:4])
        if len(row["reach"]) > 4:
            reach += f", +{len(row['reach']) - 4}"
        verdict = row["verdict"]
        if verdict == "UNREACHED":
            verdict += f" (KEEP: {KEEP[row['qualified']]})" if row["qualified"] in KEEP else " (not in KEEP)"
        print(f"{row['qualified']:<52} {str(where):<44} tests={len(row['tests']):<2} {reach or verdict}")
    if not args.flagged:
        keywords = audit_keywords()
        for row in keywords:
            where = row["defined_in"].relative_to(ROOT)
            print(f"{row['qualified']:<52} {str(where):<44} calls={row['calls']:<2} NEVER PASSED")
        print(f"{len(keywords)} defaulted parameters no reach call passes (listed, not gated)", file=sys.stderr)
    packages = len({row["qualified"].rsplit(".", 1)[0] for row in rows})
    print(
        f"{len(rows)} exported names in {packages} packages: {len(unreached_exports)} UNREACHED, "
        f"{len(internal)} INTERNAL (used only by their own module); "
        f"{len(members)} methods and properties: {len(unreached_members)} UNREACHED",
        file=sys.stderr,
    )
    unkept = [row["qualified"] for row in flagged if row["qualified"] not in KEEP]
    stale = sorted(set(KEEP) - {row["qualified"] for row in flagged})
    for name in stale:
        print(f"KEEP entry {name} is not UNREACHED any more: drop it", file=sys.stderr)
    if unkept:
        print(f"{len(unkept)} UNREACHED names not in KEEP: delete them or keep them with a reason", file=sys.stderr)
    return 1 if args.flagged and (unkept or stale) else 0


if __name__ == "__main__":
    raise SystemExit(main())
