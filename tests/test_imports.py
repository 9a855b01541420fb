"""Every imported name is read somewhere in the module that imports it."""

from __future__ import annotations

import ast
from pathlib import Path

import stagewalk

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/stagewalk", "tests", "demos")


def unused_imports(source: str, exported: frozenset[str] = frozenset()) -> list[str]:
    """The names a module imports and never reads; `exported` names count as
    read, and `from __future__` binds nothing."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= exported
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    """The package's `__init__` re-exports what `stagewalk.__all__` lists,
    so there those names count as read; elsewhere they do not."""
    files = sorted(p for d in SCANNED for p in (ROOT / d).glob("*.py"))
    assert len(files) > 20
    init = ROOT / "src/stagewalk/__init__.py"
    found = {
        str(p.relative_to(ROOT)): unused_imports(
            p.read_text(encoding="utf-8"), frozenset(stagewalk.__all__) if p == init else frozenset()
        )
        for p in files
    }
    assert {path: names for path, names in found.items() if names} == {}


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os.path\nfrom a.b import c as d, e\nprint(e)\n") == ["line 1: os", "line 2: d"]
    assert unused_imports("from __future__ import annotations\nfrom x import y\n", frozenset({"y"})) == []
    # an annotation reads its names
    assert unused_imports("from x import Pivot\nused: list[Pivot] = []\n") == []


def imported_modules(source: str) -> set[str]:
    """The package-relative modules a module imports from, as `.name`."""
    return {
        "." * node.level + (node.module or "")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
    }


def test_the_pivot_manager_and_the_heat_know_nothing_of_each_other():
    """The manager takes its candidates from the function the engine hands
    it, so `epoch` imports neither the heat nor the engine, and `heat`
    imports neither the manager nor the engine."""
    for module, forbidden in (("epoch", {".heat", ".engine"}), ("heat", {".epoch", ".engine"})):
        source = (ROOT / f"src/stagewalk/{module}.py").read_text(encoding="utf-8")
        assert imported_modules(source) & forbidden == set(), module
