"""Whole-package checks: every exported and every traced name resolves, and no
module of the package imports a name it does not use."""

import ast
import importlib
import sys
from pathlib import Path

import cliquedeg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliquedeg"


def test_every_exported_name_resolves():
    missing = [name for name in cliquedeg.__all__ if not hasattr(cliquedeg, name)]
    assert missing == []


def test_every_traced_entry_point_resolves():
    """perfbench's tracer wraps these (module, attribute) pairs on every traced run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    missing = [
        (module, attr)
        for module, attr, *_ in tracer.ENTRY_POINTS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_no_unused_module_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } - {"annotations"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


# public names with no reference in the package or perfbench, each kept for its own reason
UNREFERENCED_EXPORTS = {
    "canonical_form": "acceptance criterion 9 tests it as its subject",
    "to_edge_list_text": "the only writer of the edge-list input format of the CLI",
}


def _referenced_names(path: Path) -> set[str]:
    """Every name the module at ``path`` reads, as a variable, an attribute or a
    string constant (perfbench's tracer names its entry points by string);
    ``def`` and ``class`` lines name nothing here."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_exported_name_has_a_caller():
    """A public name that nothing in the package or perfbench reads is kept
    for its tests alone; it goes, or joins UNREFERENCED_EXPORTS with a reason."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    referenced = set().union(*map(_referenced_names, paths))
    unreferenced = sorted(set(cliquedeg.__all__) - referenced)
    assert unreferenced == sorted(UNREFERENCED_EXPORTS)
