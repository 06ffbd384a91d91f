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
