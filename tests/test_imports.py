"""Every import in a package module is used by that module.

``__init__.py`` re-exports names, so it is left out. A name used only in
a quoted annotation counts as used.
"""

from __future__ import annotations

import ast
import glob
import os

import pytest

PACKAGE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "editstop")
MODULES = sorted(
    p for p in glob.glob(os.path.join(PACKAGE_DIR, "*.py")) if not p.endswith("__init__.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_import(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = used_names(tree)
    unused = sorted(
        f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used
    )
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "import math\nimport os.path\nfrom x import a as b, c\n"
        "def f(v: 'c') -> None:\n    return os.sep\n"
    )
    assert set(imported_names(tree)) - used_names(tree) == {"math", "b"}
