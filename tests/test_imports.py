"""Every import in a package module is used by that module, and the lower
layers do not import the decode stack.

``__init__.py`` re-exports names, so it is left out. A name used only in
a quoted annotation counts as used.

The lower layers (``LOWER``: errors, the numeric core, the file formats,
the optimizer capture, the tasks, the model and fine-tuning) import no
module of ``UPPER`` (alignment scoring, the monitor, certificates, the
freezer, decoding, the pseudo-gradient, the config, the harness and the
CLI), not even inside a function, so fine-tuning does not depend on the
decode stack.
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


LOWER = ("errors", "linalg", "metaformat", "capture", "tasks", "model", "train")
UPPER = frozenset(
    ("alignment", "monitor", "certify", "freeze", "generate", "pseudograd", "config", "harness",
     "cli")
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


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, at any depth: ``from .x``,
    ``from . import x``, ``import editstop.x`` and ``from editstop.x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("editstop."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("editstop.")
            )
    return found


@pytest.mark.parametrize("name", LOWER)
def test_lower_layer_imports_no_upper_module(name):
    path = os.path.join(PACKAGE_DIR, name + ".py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert sorted(package_imports(tree) & UPPER) == []


def test_an_upper_layer_import_is_found():
    tree = ast.parse(
        "from .linalg import rms\nfrom .pseudograd import x\nimport editstop.cli\n"
        "def f():\n    from . import harness\n    from editstop.monitor import y\n"
    )
    assert package_imports(tree) == {"linalg", "pseudograd", "cli", "harness", "monitor"}
    assert package_imports(tree) & UPPER == {"pseudograd", "cli", "harness", "monitor"}
