"""The functions the benchmark traces, by module and name, must exist.

``bench/tracing.py`` wraps each ``(module, path)`` of its ``TARGETS`` and
``linalg.ProbVector.__init__`` in place, so a rename or deletion in the
package breaks the benchmark. These tests fail first.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

from editstop import linalg

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing(monkeypatch):
    """``bench/tracing.py`` as a module, without adding ``bench/`` to the path.

    It is registered in ``sys.modules`` while the test runs, as its
    dataclasses need."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = []
    for layer, path, _ in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        *cls_name, attr = path.split(".")
        if cls_name:
            # Methods are wrapped through the class's own __dict__.
            cls = getattr(owner, cls_name[0], None)
            found = cls is not None and callable(vars(cls).get(attr))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{layer}.{path}")
    assert missing == []


def test_probvector_defines_its_own_init():
    assert "__init__" in vars(linalg.ProbVector)
