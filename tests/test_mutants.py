"""The mutation table of ``tools/mutants.py`` still applies to the tree.

Running the mutants takes a pytest run each, so tier 1 checks only what
makes a run meaningful: every mutant's old text occurs exactly once in its
file, and every test it names lives in an existing test file.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "mutants.py")


def load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Registered while it loads, as its dataclass needs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


MUTANTS = load_mutants().MUTANTS


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, test_id.partition("::")[0])), test_id
