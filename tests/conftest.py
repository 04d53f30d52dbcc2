"""Shared pytest hooks."""

from __future__ import annotations

import sys

import pytest
from helpers import pin_workers


@pytest.fixture
def in_process(monkeypatch):
    """The harness decodes every prompt in the test's own process, so calls
    recorded through monkeypatched functions are seen."""
    pin_workers(monkeypatch, 1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the per-criterion verdict lines where capture cannot hide them."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
