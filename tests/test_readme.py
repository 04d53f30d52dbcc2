"""README's list of what a run can be set with matches the code.

The paragraph that opens "What a run can be set with" names the config
keys, then the command-line flags. Each list must name exactly what
``ExperimentConfig`` and ``cli.build_parser()`` define, so a key or flag
added or removed in the code fails here until the README follows.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re

from editstop.cli import build_parser
from editstop.config import ExperimentConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
OPENING = "What a run can be set with:"


def settable_paragraph() -> str:
    with open(README, encoding="utf-8") as fh:
        paragraphs = fh.read().split("\n\n")
    found = [p for p in paragraphs if p.startswith(OPENING)]
    assert len(found) == 1, f"README needs one paragraph opening {OPENING!r}"
    return found[0]


def parser_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and its subcommands, help aside."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            options.update(action.option_strings)
    return options


def test_readme_names_every_config_key():
    keys_part = settable_paragraph().partition("the config keys")[2].partition("the flags")[0]
    named = re.findall(r"`([^`]+)`", keys_part)
    assert len(named) == len(set(named))
    assert set(named) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_readme_names_every_flag():
    named = {name for name in re.findall(r"`([^`]+)`", settable_paragraph())
             if name.startswith("-")}
    assert named == parser_options(build_parser())
