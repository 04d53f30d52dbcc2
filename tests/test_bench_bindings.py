"""The functions the benchmark traces and calls, by module and name, must exist.

``bench/tracing.py`` wraps each ``(module, path)`` of its ``TARGETS`` and
``linalg.ProbVector.__init__`` in place, so a rename or deletion in the
package breaks the benchmark, and a decode that stops calling through
those bindings zeroes the bench's counters. ``bench/workloads.py`` calls
``generate`` and the ``harness`` commands untraced, with the policy kinds,
keywords and commands it names; a rename there fails every bench run.
These tests fail first.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest

from editstop import linalg
from editstop.capture import EvolutionVector, build_subspace
from editstop.generate import PolicyConfig, generate
from editstop.model import ModelConfig, init_model

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
TRACING = os.path.join(BENCH, "tracing.py")
# The bench's own modules, imported by their bare names from bench/.
BENCH_MODULES = ("workloads", "outputs", "measure", "tracing")


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


@pytest.mark.parametrize("kind", ["fixed", "edit", "edit_freeze"])
def test_a_traced_decode_counts_every_forward_and_probvector(monkeypatch, kind):
    """``generate`` reaches ``forward`` through the binding the bench
    wraps: with its recorder installed, a decode counts one forward per
    ``forward_passes``, over all of its rows. A monitored step takes the
    array path, so a decode builds no ``ProbVector`` and calls neither
    ``score_frame`` nor ``StabilityMonitor.observe``, the object API whose
    bindings the bench also wraps."""
    tracing = load_tracing(monkeypatch)
    cfg = ModelConfig()
    rng = np.random.default_rng(6)
    vector = EvolutionVector(u=np.abs(rng.normal(size=cfg.d_model)), module_id="m", rank=4)
    basis = build_subspace(rng.normal(size=(cfg.d_model, 6)), 3, "m")
    prompt = rng.integers(0, cfg.vocab_size - 1, size=cfg.block_length)
    recorder = tracing.Recorder()
    with tracing.Installed(recorder):
        result = generate(
            init_model(cfg), prompt, 64, PolicyConfig(kind), reasoning_map=vector,
            freeze_basis=basis,
        )
    counts = recorder.counts
    calls = sum(b.forward_passes for b in result.blocks)
    assert counts["model.forward.calls"] == calls > 0
    assert sum(s.name == "model.forward" for s in recorder.spans) == calls
    # Block b's forwards read all (b + 1) * L rows of its tokens.
    L = cfg.block_length
    assert [b.block_index for b in result.blocks] == [1, 2, 3]
    rows = sum(b.forward_passes * (b.block_index + 1) * L for b in result.blocks)
    assert counts["model.forward.rows"] == rows
    assert counts["generate.steps"] == sum(result.block_steps)
    assert counts["linalg.ProbVector.built"] == 0
    assert not any(s.name == "alignment.score_frame" for s in recorder.spans)
    assert counts["alignment.tokens_scored"] == 0
    assert counts["monitor.observe.calls"] == 0
    # The monitored decodes did score and monitor every step.
    monitored = [b.monitor for b in result.blocks if b.monitor is not None]
    assert len(monitored) == (0 if kind == "fixed" else 3)
    assert [len(m.divergence_trace) for m in monitored] == [
        b.steps_used - 1 for b in result.blocks if b.monitor is not None
    ]


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py`` imported as the bench imports it, with
    ``bench/`` on the path; the bench's modules leave ``sys.modules`` after."""
    monkeypatch.syspath_prepend(BENCH)
    held = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(held)


def test_every_decode_policy_is_a_kind(workloads):
    for workload, (_, kinds) in workloads.DECODE.items():
        config = workloads.config_for(workload, 0)
        assert [config.policy_config(kind).kind for kind in kinds] == list(kinds)


def test_generate_takes_what_the_decode_passes(workloads):
    tree = ast.parse(inspect.getsource(workloads.decode))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "generate"
    ]
    assert len(calls) == 1
    call = calls[0]
    keywords = [k.arg for k in call.keywords]
    assert keywords and None not in keywords
    # Binding raises TypeError on an argument the signature no longer takes.
    inspect.signature(workloads.gen.generate).bind(*call.args, **dict.fromkeys(keywords))


def test_every_pipeline_command_takes_config_and_run_dir(workloads):
    config = workloads.config_for(workloads.PIPELINE, 0)
    for name in ("train", *workloads.PIPELINE_COMMANDS):
        command = getattr(workloads.harness, f"cmd_{name}")
        inspect.signature(command).bind(config, run_dir="run")
    inspect.signature(workloads.harness.load_artifacts).bind(config, "run")
