"""Tests of the benchmark itself: percentiles, span arithmetic, failure counting.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import outputs  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


# --- percentile choice -------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_rank_percentile_leaves_ten_samples_beyond_p90_of_100():
    values = list(range(1, 101))
    p90 = measure.rank_percentile(values, 90.0)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_timing_summary_keeps_p90_and_adds_the_highest_tail():
    summary = measure.timing_summary("fixed", [i / 1000 for i in range(1, 201)])
    assert summary["fixed.n"] == (200, "count")
    assert summary["fixed.ms_p50"][0] == pytest.approx(100.5)
    assert summary["fixed.ms_p95"][0] == pytest.approx(190.0)
    assert summary["fixed.ms_p90"][0] == pytest.approx(180.0)
    assert "fixed.ms_p99" not in summary
    assert set(measure.timing_summary("edit", [0.01] * 50)) == {"edit.n", "edit.ms_p50"}


# --- self time ----------------------------------------------------------------

def _span(id, parent, start, end, name="x"):
    return Span(id, parent, name, "via", "req", 0, start, end)


def test_self_time_of_nested_spans():
    spans = [_span(1, None, 0, 100), _span(2, 1, 10, 30), _span(3, 2, 15, 20)]
    assert tracing.self_times_ns(spans) == {1: 80, 2: 15, 3: 5}


def test_self_time_counts_overlapping_children_once():
    # Two pool workers under one command, overlapping on [40, 60].
    spans = [_span(1, None, 0, 100), _span(2, 1, 10, 60), _span(3, 1, 40, 90)]
    assert tracing.self_times_ns(spans)[1] == 20


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, None, 0, 50), _span(2, 1, 40, 70), _span(3, 1, 60, 80)]
    assert tracing.self_times_ns(spans)[1] == 40


def test_layer_table_sums_calls_and_self_time():
    spans = [_span(1, None, 0, 4_000_000, "a"), _span(2, 1, 0, 1_000_000, "b"),
             _span(3, 1, 2_000_000, 3_000_000, "b")]
    table = tracing.layer_table(spans)
    assert table["a"] == {"calls": 1, "total_ms": 4.0, "self_ms": 2.0}
    assert table["b"]["calls"] == 2 and table["b"]["self_ms"] == 2.0


def test_worker_spans_attach_to_the_request_command():
    rec = tracing.Recorder()
    rec.begin_request("cmd")

    def leaf(i):
        sid, parent, stack = rec.open()
        rec.close(sid, parent, stack, "leaf", "test", 0)
        return parent

    sid, parent, stack = rec.open()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parents = list(pool.map(leaf, range(8)))
    rec.close(sid, parent, stack, "command", "test", 0)
    assert parent is None
    assert parents == [sid] * 8
    assert {s.request for s in rec.spans} == {"cmd"}


# --- installing and removing the wrappers -----------------------------------------

def test_tracing_wraps_every_binding_and_restores_it():
    import importlib

    gen = importlib.import_module("editstop.generate")
    harness = importlib.import_module("editstop.harness")
    from editstop.model import ModelConfig, init_model

    originals = (gen.generate, harness.generate, gen.forward, gen.denoise_block)
    rec = tracing.Recorder()
    model = init_model(ModelConfig())
    prompt = np.arange(16)
    with tracing.Installed(rec):
        assert harness.generate is not originals[1]
        harness.generate(model, prompt, 32, budget=4)
    assert (gen.generate, harness.generate, gen.forward, gen.denoise_block) == originals
    names = {s.name for s in rec.spans}
    assert {"generate.generate", "generate.denoise_block", "model.forward",
            "model.predictive_distributions"} <= names
    assert [s.via for s in rec.spans if s.name == "generate.generate"] == ["harness"]
    assert rec.counts["model.forward.calls"] == 4
    assert rec.counts["model.forward.rows"] == 4 * 32
    assert rec.counts["generate.steps"] == 4
    assert rec.counts["linalg.ProbVector.built"] > 0
    assert dict(rec.histogram["fixed"]) == {4: 1}


# --- failure accounting -----------------------------------------------------------

def test_ledger_counts_an_injected_exception():
    ledger = measure.Ledger(log=open(os.devnull, "w"))

    def boom():
        raise ValueError("injected")

    result, elapsed = ledger.call("op", boom)
    assert result is None and elapsed >= 0.0
    ok, _ = ledger.call("op", lambda: 7)
    assert ok == 7
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert dict(ledger.errors) == {"ValueError": 1}
    ledger.check("op", ["wrong token"])
    assert ledger.failed == 2 and ledger.mismatches == ["op: wrong token"]


def _fake_result(prompt, steps, early=False, certificate=None, fill=0):
    tokens = tuple(int(t) for t in prompt) + (fill,) * 16
    block = SimpleNamespace(block_index=1, steps_used=steps, stopped_early=early,
                            certificate=certificate)
    return SimpleNamespace(tokens=tokens, blocks=[block], block_steps=(steps,))


def test_decode_loop_counts_a_crash_instead_of_dropping_it(monkeypatch):
    import workloads

    freeze_calls = []

    def fake_generate(model, prompt, seq_len, policy, **kwargs):
        if policy.kind == "edit_freeze":
            freeze_calls.append(1)
            if len(freeze_calls) == 2:  # pass 0, prompt 1
                raise ValueError("injected crash")
        return _fake_result(prompt, 32 if policy.kind == "fixed" else 7)

    monkeypatch.setattr(workloads, "gen", SimpleNamespace(generate=fake_generate))
    ledger = measure.Ledger(log=open(os.devnull, "w"))
    ctx = workloads.Context("decode_one_block", 5, "", ledger, workloads.config_for("x", 5))
    artifacts = SimpleNamespace(model=None, vector=None, basis=None)
    phase = workloads.decode(ctx, artifacts, 0.0, prompts=3, passes=2)
    assert (ledger.attempted, ledger.failed) == (18, 1)
    assert dict(ledger.errors) == {"ValueError": 1}
    assert len(phase.times["edit_freeze"]) == 5 and len(phase.times["fixed"]) == 6
    # The crashed round is not timed; its prompt keeps only the complete repeat.
    assert {n: len(times) for n, times in phase.rounds.items()} == {0: 2, 1: 1, 2: 2}
    assert len(phase.repeats()) == 5 and len(phase.refs) == 6
    assert phase.edit_steps == 42 and phase.agreed == 6
    assert len(phase.digest_records) == 3


def test_round_cost_averages_each_rounds_median_repeat_in_reference_units():
    import workloads

    phase = workloads.Phase()
    phase.add_pass([(0, 4.0), (1, 10.0)], refs=[1.0, 1.0, 7.0])
    phase.add_pass([(0, 8.0)], refs=[2.0])
    phase.add_pass([(0, 30.0)], refs=[3.0])
    assert phase.ref_rounds == {0: [4.0, 4.0, 10.0], 1: [10.0]}
    assert workloads.round_cost(phase.ref_rounds) == 7.0
    assert workloads.round_cost(phase.rounds) == 9.0
    assert phase.repeats() == [4.0, 8.0, 30.0, 10.0]


def test_generate_checks_catch_mask_tokens_and_missing_certificates():
    prompt = np.arange(16)
    good = _fake_result(prompt, 32)
    assert outputs.generate_problems(good, prompt, 32, 32, 16, 63, "fixed") == []
    masked = _fake_result(prompt, 32, fill=63)
    assert outputs.generate_problems(masked, prompt, 32, 32, 16, 63, "fixed")
    short = _fake_result(prompt, 7)
    assert outputs.generate_problems(short, prompt, 32, 32, 16, 63, "fixed")
    uncertified = _fake_result(prompt, 7, early=True)
    assert outputs.generate_problems(uncertified, prompt, 32, 32, 16, 63, "edit")


def test_calibrate_without_admissible_pair_succeeds_only_with_all_keys(monkeypatch, tmp_path):
    import json

    import workloads
    from editstop.errors import NoAdmissiblePairError

    def no_pair(config, run_dir):
        raise NoAdmissiblePairError("no pair")

    monkeypatch.setattr(workloads.harness, "cmd_calibrate", no_pair)
    monkeypatch.setattr(workloads.harness, "cmd_certify", no_pair)
    assert workloads.run_command("calibrate", None, str(tmp_path)) is not None
    with pytest.raises(NoAdmissiblePairError):
        workloads.run_command("certify", None, str(tmp_path))

    assert outputs.command_problems("calibrate", str(tmp_path), None)
    payload = {key: None for key in outputs.CALIBRATION_KEYS}
    (tmp_path / "calibration.json").write_text(json.dumps(payload))
    assert outputs.command_problems("calibrate", str(tmp_path), None) == []
    del payload["pac_note"]
    (tmp_path / "calibration.json").write_text(json.dumps(payload))
    assert outputs.command_problems("calibrate", str(tmp_path), None)
