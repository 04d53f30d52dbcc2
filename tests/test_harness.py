"""Tests for the experiment harness commands."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import shutil
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    assert_same_trajectory,
    count_forwards,
    freeze_keys,
    reference_ablation_cells,
    reference_utility_table,
    same_bits,
)

from editstop import alignment, harness, linalg
from editstop.alignment import ActivationFrame, SimilarityMode, VisibleSet, score_frame
from editstop.capture import AdamWConfig
from editstop.certify import (
    DELTA_GRID,
    OMEGA_GRID,
    ContractionEstimate,
    MarginReport,
    build_certificate,
    fmt_real,
    margin_quantile,
    tail_budget,
    tv_budget,
)
from editstop.config import ExperimentConfig
from editstop.errors import ArtifactMismatchError, NoAdmissiblePairError, NoValidSamplesError
from editstop.generate import PolicyConfig, generate
from editstop.harness import (
    ABLATION_CSV,
    ABLATION_JSON,
    BAND_FILE,
    CALIBRATION_FILE,
    CERTIFICATES_FILE,
    CHECKPOINT_FILE,
    CONFIG_FILE,
    CONSOLIDATED_CSV,
    CONSOLIDATED_JSON,
    GENERATIONS_FILE,
    METADATA_FILE,
    REPORT_FILE,
    TRACES_DIR,
    cmd_ablate,
    cmd_calibrate,
    cmd_certify,
    cmd_infer,
    cmd_report,
    cmd_train,
    load_artifacts,
    replay_stop,
)
from editstop.metaformat import load_metadata, persist_metadata
from editstop.model import init_model, load_checkpoint
from editstop.monitor import StabilityMonitor, StopConfig, StopReason
from editstop.tasks import make_task
from editstop.train import CaptureSpec, sft_train


def small_config(out_dir: str, **overrides) -> ExperimentConfig:
    base = dict(
        vocab_size=12,
        d_model=16,
        n_heads=2,
        n_blocks=2,
        lora_rank=3,
        block_length=4,
        max_blocks=2,
        seq_len=8,
        budget=12,
        train_steps=120,
        eval_instances=8,
        seeds=[1],
        subspace_k=2,
        trace_retention=3,
        out_dir=out_dir,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One shared train + infer pass; read-only for every test."""
    run_dir = str(tmp_path_factory.mktemp("trained"))
    cfg = small_config(run_dir)
    cmd_train(cfg)
    cmd_infer(cfg)
    return cfg, run_dir


def recording(fn, results: list):
    """``fn``, appending each return value to ``results``."""

    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    return wrapper


def recorded_run(divergences, mask_id=9):
    """A stand-in for a recorded run and its step divergences, which
    ``divergences`` gives for steps 2, 3, ...; step ``s``'s row has slot 0
    committed as ``s`` and slot 1 masked with row argmax ``10 * s``; each
    step reads its own row."""
    steps = np.arange(1, len(divergences) + 2)
    trajectory = SimpleNamespace(
        token_rows=np.stack([steps, np.full_like(steps, mask_id)], axis=1),
        choice=np.stack([np.zeros_like(steps), 10 * steps], axis=1),
        row=lambda step: step - 1,
        tokens=(-1, -1),
        steps_used=steps.size,
    )
    return trajectory, divergences


class TestReplayStop:
    def test_never_below_threshold(self):
        assert replay_stop(*recorded_run([1.0] * 9), 0.5, 3, 9) == ((-1, -1), 10)

    def test_stops_at_run_completion(self):
        run = recorded_run([0.9, 0.01, 0.01, 0.01, 0.01])
        assert replay_stop(*run, 0.05, 3, 9) == ((5, 50), 5)

    def test_reset_mid_run(self):
        run = recorded_run([0.0, 0.0, 0.9, 0.0, 0.0, 0.0])
        assert replay_stop(*run, 0.05, 3, 9) == ((7, 70), 7)

    def test_threshold_is_strict(self):
        assert replay_stop(*recorded_run([0.05] * 7), 0.05, 2, 9) == ((-1, -1), 8)

    def test_infinite_threshold(self):
        run = recorded_run([10.0**i for i in range(1, 6)])
        assert replay_stop(*run, math.inf, 4, 9) == ((5, 50), 5)


class TestTrain:
    def test_artifacts_written(self, trained_run):
        _, run_dir = trained_run
        for name in (CONFIG_FILE, CHECKPOINT_FILE, METADATA_FILE, BAND_FILE):
            assert os.path.exists(os.path.join(run_dir, name)), name

    def test_config_file_round_trips(self, trained_run):
        cfg, run_dir = trained_run
        stored = ExperimentConfig.from_file(os.path.join(run_dir, CONFIG_FILE))
        assert stored == cfg

    def test_metadata_has_vector_and_subspace(self, trained_run):
        # The default tap's energy summary first, then both reductions of
        # every last-block q/k/v adapter for ablate, and one basis.
        cfg, run_dir = trained_run
        vectors, bases = load_metadata(os.path.join(run_dir, METADATA_FILE))
        ids = [v.module_id for v in vectors]
        assert ids[0] == "block1.q.lora_b"
        assert sorted(ids) == sorted(
            f"block1.{p}.lora_{a}{suffix}"
            for p in ("q", "k", "v")
            for a in ("a", "b")
            for suffix in ("", "#mean")
        )
        assert len(bases) == 1
        assert bases[0].source_module == "block1.q.lora_b#subspace"
        assert all(v.d_out == cfg.d_model for v in vectors)
        assert bases[0].k == cfg.subspace_k

    def test_band_file_structure(self, trained_run):
        cfg, run_dir = trained_run
        payload = json.load(open(os.path.join(run_dir, BAND_FILE)))
        assert sorted(payload) == ["band", "final_loss"]
        band = payload["band"]
        assert band["n_steps"] == cfg.train_steps
        assert band["sigma"] >= 0.0
        assert payload["final_loss"] < 1.0


    def test_matches_sft_train_with_the_config(self, tmp_path):
        # cmd_train hands sft_train the config's learning rate, batch size
        # and model seed, none of them a default.
        cfg = small_config(
            str(tmp_path), train_steps=3, batch_size=5, learning_rate=0.02, model_seed=4
        )
        cmd_train(cfg)
        model = init_model(cfg.model_config())
        result = sft_train(
            model,
            make_task(cfg.task, cfg.vocab_size, cfg.block_length),
            steps=3,
            adamw_cfg=AdamWConfig(learning_rate=0.02),
            captures=(CaptureSpec(model.default_tap().module),),
            rng=np.random.default_rng(5),
            batch_size=5,
        )
        stored = load_checkpoint(os.path.join(str(tmp_path), CHECKPOINT_FILE))
        assert sorted(result.model.lora) == sorted(stored.lora)
        for key, value in result.model.lora.items():
            assert value.tobytes() == stored.lora[key].tobytes(), key


class TestLoadArtifacts:
    def test_loads_trained_state(self, trained_run):
        cfg, run_dir = trained_run
        art = load_artifacts(cfg, run_dir)
        assert art.model.cfg == cfg.model_config()
        assert art.vector.d_out == cfg.d_model
        assert art.basis is not None
        assert art.band is not None

    def test_missing_directory(self, trained_run, tmp_path):
        cfg, _ = trained_run
        with pytest.raises(ArtifactMismatchError, match="missing checkpoint"):
            load_artifacts(cfg, str(tmp_path))

    def test_architecture_mismatch(self, trained_run):
        cfg, run_dir = trained_run
        other = dataclasses.replace(cfg, d_model=32)
        with pytest.raises(ArtifactMismatchError, match="does not match"):
            load_artifacts(other, run_dir)


class TestInfer:
    def test_report_structure(self, trained_run):
        cfg, run_dir = trained_run
        report = json.load(open(os.path.join(run_dir, REPORT_FILE)))
        assert report["policy"] == "edit"
        assert report["budget"] == cfg.budget
        assert len(report["per_seed"]) == len(cfg.seeds)
        seed0 = report["per_seed"][0]
        assert seed0["n_instances"] == cfg.eval_instances
        expected = 100.0 * (1.0 - seed0["avg_steps"] / cfg.budget)
        np.testing.assert_allclose(seed0["reduction_percent"], expected)

    @pytest.mark.parametrize("kind", ["edit", "fixed", "edit_freeze"])
    def test_counters_cover_every_instance(self, trained_run, tmp_path, kind):
        # trace_retention 3 of 8 instances: the counters must still read all 8.
        cfg, run_dir = trained_run
        out = str(tmp_path / kind)
        report = cmd_infer(cfg, artifacts_dir=run_dir, run_dir=out, policy_kind=kind)
        assert cfg.trace_retention < cfg.eval_instances
        art = load_artifacts(cfg, run_dir)
        task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
        policy = cfg.policy_config(kind)
        for seed_entry in report["per_seed"]:
            blocks = [
                b
                for prompt, _ in harness._sample_instances(
                    task, (seed_entry["seed"], 101), cfg.eval_instances
                )
                for b in generate(
                    art.model, prompt, cfg.seq_len, policy, budget=cfg.budget,
                    reasoning_map=art.vector, freeze_basis=art.basis,
                ).blocks
            ]
            steps = sorted(b.steps_used for b in blocks)
            assert seed_entry["stop_step_histogram"] == [
                [k, steps.count(k)] for k in sorted(set(steps))
            ]
            assert seed_entry["rejected_stops"] == sum(len(b.rejected_stops) for b in blocks)
            freezes = sum(len(b.freeze_events) for b in blocks)
            assert seed_entry["freeze_events"] == freezes
            assert (freezes > 0) == (kind == "edit_freeze")
            if kind == "fixed":
                assert seed_entry["stop_step_histogram"] == [[cfg.budget, len(blocks)]]
                assert seed_entry["max_step_divergence"] is None
                assert seed_entry["vacuity_ratio"] is None
                assert seed_entry["stop_reasons"] is None
                continue
            reasons = [b.stop_decision.reason for b in blocks]
            assert seed_entry["stop_reasons"] == {r.value: reasons.count(r) for r in StopReason}
            largest = max(
                row.divergence for b in blocks for row in b.monitor.divergence_trace
            )
            assert seed_entry["max_step_divergence"] == largest > 0.0
            assert seed_entry["vacuity_ratio"] == largest / cfg.delta
        stored = json.load(open(os.path.join(out, REPORT_FILE)))
        assert stored == report

    @pytest.mark.parametrize("kind", ["edit", "fixed"])
    def test_margins_cover_every_stop(self, trained_run, tmp_path, kind):
        # Every early-stopped block's certificate margin, not only the traced ones.
        cfg, run_dir = trained_run
        report = cmd_infer(cfg, artifacts_dir=run_dir, run_dir=str(tmp_path), policy_kind=kind)
        art = load_artifacts(cfg, run_dir)
        task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
        for seed_entry in report["per_seed"]:
            margins = [
                b.certificate.margin_report.margin
                for prompt, _ in harness._sample_instances(
                    task, (seed_entry["seed"], 101), cfg.eval_instances
                )
                for b in generate(
                    art.model, prompt, cfg.seq_len, cfg.policy_config(kind),
                    budget=cfg.budget, reasoning_map=art.vector,
                ).blocks
                if b.stopped_early
            ]
            assert len(margins) == seed_entry["n_early_stops"]
            if kind == "fixed":
                assert margins == []
                assert seed_entry["min_margin"] is None
                assert seed_entry["beta_quantile_margin"] is None
                continue
            assert len(margins) > cfg.trace_retention
            assert seed_entry["min_margin"] == min(margins)
            assert seed_entry["beta_quantile_margin"] == margin_quantile(margins, cfg.beta)
            assert seed_entry["min_margin"] <= seed_entry["beta_quantile_margin"]
        stored = json.load(open(os.path.join(str(tmp_path), REPORT_FILE)))
        assert stored == report

    def test_early_stop_beats_budget(self, trained_run):
        _, run_dir = trained_run
        report = json.load(open(os.path.join(run_dir, REPORT_FILE)))
        assert report["mean"]["avg_steps"] < report["budget"]
        assert report["mean"]["accuracy"] > 0.5

    def test_generations_one_line_per_instance(self, trained_run):
        cfg, run_dir = trained_run
        lines = open(os.path.join(run_dir, GENERATIONS_FILE)).read().splitlines()
        assert len(lines) == len(cfg.seeds) * cfg.eval_instances
        first = json.loads(lines[0])
        assert set(first) >= {"prompt", "target", "output", "exact_match", "block_steps"}

    def test_trace_and_generations_line_share_the_record(self, trained_run):
        # An instance's trace and its generations line carry one record:
        # the same six fields, and the trace's block steps match the line's.
        _, run_dir = trained_run
        lines = open(os.path.join(run_dir, GENERATIONS_FILE)).read().splitlines()
        by_instance = {(g["seed"], g["instance"]): g for g in map(json.loads, lines)}
        traces = os.path.join(run_dir, TRACES_DIR)
        names = sorted(n for n in os.listdir(traces) if n.endswith(".json"))
        assert names
        for name in names:
            trace = json.load(open(os.path.join(traces, name)))
            line = by_instance[trace["seed"], trace["instance"]]
            record = {k: v for k, v in trace.items() if k != "blocks"}
            assert record == {k: v for k, v in line.items() if k not in ("block_steps", "policy")}
            assert [b["steps_used"] for b in trace["blocks"]] == line["block_steps"]

    def test_trace_retention_limit(self, trained_run):
        cfg, run_dir = trained_run
        names = os.listdir(os.path.join(run_dir, TRACES_DIR))
        jsons = [n for n in names if n.endswith(".json")]
        assert len(jsons) == min(cfg.trace_retention, cfg.eval_instances) * len(cfg.seeds)
        assert any(n.endswith("_divergence.csv") for n in names)
        assert any(n.endswith("_pseudograd.csv") for n in names)

    def test_instance_trace_content(self, trained_run):
        _, run_dir = trained_run
        payload = json.load(
            open(os.path.join(run_dir, TRACES_DIR, "seed1_inst000.json"))
        )
        block = payload["blocks"][0]
        assert block["stopped_early"] is True
        cert = block["certificate"]
        assert cert["stop_step"] == block["steps_used"]
        assert 0.0 <= float(cert["margin"]) <= 1.0

    def test_fixed_policy_uses_whole_budget(self, trained_run, tmp_path):
        cfg, run_dir = trained_run
        out = str(tmp_path / "fixed")
        report = cmd_infer(cfg, artifacts_dir=run_dir, run_dir=out, policy_kind="fixed")
        assert report["policy"] == "fixed"
        assert report["mean"]["avg_steps"] == cfg.budget
        assert report["mean"]["reduction_percent"] == 0.0

    def test_freeze_policy_runs(self, trained_run, tmp_path):
        cfg, run_dir = trained_run
        out = str(tmp_path / "frozen")
        report = cmd_infer(
            cfg, artifacts_dir=run_dir, run_dir=out, policy_kind="edit-freeze"
        )
        assert report["policy"] == "edit_freeze"
        assert report["mean"]["avg_steps"] <= cfg.budget


class TestCalibrate:
    def test_default_grids_inadmissible_but_file_written(self, trained_run, tmp_path):
        cfg, run_dir = trained_run
        out = str(tmp_path / "cal")
        with pytest.raises(NoAdmissiblePairError):
            cmd_calibrate(cfg, artifacts_dir=run_dir, run_dir=out)
        payload = json.load(open(os.path.join(out, CALIBRATION_FILE)))
        assert payload["pac"] is None
        assert "falling back" in payload["pac_note"]
        assert payload["fallback"] == {"delta": cfg.delta, "omega": cfg.omega}
        assert 0.0 <= payload["alpha_hat"] < 1.0
        assert payload["margin_quantile"] > 0.0
        # 6 thresholds x 4 spans, each scored by accuracy per step.
        assert len(payload["utility_table"]) == 24
        chosen = payload["utility_chosen"]
        best = max(r["utility"] for r in payload["utility_table"])
        assert chosen["utility"] == best

    def test_no_fallback_when_a_pair_is_admitted(self, trained_run, tmp_path, monkeypatch):
        cfg, run_dir = trained_run
        admitted = {"delta": 0.025, "omega": 6}

        class Admitted:
            def to_json_dict(self):
                return admitted

        monkeypatch.setattr(harness, "calibrate_pac", lambda *args: Admitted())
        out = str(tmp_path / "cal-admitted")
        payload = cmd_calibrate(cfg, artifacts_dir=run_dir, run_dir=out)
        assert payload["pac"] == admitted
        assert payload["pac_note"] is None
        assert payload["fallback"] is None
        assert json.load(open(os.path.join(out, CALIBRATION_FILE))) == payload

    def test_contraction_counts_are_reported(self, trained_run, tmp_path, monkeypatch):
        # The ratio counts behind alpha_hat, or null beside alpha_note when
        # no ratio was measurable.
        cfg, run_dir = trained_run

        def calibrate(out: str) -> dict:
            with contextlib.suppress(NoAdmissiblePairError):
                cmd_calibrate(cfg, artifacts_dir=run_dir, run_dir=out)
            return json.load(open(os.path.join(out, CALIBRATION_FILE)))

        payload = calibrate(str(tmp_path / "live"))
        counts = [payload["samples_used"], payload["skipped_small_denominators"]]
        assert (counts == [None, None]) == (payload["alpha_note"] is not None)

        def fake(outcome):
            def estimate_contraction(traces):
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome

            return estimate_contraction

        cases = [
            (ContractionEstimate(0.25, 7, 2), [7, 2]),
            (NoValidSamplesError("no ratio"), [None, None]),
        ]
        for which, (outcome, want) in enumerate(cases):
            monkeypatch.setattr(harness, "estimate_contraction", fake(outcome))
            payload = calibrate(str(tmp_path / f"cal{which}"))
            assert [payload["samples_used"], payload["skipped_small_denominators"]] == want

    def test_margin_count_matches_validation_set(self, trained_run, tmp_path):
        cfg, run_dir = trained_run
        out = str(tmp_path / "cal2")
        with pytest.raises(NoAdmissiblePairError):
            cmd_calibrate(cfg, artifacts_dir=run_dir, run_dir=out)
        payload = json.load(open(os.path.join(out, CALIBRATION_FILE)))
        n_val = max(1, round(cfg.validation_fraction * cfg.eval_instances))
        assert payload["n_validation"] == n_val
        # One denoised block per validation instance at this sequence length.
        assert payload["n_margins"] == n_val


# Two training steps leave 16-token blocks whose row argmax still moves
# between steps, so an early stop commits other tokens than the full run.
UNDERTRAINED = dict(block_length=16, seq_len=32, train_steps=2)


@pytest.fixture(
    scope="module",
    params=[(0, {}, False), (0, UNDERTRAINED, True), (1, dict(UNDERTRAINED, budget=11), True)],
    ids=["seed0", "seed0-undertrained", "seed1-undertrained-budget11"],
)
def calibrated(request, tmp_path_factory):
    """cmd_calibrate on its own trained run, recording each prompt's
    trajectory and the step divergences it scored offline.

    With budget 12 the spans 6, 8 and 10 stop before the budget and 12
    never stops; with budget 11 span 10 stops at the last step. The third
    element says whether some early stop must refill masked slots with
    tokens the full run did not commit.
    """
    model_seed, overrides, refills = request.param
    run_dir = str(tmp_path_factory.mktemp(f"calibrated{model_seed}"))
    cfg = small_config(run_dir, model_seed=model_seed, **overrides)
    cmd_train(cfg)
    runs: list = []
    traces: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "generate", recording(harness.generate, runs))
        mp.setattr(harness, "_alignment_trace", recording(harness._alignment_trace, traces))
        with pytest.raises(NoAdmissiblePairError):
            cmd_calibrate(cfg)
    payload = json.load(open(os.path.join(run_dir, CALIBRATION_FILE)))
    probes = [
        (run.blocks[0].trajectory, divergences[:, 0])
        for run, (_, divergences) in zip(runs, traces, strict=True)
    ]
    return cfg, load_artifacts(cfg, run_dir), payload, probes, refills


class TestCalibrateReplay:
    def test_utility_sweep_matches_live_runs(self, calibrated):
        cfg, artifacts, payload = calibrated[:3]
        rows, chosen, _ = reference_utility_table(cfg, artifacts)
        assert payload["utility_table"] == rows
        assert payload["utility_chosen"] == chosen

    def test_replayed_cells_match_live_runs(self, calibrated):
        cfg, artifacts, _, probes, refills = calibrated
        _, _, runs = reference_utility_table(cfg, artifacts)
        mask_id = artifacts.model.cfg.mask_id
        early = never = refilled = 0
        for (delta, omega), results in runs.items():
            for (trajectory, divergences), live in zip(probes, results, strict=True):
                (block,) = live.blocks
                tokens, steps = replay_stop(trajectory, divergences, delta, omega, mask_id)
                assert (tokens, steps) == (block.trajectory.tokens, block.steps_used)
                early += block.steps_used < cfg.budget
                never += not block.stopped_early
                refilled += tokens != trajectory.tokens
        # Both branches of the replay are exercised.
        assert early > 0 and never > 0
        if refills:
            assert refilled > 0

    def test_freezing_probe_replays_live_freezing_runs(self, calibrated):
        # The freezer pins frame rows and commits nothing, so a delta = 0
        # edit_freeze decode replays live edit_freeze runs cell by cell.
        cfg = calibrated[0]
        artifacts, task, mode, reasoning_map = harness._load_setup(cfg, cfg.out_dir)
        prompts = [p for p, _ in harness._sample_instances(task, (cfg.model_seed, 707), 4)]
        mask_id = artifacts.model.cfg.mask_id

        def decode(delta, omega):
            policy = PolicyConfig(
                "edit_freeze",
                stop=StopConfig(delta=delta, omega=omega, tau_blk=cfg.tau_blk),
                freeze=cfg.freeze_config(),
            )
            return [
                generate(
                    artifacts.model, prompt, cfg.seq_len, policy, budget=cfg.budget,
                    reasoning_map=reasoning_map, mode=mode, freeze_basis=artifacts.basis,
                ).blocks[0]
                for prompt in prompts
            ]

        probes = decode(0.0, cfg.omega)
        assert all(probe.freeze_events for probe in probes)
        early = never = 0
        for delta, omega in product(DELTA_GRID[::2], OMEGA_GRID):
            for probe, live in zip(probes, decode(delta, omega), strict=True):
                divergences = [row.divergence for row in probe.monitor.divergence_trace]
                replayed = replay_stop(probe.trajectory, divergences, delta, omega, mask_id)
                assert replayed == (live.trajectory.tokens, live.steps_used)
                assert freeze_keys(live.freeze_events) == freeze_keys(
                    st for st in probe.freeze_events if st.frozen_at <= live.steps_used
                )
                early += live.stopped_early
                never += not live.stopped_early
        assert early > 0 and never > 0

    def test_calibrate_decodes_each_prompt_once(self, calibrated):
        payload, probes = calibrated[2:4]
        assert len(probes) == payload["n_validation"]


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """A default-config run (16-slot blocks, budget 32) and three of its
    validation prompts; twenty training steps keep it quick."""
    run_dir = str(tmp_path_factory.mktemp("default_run"))
    cfg = ExperimentConfig(train_steps=20, out_dir=run_dir)
    cmd_train(cfg)
    artifacts, task, _, _ = harness._load_setup(cfg, run_dir)
    prompts = [p for p, _ in harness._sample_instances(task, (cfg.model_seed, 707), 3)]
    return cfg, artifacts, prompts


class TestAlignmentTrace:
    """``_alignment_trace`` scores a recorded ``fixed`` decode offline. Its
    step divergences must be the bits in a live never-stopping monitor's
    trace, and each distinct forward's softmax the bits ``score_frame``
    gives that forward's frame."""

    @pytest.mark.parametrize("tau_blk", [1.0, 0.01])
    @pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)
    def test_offline_trace_equals_the_live_monitor(self, default_run, mode, tau_blk):
        cfg, artifacts, prompts = default_run
        model = artifacts.model
        vector = mode is SimilarityMode.VECTOR_COSINE
        reasoning_map = artifacts.vector if vector else artifacts.basis
        never_stop = PolicyConfig(
            "edit", stop=StopConfig(delta=0.0, omega=cfg.omega, tau_blk=tau_blk)
        )
        lo = cfg.block_length  # the one target block follows the one-block prompt
        for prompt in prompts:
            (fixed,) = generate(model, prompt, cfg.seq_len, PolicyConfig("fixed")).blocks
            (live,) = generate(
                model, prompt, cfg.seq_len, never_stop, reasoning_map=reasoning_map, mode=mode
            ).blocks
            # A never-stopping monitor commits what the fixed run does.
            assert_same_trajectory(live.trajectory, fixed.trajectory)
            trajectory = fixed.trajectory
            probs, divergences = harness._alignment_trace(
                trajectory, ((0, (reasoning_map,)),), mode, tau_blk
            )
            trace = live.monitor.divergence_trace
            assert [row.step for row in trace] == list(range(2, cfg.budget + 1))
            assert divergences.shape == (cfg.budget - 1, 1)
            assert same_bits(divergences[:, 0], np.array([row.divergence for row in trace]))
            # Steps 18-32 repeat step 17 and diverge by 0.0. Steps 3-17 each
            # run a forward; at tau 1 some of them diverge (at 0.01 the
            # softmax may saturate and leave every divergence 0.0).
            assert not divergences[16:].any()
            assert divergences[1:16].any() or tau_blk != 1.0
            assert len(probs) == fixed.forward_passes == 17
            frames = zip(probs, trajectory.tap_rows[0], trajectory.visible, strict=True)
            for step, (p, rows, seen) in enumerate(frames, start=1):
                members = VisibleSet(tuple((lo + seen.nonzero()[0]).tolist()))
                frame = ActivationFrame(step, rows, members)
                dist = score_frame(frame, reasoning_map, mode, tau_blk).dist
                assert p.shape == (1, len(members))
                assert same_bits(p[0], dist.probs)


class TestCertify:
    def test_recertifies_stored_stops(self, trained_run):
        cfg, run_dir = trained_run
        report = cmd_certify(cfg, run_dir=run_dir)
        assert report["n_stops"] == 3
        assert os.path.exists(os.path.join(run_dir, CERTIFICATES_FILE))
        for entry in report["certificates"]:
            cert = entry["certificate"]
            assert float(cert["tv_budget"]) == pytest.approx(
                cfg.omega * math.sqrt(cfg.delta / 2.0)
            )

    def test_calibration_enables_pac_verdicts(self, trained_run, tmp_path):
        cfg, run_dir = trained_run
        cal_path = str(tmp_path / "cal.json")
        with open(cal_path, "w") as fh:
            json.dump({"alpha_hat": 0.5, "margin_quantile": 0.0}, fh)
        report = cmd_certify(cfg, run_dir=run_dir, calibration_path=cal_path)
        # Quantile zero: every stored margin clears it.
        assert report["certified_fraction"] == 1.0
        cert = report["certificates"][0]["certificate"]
        assert cert["tail_budget"] is not None
        assert cert["pac_pass"] is True

    def test_infer_certificates_equal_certify(self, trained_run, tmp_path):
        # infer adds only the calibration verdict to each decode's own
        # certificate; certify rebuilds every field from the stored ones.
        cfg, artifacts_dir = trained_run

        def stored(run_dir):
            (seed,) = json.load(open(os.path.join(run_dir, REPORT_FILE)))["per_seed"]
            return [
                block["certificate"]
                for name in seed["trace_files"]
                for block in json.load(open(os.path.join(run_dir, name)))["blocks"]
                if block["stopped_early"]
            ]

        margins = sorted(float(cert["margin"]) for cert in stored(artifacts_dir))
        cal_path = str(tmp_path / "cal.json")
        with open(cal_path, "w") as fh:
            # Strictly between the smallest and largest stored margin, so
            # the verdict does not hinge on their 12-digit text form.
            json.dump({"alpha_hat": 0.5, "margin_quantile": (margins[0] + margins[-1]) / 2}, fh)
        run_dir = str(tmp_path / "run")
        cmd_infer(cfg, artifacts_dir=artifacts_dir, run_dir=run_dir, calibration_path=cal_path)
        certs = stored(run_dir)
        assert {cert["pac_pass"] for cert in certs} == {True, False}
        certified = cmd_certify(cfg, run_dir=run_dir, calibration_path=cal_path)
        assert [e["certificate"] for e in certified["certificates"]] == certs

    @pytest.mark.parametrize("alpha_hat", [1.0, 0.5])
    def test_noncontractive_alpha_hat_gives_no_global_verdict(
        self, trained_run, tmp_path, alpha_hat
    ):
        # An alpha_hat outside [0, 1) bounds no tail, so infer and certify
        # read the calibration as giving none and write global_pass null;
        # one inside it gives every stop a verdict.
        cfg, artifacts_dir = trained_run
        cal_path = str(tmp_path / "cal.json")
        with open(cal_path, "w") as fh:
            json.dump({"alpha_hat": alpha_hat}, fh)
        run_dir = str(tmp_path / "run")
        cmd_infer(cfg, artifacts_dir=artifacts_dir, run_dir=run_dir, calibration_path=cal_path)
        certified = cmd_certify(cfg, run_dir=run_dir, calibration_path=cal_path)
        (seed,) = json.load(open(os.path.join(run_dir, REPORT_FILE)))["per_seed"]
        inferred = [
            block["certificate"]["global_pass"]
            for name in seed["trace_files"]
            for block in json.load(open(os.path.join(run_dir, name)))["blocks"]
            if block["stopped_early"]
        ]
        verdicts = inferred + [e["certificate"]["global_pass"] for e in certified["certificates"]]
        assert len(inferred) == certified["n_stops"] > 0
        if alpha_hat < 1.0:
            assert certified["alpha_hat"] == alpha_hat
            assert all(isinstance(v, bool) for v in verdicts)
        else:
            assert certified["alpha_hat"] is None
            assert verdicts == [None] * len(verdicts)

    def test_quantile_at_a_reported_margin_gets_one_verdict(
        self, trained_run, tmp_path, monkeypatch
    ):
        # The quantile is a stop's margin as the trace reports it, rounded
        # up from the exact margin: infer, which holds the exact margin, and
        # certify, which reads the reported one, must reach one verdict.
        cfg, artifacts_dir = trained_run
        decoded = []
        monkeypatch.setattr(harness, "generate", recording(generate, decoded))
        cmd_infer(cfg, artifacts_dir=artifacts_dir, run_dir=str(tmp_path / "plain"))
        margins = [
            b.certificate.margin_report.margin
            for r in decoded[: cfg.trace_retention]
            for b in r.blocks
            if b.stopped_early
        ]
        text = next(fmt_real(m) for m in margins if float(fmt_real(m)) > m)
        cal_path = str(tmp_path / "cal.json")
        with open(cal_path, "w") as fh:
            json.dump({"margin_quantile": float(text)}, fh)
        run_dir = str(tmp_path / "run")
        cmd_infer(cfg, artifacts_dir=artifacts_dir, run_dir=run_dir, calibration_path=cal_path)
        certified = cmd_certify(cfg, run_dir=run_dir, calibration_path=cal_path)
        verdicts = {
            (e["trace"], e["block_index"]): e["certificate"]["pac_pass"]
            for e in certified["certificates"]
        }
        assert any(e["certificate"]["margin"] == text for e in certified["certificates"])
        for name in os.listdir(os.path.join(run_dir, TRACES_DIR)):
            if name.endswith(".json"):
                trace = json.load(open(os.path.join(run_dir, TRACES_DIR, name)))
                for block in trace["blocks"]:
                    if block["stopped_early"]:
                        key = (name, block["block_index"])
                        assert block["certificate"]["pac_pass"] is verdicts[key], key

    def test_a_margin_at_a_budget_boundary_gets_one_verdict(self, tmp_path):
        # Each exact margin lies within rounding of twice a budget (the
        # window's for block 0, window plus tail for block 1), so its
        # 12-digit report falls on the other side of it. The certificate
        # infer writes from the exact margin and the one certify rebuilds
        # from the report must still reach one verdict.
        cfg = small_config(str(tmp_path), delta=0.005, omega=1)
        alpha_hat = 0.5
        window = tv_budget(cfg.delta, cfg.omega)
        stored = []
        for block_index, bound in enumerate((window, window + tail_budget(alpha_hat, cfg.delta))):
            rounds_up = float(fmt_real(2.0 * bound)) > 2.0 * bound
            margin = 2.0 * bound * (1.0 - 1e-14 if rounds_up else 1.0 + 1e-14)
            assert (bound < margin / 2.0) != (bound < float(fmt_real(margin)) / 2.0)
            report = MarginReport(block_index * cfg.block_length, margin, 7, 4)
            cert = build_certificate(7, report, cfg.stop_config(), alpha_hat=alpha_hat)
            stored.append(cert.to_json_dict())
        traces = tmp_path / TRACES_DIR
        traces.mkdir()
        blocks = [
            {"block_index": i, "stopped_early": True, "certificate": cert}
            for i, cert in enumerate(stored)
        ]
        (traces / "seed1_inst000.json").write_text(json.dumps({"blocks": blocks}))
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps({"alpha_hat": alpha_hat}))
        certified = cmd_certify(cfg, run_dir=str(tmp_path), calibration_path=str(cal_path))
        assert [e["certificate"] for e in certified["certificates"]] == stored

    def test_missing_traces(self, trained_run, tmp_path):
        cfg, _ = trained_run
        with pytest.raises(ArtifactMismatchError, match="trace"):
            cmd_certify(cfg, run_dir=str(tmp_path))


ABLATION_SMALL = dict(train_steps=80, eval_instances=4, budget=8)


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """cmd_ablate on a trained run, recording its sft_train, generate and
    score_alignment calls and any frame scored on its own: a ``score_frame``
    call, or a live decode's ``score_alignment``."""
    run_dir = str(tmp_path_factory.mktemp("ablate"))
    cfg = small_config(run_dir, **ABLATION_SMALL)
    cmd_train(cfg)
    trained: list = []
    runs: list = []
    scored: list = []
    framed: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "sft_train", recording(harness.sft_train, trained))
        mp.setattr(harness, "generate", recording(harness.generate, runs))
        mp.setattr(harness, "score_alignment", recording(harness.score_alignment, scored))
        live = importlib.import_module("editstop.generate")
        mp.setattr(alignment, "score_frame", recording(alignment.score_frame, framed))
        mp.setattr(live, "score_alignment", recording(live.score_alignment, framed))
        payload = cmd_ablate(cfg)
    return cfg, run_dir, payload, trained, runs, scored, framed


class TestAblate:
    def test_full_grid(self, ablation):
        payload = ablation[2]
        cells = payload["cells"]
        assert len(cells) == 12
        combos = {(c["projection"], c["adapter"], c["reduction"]) for c in cells}
        assert combos == {
            (p, a, r)
            for p in ("q", "k", "v")
            for a in ("a", "b")
            for r in ("energy", "mean")
        }

    def test_cells_carry_finite_divergence(self, ablation):
        payload = ablation[2]
        for cell in payload["cells"]:
            assert math.isfinite(cell["mean_divergence"])
            assert cell["mean_divergence"] >= 0.0
            assert cell["n_samples"] > 0

    def test_csv_mirrors_json(self, ablation):
        _, run_dir, payload = ablation[:3]
        lines = open(os.path.join(run_dir, ABLATION_CSV)).read().splitlines()
        assert len(lines) == 1 + len(payload["cells"])
        assert lines[0].startswith("module,projection,adapter,reduction")
        stored = json.load(open(os.path.join(run_dir, ABLATION_JSON)))
        assert stored == payload

    def test_cells_score_their_own_module(self, ablation):
        # Every cell equals live runs that tap the cell's projection and
        # score its stored summary, so the k and v cells do not score q
        # activations.
        cfg, run_dir, payload = ablation[:3]
        want = reference_ablation_cells(cfg, run_dir)
        got = {
            (c["projection"], c["adapter"], c["reduction"]): (c["mean_divergence"], c["n_samples"])
            for c in payload["cells"]
        }
        assert got == want

    def test_cells_average_distinct_forwards_only(self, ablation):
        # A step that repeats the last forward diverges by 0.0 by
        # construction, so each cell averages one divergence per forward
        # after a prompt's first.
        payload, runs = ablation[2], ablation[4]
        distinct = sum(run.blocks[0].forward_passes - 1 for run in runs)
        assert distinct < sum(run.blocks[0].steps_used - 1 for run in runs)
        assert [c["n_samples"] for c in payload["cells"]] == [distinct] * 12

    def test_ablate_decodes_each_prompt_once_per_projection(self, ablation):
        # One decode per prompt now serves all three projections: it taps
        # q, k and v off each step's one forward.
        payload, runs = ablation[2], ablation[4]
        assert len(runs) == payload["n_eval_instances"]
        for run in runs:
            trajectory = run.blocks[0].trajectory
            assert len(trajectory.tap_rows) == 3
            for rows in trajectory.tap_rows:
                assert [len(a) for a in rows] == trajectory.visible.sum(axis=1).tolist()

    def test_ablate_reads_the_trained_run(self, ablation):
        assert ablation[3] == []  # no sft_train call

    def test_scores_each_cell_once_per_prompt(self, ablation):
        # No frame is scored on its own: each of the 12 cells scores its
        # projection's distinct frames of a prompt, stacked, in one call.
        runs, scored, framed = ablation[4:7]
        # Each distinct forward keeps its visible rows once.
        distinct_rows = sum(int(run.blocks[0].trajectory.visible.sum()) for run in runs)
        assert framed == []
        assert len(scored) == 12 * len(runs)
        assert sum(len(scores) for scores in scored) == 12 * distinct_rows

    def test_standalone_run_trains_first(self, ablation, tmp_path):
        # An empty directory is trained first, then ablated like a trained run.
        cfg, run_dir = ablation[:2]
        out = str(tmp_path)
        cmd_ablate(dataclasses.replace(cfg, out_dir=out))
        assert os.path.exists(os.path.join(out, CHECKPOINT_FILE))
        for name in (ABLATION_JSON, ABLATION_CSV):
            assert open(os.path.join(out, name), "rb").read() == open(
                os.path.join(run_dir, name), "rb"
            ).read()

    def test_checkpoint_does_not_depend_on_captures(self, ablation):
        # Captures only read each step's updates: the stored adapters equal
        # those of a run capturing the six ablation sites and of a run
        # capturing the default tap alone.
        cfg, run_dir = ablation[:2]
        stored = load_checkpoint(os.path.join(run_dir, CHECKPOINT_FILE))
        six = tuple(
            CaptureSpec(f"block1.{p}", a) for p in ("q", "k", "v") for a in ("a", "b")
        )
        for captures in (six, (CaptureSpec("block1.q"),)):
            result = sft_train(
                init_model(cfg.model_config()),
                make_task(cfg.task, cfg.vocab_size, cfg.block_length),
                steps=cfg.train_steps,
                adamw_cfg=AdamWConfig(learning_rate=cfg.learning_rate),
                captures=captures,
                rng=np.random.default_rng(cfg.model_seed + 1),
                batch_size=cfg.batch_size,
            )
            assert sorted(result.model.lora) == sorted(stored.lora)
            for key, value in result.model.lora.items():
                assert value.tobytes() == stored.lora[key].tobytes(), key

    def test_missing_ablation_entry_is_an_artifact_error(self, ablation, tmp_path):
        # Metadata written before ablation sites were captured: only the
        # default tap's vector and basis.
        cfg, run_dir = ablation[:2]
        out = str(tmp_path)
        shutil.copy(os.path.join(run_dir, CHECKPOINT_FILE), out)
        vectors, bases = load_metadata(os.path.join(run_dir, METADATA_FILE))
        persist_metadata(
            [v for v in vectors if v.module_id == "block1.q.lora_b"],
            bases,
            os.path.join(out, METADATA_FILE),
        )
        with pytest.raises(ArtifactMismatchError, match="block1.q.lora_a"):
            cmd_ablate(cfg, out)
        assert not os.path.exists(os.path.join(out, ABLATION_JSON))

    def test_one_step_run_stores_no_adapter_a_summary(self, tmp_path):
        # After one step from B = 0 no adapter A has moved; its all-zero
        # summaries are not stored, so train succeeds and ablate refuses.
        cfg = small_config(str(tmp_path), **dict(ABLATION_SMALL, train_steps=1))
        cmd_train(cfg)
        vectors, _ = load_metadata(os.path.join(str(tmp_path), METADATA_FILE))
        assert [v.module_id for v in vectors if ".lora_a" in v.module_id] == []
        with pytest.raises(ArtifactMismatchError, match="block1.q.lora_a"):
            cmd_ablate(cfg)


class TestForwardCounts:
    """``generate`` runs ``forward`` only after a step that committed a slot.

    A default-config block (16 slots, budget 32, one commit per step) then
    takes 17 forwards instead of 32, in every fixed-budget decode that
    calibrate's and ablate's replays read. Twenty training steps keep the
    runs quick; the counts depend only on the schedule.
    """

    def test_calibrate(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(train_steps=20, eval_instances=10, out_dir=str(tmp_path))
        cmd_train(cfg)
        calls = count_forwards(monkeypatch)
        with contextlib.suppress(NoAdmissiblePairError):
            cmd_calibrate(cfg)
        payload = json.load(open(os.path.join(str(tmp_path), CALIBRATION_FILE)))
        assert payload["n_validation"] == 2
        assert len(calls) == 2 * 17

    def test_ablate(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(train_steps=20, eval_instances=2, out_dir=str(tmp_path))
        calls = count_forwards(monkeypatch)
        payload = cmd_ablate(cfg)
        assert payload["n_eval_instances"] == 2
        # One three-tap decode per prompt.
        assert len(calls) == 2 * 17
        assert payload["forward_passes"] == len(calls)

    def test_ablate_default_config_records_272_forwards(self, tmp_path):
        cfg = ExperimentConfig(train_steps=20, out_dir=str(tmp_path))
        payload = cmd_ablate(cfg)
        assert payload["n_eval_instances"] == 16
        assert payload["forward_passes"] == 16 * 17 == 272
        stored = json.load(open(os.path.join(str(tmp_path), ABLATION_JSON)))
        assert stored["forward_passes"] == 272

    def test_default_ablate_work_counts(self, tmp_path, monkeypatch):
        # Each of the 16 prompts has 17 distinct frames over its 32 steps.
        # Scoring is counted per cell and prompt, and the alignment step
        # (the softmax, then the step divergence after the first) per
        # distinct step; no ProbVector is built.
        cfg = ExperimentConfig(train_steps=20, out_dir=str(tmp_path))
        cmd_train(cfg)
        built = []
        real_init = linalg.ProbVector.__init__

        def counting_init(obj, *args, **kwargs):
            real_init(obj, *args, **kwargs)
            built.append(obj)

        monkeypatch.setattr(linalg.ProbVector, "__init__", counting_init)
        forwards = count_forwards(monkeypatch)
        scored, softmaxes = (
            count_forwards(monkeypatch, "editstop.harness", name)
            for name in ("score_alignment", "alignment_step")
        )
        kls = count_forwards(monkeypatch, "editstop.monitor", "matched_kl_rows")
        payload = cmd_ablate(cfg)
        assert len(built) == 0
        assert len(scored) == 12 * 16 == 192
        assert len(softmaxes) == 17 * 16 == 272
        assert len(kls) == 16 * 16 == 256
        assert len(forwards) == payload["forward_passes"] == 272

    def test_default_calibrate_work_counts(self, tmp_path, monkeypatch):
        # Each of the 2 validation prompts is decoded once under fixed: 17
        # forwards, one score_alignment for the one map, an alignment step
        # per distinct step and a step divergence per later one. No frame is
        # scored live and no monitor takes a step.
        cfg = ExperimentConfig(train_steps=20, eval_instances=10, out_dir=str(tmp_path))
        cmd_train(cfg)
        forwards = count_forwards(monkeypatch)
        framed = count_forwards(monkeypatch, name="score_alignment")
        observed = []
        take_row = StabilityMonitor.take_row
        monkeypatch.setattr(
            StabilityMonitor, "take_row",
            lambda m, *args: observed.append(args) or take_row(m, *args),
        )
        scored, softmaxes = (
            count_forwards(monkeypatch, "editstop.harness", name)
            for name in ("score_alignment", "alignment_step")
        )
        kls = count_forwards(monkeypatch, "editstop.monitor", "matched_kl_rows")
        with contextlib.suppress(NoAdmissiblePairError):
            cmd_calibrate(cfg)
        payload = json.load(open(os.path.join(str(tmp_path), CALIBRATION_FILE)))
        assert payload["n_validation"] == 2
        assert len(forwards) == 2 * 17
        assert len(scored) == 2
        assert len(softmaxes) == 2 * 17
        assert len(kls) == 2 * 16
        assert framed == [] and observed == []

    def test_infer_records_forward_passes(self, trained_run, tmp_path, monkeypatch):
        cfg, artifacts_dir = trained_run
        run_dir = str(tmp_path)
        cfg = dataclasses.replace(cfg, seeds=[1, 2])
        calls = count_forwards(monkeypatch)
        report = cmd_infer(cfg, artifacts_dir=artifacts_dir, run_dir=run_dir, policy_kind="fixed")
        # Budget 12 over 4-slot blocks: 4 committing steps, then one forward.
        per_seed = [s["forward_passes"] for s in report["per_seed"]]
        assert per_seed == [cfg.eval_instances * 5] * 2
        assert sum(per_seed) == len(calls)
        stored = json.load(open(os.path.join(run_dir, REPORT_FILE)))
        assert [s["forward_passes"] for s in stored["per_seed"]] == per_seed
        for name in report["per_seed"][0]["trace_files"]:
            payload = json.load(open(os.path.join(run_dir, name)))
            assert [b["forward_passes"] for b in payload["blocks"]] == [5]

    @pytest.mark.parametrize("policy", ["edit", "fixed"])
    def test_infer_runs_only_the_decodes_forwards(self, tmp_path, monkeypatch, policy):
        # Traced instances decode with record=True, and their pseudo-gradient
        # reads those forwards: infer runs no forward besides the decodes'.
        cfg = ExperimentConfig(
            train_steps=20, eval_instances=4, seeds=[1], trace_retention=3, out_dir=str(tmp_path)
        )
        cmd_train(cfg)
        decodes = count_forwards(monkeypatch)
        analyses = count_forwards(monkeypatch, "editstop.pseudograd")
        report = cmd_infer(cfg, policy_kind=policy)
        (seed,) = report["per_seed"]
        assert len(analyses) == 0
        assert len(decodes) == seed["forward_passes"] == 4 * (7 if policy == "edit" else 17)
        names = sorted(os.listdir(os.path.join(str(tmp_path), TRACES_DIR)))
        assert [n for n in names if n.endswith("_pseudograd.csv")] == [
            f"seed1_inst{i:03d}_block1_pseudograd.csv" for i in range(3)
        ]

    def test_edit_trace_counts_forwards_up_to_the_full_block(self, trained_run):
        # The 4-slot block is full after step 4; later steps reuse step 5's forward.
        _, run_dir = trained_run
        report = json.load(open(os.path.join(run_dir, REPORT_FILE)))
        (seed,) = report["per_seed"]
        total = 0
        for name in seed["trace_files"]:
            for block in json.load(open(os.path.join(run_dir, name)))["blocks"]:
                assert block["forward_passes"] == min(block["steps_used"], 5)
                total += block["forward_passes"]
        assert 0 < total <= seed["forward_passes"]


class TestReport:
    def test_merges_and_skips(self, trained_run, tmp_path):
        cfg, run_dir = trained_run
        empty = tmp_path / "empty"
        empty.mkdir()
        out = str(tmp_path / "merged")
        payload = cmd_report([run_dir, str(empty)], out)
        assert len(payload["runs"]) == 1
        assert payload["skipped"] == [str(empty)]
        csv_lines = open(os.path.join(out, CONSOLIDATED_CSV)).read().splitlines()
        assert len(csv_lines) == 1 + len(cfg.seeds)
        stored = json.load(open(os.path.join(out, CONSOLIDATED_JSON)))
        assert stored["runs"][0]["report"]["policy"] == "edit"
        assert len(stored["figure_data"]["divergence_csv"]) > 0


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        def run(d):
            cfg = small_config(d, train_steps=40, eval_instances=4, trace_retention=2)
            cmd_train(cfg)
            cmd_infer(cfg)
            digest = {}
            for base, _, files in os.walk(d):
                for f in files:
                    p = os.path.join(base, f)
                    digest[os.path.relpath(p, d)] = hashlib.sha256(
                        open(p, "rb").read()
                    ).hexdigest()
            return digest

        d = str(tmp_path / "run")
        first = run(d)
        assert first == run(d)
