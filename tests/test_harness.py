"""Tests for the experiment harness commands."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import shutil

import numpy as np
import pytest
from helpers import count_forwards, reference_ablation_cells, reference_utility_table

from editstop import harness
from editstop.capture import AdamWConfig
from editstop.config import ExperimentConfig
from editstop.errors import ArtifactMismatchError, NoAdmissiblePairError
from editstop.generate import generate
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
    SUBSPACE_SUFFIX,
    TRACES_DIR,
    cmd_ablate,
    cmd_calibrate,
    cmd_certify,
    cmd_infer,
    cmd_report,
    cmd_train,
    load_artifacts,
    replay_stop,
    simulate_stop,
)
from editstop.metaformat import load_metadata, persist_metadata
from editstop.model import init_model, load_checkpoint
from editstop.monitor import StopReason
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


class TestSimulateStop:
    def test_never_below_threshold(self):
        rows = [(i, 1.0) for i in range(1, 10)]
        assert simulate_stop(rows, 0.5, 3) is None

    def test_stops_at_run_completion(self):
        rows = [(1, 0.9), (2, 0.01), (3, 0.01), (4, 0.01), (5, 0.01)]
        assert simulate_stop(rows, 0.05, 3) == 4

    def test_reset_mid_run(self):
        rows = [(1, 0.0), (2, 0.0), (3, 0.9), (4, 0.0), (5, 0.0), (6, 0.0)]
        assert simulate_stop(rows, 0.05, 3) == 6

    def test_threshold_is_strict(self):
        rows = [(i, 0.05) for i in range(1, 8)]
        assert simulate_stop(rows, 0.05, 2) is None

    def test_nan_rows_skipped_not_reset(self):
        rows = [(1, 0.0), (2, float("nan")), (3, 0.0), (4, 0.0)]
        assert simulate_stop(rows, 0.05, 3) == 4

    def test_infinite_threshold(self):
        rows = [(i, 10.0**i) for i in range(1, 6)]
        assert simulate_stop(rows, math.inf, 4) == 4


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
        assert bases[0].source_module == "block1.q.lora_b" + SUBSPACE_SUFFIX
        assert all(v.d_out == cfg.d_model for v in vectors)
        assert bases[0].k == cfg.subspace_k

    def test_band_file_structure(self, trained_run):
        cfg, run_dir = trained_run
        payload = json.load(open(os.path.join(run_dir, BAND_FILE)))
        assert len(payload["rms_trace"]) == cfg.train_steps
        band = payload["band"]
        assert band["n_steps"] == cfg.train_steps
        assert band["sigma"] >= 0.0
        assert payload["final_loss"] < 1.0


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
                row.divergence for b in blocks for row in b.monitor_state.divergence_trace
            )
            assert seed_entry["max_step_divergence"] == largest > 0.0
            assert seed_entry["vacuity_ratio"] == largest / cfg.delta
        stored = json.load(open(os.path.join(out, REPORT_FILE)))
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
    """cmd_calibrate on its own trained run, recording every generate call.

    With budget 12 the spans 6, 8 and 10 stop before the budget and 12
    never stops; with budget 11 span 10 stops at the last step. The third
    element says whether some early stop must refill masked slots with
    tokens the full run did not commit.
    """
    model_seed, overrides, refills = request.param
    run_dir = str(tmp_path_factory.mktemp(f"calibrated{model_seed}"))
    cfg = small_config(run_dir, model_seed=model_seed, **overrides)
    cmd_train(cfg)
    probes: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "generate", recording(harness.generate, probes))
        with pytest.raises(NoAdmissiblePairError):
            cmd_calibrate(cfg)
    payload = json.load(open(os.path.join(run_dir, CALIBRATION_FILE)))
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
            for probe, live in zip(probes, results, strict=True):
                (block,) = live.blocks
                tokens, steps = replay_stop(probe.blocks[0], delta, omega, mask_id)
                assert (tokens, steps) == (block.trajectory.tokens, block.steps_used)
                early += block.steps_used < cfg.budget
                never += not block.stopped_early
                refilled += tokens != probe.blocks[0].trajectory.tokens
        # Both branches of the replay are exercised.
        assert early > 0 and never > 0
        if refills:
            assert refilled > 0

    def test_calibrate_decodes_each_prompt_once(self, calibrated):
        payload, probes = calibrated[2:4]
        assert len(probes) == payload["n_validation"]


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

    def test_missing_traces(self, trained_run, tmp_path):
        cfg, _ = trained_run
        with pytest.raises(ArtifactMismatchError, match="trace"):
            cmd_certify(cfg, run_dir=str(tmp_path))


ABLATION_SMALL = dict(train_steps=80, eval_instances=4, budget=8)


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """cmd_ablate on a trained run, recording its sft_train, generate and
    score_frame calls."""
    run_dir = str(tmp_path_factory.mktemp("ablate"))
    cfg = small_config(run_dir, **ABLATION_SMALL)
    cmd_train(cfg)
    trained: list = []
    runs: list = []
    scored: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "sft_train", recording(harness.sft_train, trained))
        mp.setattr(harness, "generate", recording(harness.generate, runs))
        mp.setattr(harness, "score_frame", recording(harness.score_frame, scored))
        payload = cmd_ablate(cfg)
    return cfg, run_dir, payload, trained, runs, scored


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

    def test_ablate_decodes_each_prompt_once_per_projection(self, ablation):
        payload, runs = ablation[2], ablation[4]
        assert len(runs) == 3 * payload["n_eval_instances"]

    def test_ablate_reads_the_trained_run(self, ablation):
        assert ablation[3] == []  # no sft_train call

    def test_scores_each_distinct_frame_once(self, ablation):
        runs, scored = ablation[4], ablation[5]
        distinct = 0
        total = 0
        for run in runs:
            prev = None
            for rec in run.blocks[0].trajectory.records:
                key = (rec.frame.visible.members, rec.frame.activations.tobytes())
                distinct += key != prev
                total += 1
                prev = key
        assert distinct < total
        assert len(scored) == 4 * distinct

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
        assert len(calls) == 3 * 2 * 17

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
