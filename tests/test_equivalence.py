"""The array-shaped step loop against the per-token reference path.

``generate`` ranks commits with one stable argsort over a softmax array and
scores a frame with one array expression; ``helpers.reference_generate``
builds a ProbVector per position, sorts positions and scores one token
at a time. Tokens, commit order, each step's row argmax, stop steps and
reasons, rejected stops, freeze events and certificate verdicts must be
identical. Scores come from a batched dot product and row norm, whose
sums run in another order than the per-row ``dot``/``norm``, so floats
derived from them (divergences, margins) are compared with a tolerance:
relative for large values, and absolute at a few dozen ulps of one for
the small ones. A divergence and a top-2 margin are cancelling
differences of probabilities, so their error is absolute: ulp-level
changes in the probabilities move a 1e-8 divergence by about 1e-16, a
relative change of 1e-8.

The monitored step's array path (``score_alignment``, ``alignment_step``,
``StabilityMonitor.take_row``, ``MarginReport.from_row``) is also checked
bit for bit against the object path it replaced,
``helpers.object_path_monitor``, which scores the same rows.
"""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np
import pytest
from helpers import (
    final_commit,
    freeze_keys,
    object_path_monitor,
    reference_generate,
    same_bits,
    step_commits,
)

from editstop.alignment import SimilarityMode
from editstop.config import ExperimentConfig
from editstop.generate import PolicyConfig, denoise_block, generate, stop_fill
from editstop.harness import cmd_train, load_artifacts
from editstop.monitor import StopConfig
from editstop.tasks import make_task

RTOL = 1e-12
ATOL = 64 * np.finfo(np.float64).eps
PROMPTS = 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("equivalence"))
    cfg = ExperimentConfig(out_dir=run_dir)
    cmd_train(cfg)
    artifacts = load_artifacts(cfg, run_dir)
    task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
    rng = np.random.default_rng(2024)
    prompts = [task.sample(rng)[0] for _ in range(PROMPTS)]
    return cfg, artifacts, prompts


def verdicts(cert) -> dict:
    """Every certificate field except the margin report."""
    return {k: v for k, v in vars(cert).items() if k != "margin_report"}


def assert_same_run(result, ref_tokens, ref_blocks):
    assert result.tokens == ref_tokens
    assert len(result.blocks) == len(ref_blocks)
    for block, ref in zip(result.blocks, ref_blocks):
        trajectory = block.trajectory
        assert step_commits(trajectory) == [set(c) for c in ref.committed]
        assert [
            tuple(trajectory.choice[trajectory.row(step)].tolist())
            for step in range(1, trajectory.steps_used + 1)
        ] == ref.choices
        assert final_commit(block.trajectory) == ref.final_commit
        assert block.trajectory.tokens == ref.tokens
        assert block.stop_decision == ref.stop_decision
        assert block.rejected_stops == ref.rejected_stops
        assert freeze_keys(block.freeze_events) == ref.freeze_events
        if ref.monitor is None:
            assert block.monitor is None
        else:
            rows = block.monitor.divergence_trace
            ref_rows = ref.monitor.divergence_trace
            assert [(r.step, r.matched_support, r.counter, r.stopped) for r in rows] == [
                (r.step, r.matched_support, r.counter, r.stopped) for r in ref_rows
            ]
            np.testing.assert_allclose(
                [r.divergence for r in rows],
                [r.divergence for r in ref_rows],
                rtol=RTOL,
                atol=ATOL,
            )
        if ref.certificate is None:
            assert block.certificate is None
        else:
            cert, want = block.certificate, ref.certificate
            margin, want_margin = cert.margin_report, want.margin_report
            assert verdicts(cert) == verdicts(want)
            assert (margin.argmax_index, margin.step, margin.support_size) == (
                want_margin.argmax_index, want_margin.step, want_margin.support_size
            )
            np.testing.assert_allclose(margin.margin, want_margin.margin, rtol=RTOL, atol=ATOL)


def run_both(trained, kind, seq_len, mode=SimilarityMode.VECTOR_COSINE, **policy_kw):
    cfg, artifacts, prompts = trained
    reasoning_map = artifacts.vector if mode is SimilarityMode.VECTOR_COSINE else artifacts.basis
    policy = PolicyConfig(kind, stop=cfg.stop_config(), freeze=cfg.freeze_config(), **policy_kw)
    kwargs = dict(
        reasoning_map=reasoning_map if policy.monitored else None,
        mode=mode,
        freeze_basis=artifacts.basis if policy.freezing else None,
        alpha_hat=0.5,
    )
    results = []
    for prompt in prompts:
        result = generate(artifacts.model, prompt, seq_len, policy, budget=cfg.budget, **kwargs)
        ref_tokens, ref_blocks = reference_generate(
            artifacts.model, prompt, seq_len, policy, cfg.budget, **kwargs
        )
        assert_same_run(result, ref_tokens, ref_blocks)
        results.append(result)
    return results


@pytest.mark.parametrize("seq_len", [32, 64])
@pytest.mark.parametrize("kind", ["fixed", "edit", "edit_freeze"])
def test_policies_match_reference(trained, kind, seq_len):
    run_both(trained, kind, seq_len)


@pytest.mark.parametrize(
    "mode", [SimilarityMode.SUBSPACE_NORM, SimilarityMode.SUBSPACE_COSINE]
)
@pytest.mark.parametrize("kind", ["edit", "edit_freeze"])
def test_subspace_variants_match_reference(trained, kind, mode):
    run_both(trained, kind, 32, mode)


def test_strict_certificates_match_reference(trained):
    # Rejected stops go through StabilityMonitor.reject on both paths.
    run_both(trained, "edit", 32, strict_certificates=True)


def test_zero_threshold_matches_reference(trained):
    # delta = 0 never stops, so every step's divergence is compared.
    cfg, artifacts, prompts = trained
    trained_zero = (dataclasses.replace(cfg, delta=0.0), artifacts, prompts)
    run_both(trained_zero, "edit", 64)


def test_zero_threshold_freeze_matches_reference(trained):
    # Under the freezer too, steps 18-32 of a never-stopping 32-step run
    # repeat their predecessor and reuse its frame; the reference reruns
    # every step's forward and scores every frame.
    cfg, artifacts, prompts = trained
    trained_zero = (dataclasses.replace(cfg, delta=0.0), artifacts, prompts)
    for result in run_both(trained_zero, "edit_freeze", 32):
        (block,) = result.blocks
        row = block.trajectory.row
        assert block.freeze_events and block.steps_used == 32
        shared = [step for step in range(2, 33) if row(step) == row(step - 1)]
        assert shared == list(range(18, 33))


def test_tied_confidences_match_reference(trained):
    # A zero head gives every position the same uniform distribution, so
    # commits are decided by the lower-position tie-break alone.
    cfg, artifacts, prompts = trained
    base = dict(artifacts.model.base, head=np.zeros_like(artifacts.model.base["head"]))
    model = dataclasses.replace(artifacts.model, base=base)
    for kind in ("fixed", "edit_freeze"):
        run_both((cfg, dataclasses.replace(artifacts, model=model), prompts), kind, 32)


def trace_bits(monitor) -> list[tuple]:
    return [
        (r.step, repr(r.divergence), r.matched_support, r.counter, r.stopped)
        for r in monitor.divergence_trace
    ]


@pytest.mark.parametrize("seq_len", [32, 64])
@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
@pytest.mark.parametrize("tau_blk", [1.0, 0.01])
@pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)
def test_array_step_matches_the_object_path(trained, mode, tau_blk, strict, seq_len):
    # The live monitored step runs on arrays; ``object_path_monitor``
    # replays each block's scored rows through ``score_frame``, ``observe``
    # and ``MarginReport.from_distribution``. Every divergence, the last
    # row, the certificate and the refused stops keep their bits, and the
    # tokens are a fixed decode's from the same prefix, cut at the
    # oracle's stop. The configured rule refuses every strict stop; at
    # delta 0.001 and omega 1 strict runs also accept one after refusals.
    cfg, artifacts, prompts = trained
    model = artifacts.model
    reasoning_map = artifacts.vector if mode is SimilarityMode.VECTOR_COSINE else artifacts.basis
    rules = ((cfg.delta, cfg.omega), (0.001, 1))
    for (delta, omega), kind in product(rules, ("edit", "edit_freeze")):
        stop = StopConfig(delta=delta, omega=omega, tau_blk=tau_blk)
        policy = PolicyConfig(
            kind, stop=stop, freeze=cfg.freeze_config(), strict_certificates=strict
        )
        for prompt in prompts:
            result = generate(
                model, prompt, seq_len, policy, budget=cfg.budget, reasoning_map=reasoning_map,
                mode=mode, freeze_basis=artifacts.basis, alpha_hat=0.5,
            )
            for block in result.blocks:
                live = block.monitor
                oracle, cert = object_path_monitor(
                    block, reasoning_map, mode, policy, alpha_hat=0.5
                )
                assert trace_bits(live) == trace_bits(oracle)
                assert (live.counter, live.stopped_at, live.prev_step) == (
                    oracle.counter, oracle.stopped_at, oracle.prev_step
                )
                assert same_bits(live.prev_probs, oracle.prev_probs)
                assert list(live.prev_members) == list(oracle.prev_members)
                assert block.certificate == cert
                if cert is not None:
                    assert block.certificate.to_json_dict() == cert.to_json_dict()
                    assert repr(block.certificate.margin_report.margin) == repr(
                        cert.margin_report.margin
                    )
                refused = tuple(
                    r.step for r in oracle.divergence_trace
                    if r.stopped and r.step != oracle.stopped_at
                )
                assert block.rejected_stops == refused
                fixed = denoise_block(
                    model, block.trajectory.prefix, block.block_index, budget=cfg.budget
                ).trajectory
                if cert is None:
                    assert block.steps_used == cfg.budget
                    assert block.trajectory.tokens == fixed.tokens
                else:
                    assert block.steps_used == cert.stop_step
                    r = fixed.row(cert.stop_step)
                    filled = stop_fill(fixed.token_rows[r], fixed.choice[r], model.cfg.mask_id)
                    assert block.trajectory.tokens == tuple(filled.tolist())
