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
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from helpers import final_commit, freeze_keys, reference_generate, step_commits

from editstop.alignment import SimilarityMode
from editstop.config import ExperimentConfig
from editstop.generate import PolicyConfig, generate
from editstop.harness import cmd_train, load_artifacts
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
