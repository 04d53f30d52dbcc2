"""Tests for block denoising and its stop and freezing policies."""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from itertools import product

import numpy as np
import pytest
from helpers import (
    assert_same_forward,
    batched_forward,
    count_forwards,
    final_commit,
    frame_row,
    reference_generate,
    same_bits,
)

from editstop.alignment import ActivationFrame, VisibleSet
from editstop.capture import AdamWConfig, EvolutionVector, SubspaceBasis, build_subspace
from editstop.config import ExperimentConfig
from editstop.errors import NonMonotoneVisibleSetError, ScheduleExhaustedError
from editstop.freeze import FreezeConfig, TokenFreezer
from editstop.generate import (
    DenoiseTrajectory,
    PolicyConfig,
    StepRecord,
    denoise_block,
    generate,
)
from editstop.harness import cmd_train, load_artifacts
from editstop.linalg import ProbVector
from editstop.model import (
    ModelConfig,
    TapSpec,
    forward,
    init_model,
    predictive_distributions,
)
from editstop.monitor import StabilityMonitor, StopConfig, StopDecision, StopReason
from editstop.tasks import make_task
from editstop.train import CaptureSpec, sft_train

TINY = ModelConfig(
    vocab_size=12,
    d_model=16,
    n_heads=2,
    n_blocks=2,
    lora_rank=3,
    block_length=4,
    max_blocks=4,
    seed=3,
)


def tiny_model():
    return init_model(TINY)


def synthetic_map(d: int = 16) -> EvolutionVector:
    rng = np.random.default_rng(11)
    return EvolutionVector(u=np.abs(rng.normal(size=d)), module_id="m", rank=3)


def synthetic_basis(d: int = 16, k: int = 2) -> SubspaceBasis:
    rng = np.random.default_rng(12)
    return build_subspace(rng.normal(size=(d, 5)), k, "m")


def prompt_block(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, TINY.vocab_size - 1, size=TINY.block_length)


class TestPolicyConfig:
    def test_kinds(self):
        assert PolicyConfig("fixed").monitored is False
        assert PolicyConfig("edit").monitored is True
        assert PolicyConfig("edit_freeze").freezing is True
        with pytest.raises(ValueError):
            PolicyConfig("greedy")


class TestSchedule:
    def test_one_per_step_growth(self):
        # Budget equal to the block length commits exactly one token per step.
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=4)
        sizes = [len(r.frame.visible) for r in block.trajectory.records]
        assert sizes == [1, 2, 3, 4]
        assert all(len(r.committed) == 1 for r in block.trajectory.records)

    def test_quota_rounds_up(self):
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=3)
        counts = [len(r.committed) for r in block.trajectory.records]
        assert counts == [2, 2, 0]
        assert len(block.trajectory.records) == 3

    def test_fixed_policy_runs_whole_budget(self):
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=9)
        assert block.steps_used == 9
        assert block.stop_decision is None
        assert (block.stopped_early, block.rejected_stops) == (False, ())
        assert block.certificate is None
        # Visible set is full well before the budget ends.
        assert len(block.trajectory.records[3].frame.visible) == TINY.block_length

    def test_every_slot_filled_by_the_last_step(self):
        # A quota of ceil(L / budget) per step fills the block by step
        # ``budget``, so a decode that never stops ends with no slot still
        # holding the mask id, and its own commits cover every slot.
        never_stop = PolicyConfig("edit", stop=StopConfig(delta=0.0))
        cells = 0
        for L in range(2, 9):
            cfg = dataclasses.replace(TINY, block_length=L)
            model = init_model(cfg)
            prompt = np.random.default_rng(L).integers(0, cfg.vocab_size - 1, size=L)
            for budget, policy in product(range(1, L + 3), (PolicyConfig("fixed"), never_stop)):
                block = denoise_block(
                    model, prompt, 1, budget=budget, policy=policy, reasoning_map=synthetic_map()
                )
                last = block.trajectory.records[-1]
                assert block.steps_used == budget, (L, budget, policy.kind)
                assert cfg.mask_id not in last.tokens, (L, budget, policy.kind)
                assert len(last.frame.visible) == L
                assert final_commit(block.trajectory) == ()
                cells += 1
        assert cells == 2 * sum(L + 2 for L in range(2, 9))

    def test_committed_tokens_never_change(self):
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=4)
        final = block.trajectory.tokens
        lo = TINY.block_length
        for rec in block.trajectory.records:
            for pos in rec.frame.visible.members:
                assert rec.tokens[pos - lo] == final[pos - lo]

    def test_shrinking_visible_set_rejected(self):
        # A trajectory whose visible set drops a member is refused with the
        # error the monitor raises for the same fault.
        def trajectory(*visible):
            visible = np.array(visible, dtype=bool)
            rows = np.zeros(visible.shape, dtype=np.int64)
            taps = (tuple(np.ones((n, 3)) for n in visible.sum(axis=1)),)
            return DenoiseTrajectory(
                1, np.zeros(2, dtype=np.int64), len(visible), rows, rows, visible,
                np.array([0, 1]), taps,
            )

        trajectory((True, False), (True, True), (True, True))
        with pytest.raises(NonMonotoneVisibleSetError, match="shrank at step 3 of block 1"):
            trajectory((True, False), (True, True), (False, True))

    def test_prefix_is_the_trajectorys_own_copy(self, monkeypatch):
        # Writing the caller's prefix or the decode's token buffer after the
        # decode leaves the trajectory's prefix as it was decoded.
        calls = count_forwards(monkeypatch)
        prefix = prompt_block()
        want = prefix.tolist()
        trajectory = denoise_block(tiny_model(), prefix, 1, budget=4).trajectory
        (_, buffer), _ = calls[0]  # the forward reads a view of the token buffer
        prefix[:] = 0
        buffer[...] = 0
        assert trajectory.prefix.tolist() == want

    def test_mask_token_never_emitted(self):
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=2)
        assert TINY.mask_id not in block.trajectory.tokens

    def test_validation(self):
        model = tiny_model()
        with pytest.raises(ScheduleExhaustedError):
            denoise_block(model, prompt_block(), 1, budget=0)
        with pytest.raises(ValueError):
            denoise_block(model, prompt_block()[:3], 1, budget=4)
        with pytest.raises(ValueError):
            denoise_block(model, prompt_block(), 1, budget=4, policy=PolicyConfig("edit"))
        with pytest.raises(ValueError):
            denoise_block(
                model,
                prompt_block(),
                1,
                budget=4,
                policy=PolicyConfig("edit_freeze"),
                reasoning_map=synthetic_map(),
            )


class TestCommitRanking:
    """Open slots are ranked by one stable sort on their row's largest
    probability, so tied slots commit lowest index first, and a full block
    ranks nothing."""

    def test_full_block_reuses_step_17(self):
        cfg = ModelConfig()
        prompt = np.random.default_rng(8).integers(0, cfg.vocab_size - 1, size=cfg.block_length)
        block = denoise_block(init_model(cfg), prompt, 1, budget=32)
        records = block.trajectory.records
        assert block.forward_passes == 17
        assert [len(r.committed) for r in records] == [1] * 16 + [0] * 16
        assert records[16].frame is not records[15].frame
        assert all(r.frame is records[16].frame for r in records[17:])
        assert all((r.tokens, r.choice) == (records[16].tokens, records[16].choice)
                   for r in records[17:])

    def test_ties_commit_lowest_index_first_at_quota_4(self, monkeypatch):
        # Every forward reads the same confidences, three values over 16
        # slots, so each step's four commits cut through a tie and the
        # stable order alone decides which of the tied slots go first.
        cfg = ModelConfig()
        L, V = cfg.block_length, cfg.vocab_size
        confidence = np.array([0.3, 0.6, 0.9, 0.6, 0.3, 0.6, 0.6, 0.3,
                               0.9, 0.6, 0.3, 0.3, 0.6, 0.9, 0.3, 0.3])
        probs = np.empty((L, V - 1))
        probs[:] = ((1.0 - confidence) / (V - 2))[:, None]
        probs[np.arange(L), np.arange(L) % (V - 1)] = confidence
        gen = importlib.import_module("editstop.generate")
        monkeypatch.setattr(gen, "predictive_distributions", lambda logits, vocab: probs.copy())
        prompt = np.random.default_rng(9).integers(0, V - 1, size=L)
        block = denoise_block(init_model(cfg), prompt, 1, budget=4)
        order = sorted(range(L), key=lambda i: (-confidence[i], i))
        want = [tuple(L + i for i in order[k : k + 4]) for k in range(0, L, 4)]
        assert [r.committed for r in block.trajectory.records] == want
        # The three 0.9 slots, then the lowest of the six tied at 0.6.
        assert want[0] == (L + 2, L + 8, L + 13, L + 1)
        assert block.trajectory.tokens == tuple(i % (V - 1) for i in range(L))


class TestStopBehavior:
    # At init every LoRA-branch tap is exactly zero, so alignment scores
    # are all pinned to the mode minimum and the alignment distribution
    # is uniform on the visible set. Matched-support divergences are then
    # exactly zero and the counter rises from the first comparison.

    def test_run_length_stop_and_final_commit(self):
        policy = PolicyConfig("edit", stop=StopConfig(delta=0.05, omega=3))
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=16, policy=policy,
            reasoning_map=synthetic_map(),
        )
        assert block.stop_decision.reason is StopReason.RUN_LENGTH_MET
        assert block.steps_used == 4
        committed_by_schedule = {
            p for r in block.trajectory.records for p in r.committed
        }
        assert len(committed_by_schedule) + len(final_commit(block.trajectory)) == 4
        assert TINY.mask_id not in block.trajectory.tokens

    def test_infinite_delta_stops_at_omega_plus_one(self):
        policy = PolicyConfig("edit", stop=StopConfig(delta=float("inf"), omega=6))
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=32, policy=policy,
            reasoning_map=synthetic_map(),
        )
        assert block.steps_used == 7
        assert block.stop_decision.reason is StopReason.RUN_LENGTH_MET

    def test_zero_delta_reproduces_fixed_run(self):
        model = tiny_model()
        fixed = denoise_block(model, prompt_block(), 1, budget=8)
        edit = denoise_block(
            model, prompt_block(), 1, budget=8,
            policy=PolicyConfig("edit", stop=StopConfig(delta=0.0)),
            reasoning_map=synthetic_map(),
        )
        assert edit.trajectory.tokens == fixed.trajectory.tokens
        assert edit.steps_used == 8
        assert edit.stop_decision.reason is StopReason.BUDGET_EXHAUSTED

    def test_stopping_step_carries_certificate(self):
        policy = PolicyConfig("edit", stop=StopConfig(delta=float("inf"), omega=2))
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=8, policy=policy,
            reasoning_map=synthetic_map(), alpha_hat=0.4,
        )
        cert = block.certificate
        assert cert is not None
        assert cert.stop_step == block.steps_used
        assert cert.tail_budget is not None
        assert block.rejected_stops == ()

    def test_strict_mode_rejects_uncertifiable_stops(self):
        # delta = inf makes the travel budget infinite, so no margin can
        # certify the stop and strict mode must run out the budget.
        policy = PolicyConfig(
            "edit", stop=StopConfig(delta=float("inf"), omega=2),
            strict_certificates=True,
        )
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=8, policy=policy,
            reasoning_map=synthetic_map(),
        )
        assert block.steps_used == 8
        assert block.stop_decision.reason is StopReason.BUDGET_EXHAUSTED
        assert block.rejected_stops == tuple(range(3, 9))
        assert block.certificate is None

    def test_trace_recorded_for_certification(self):
        policy = PolicyConfig("edit", stop=StopConfig(delta=float("inf"), omega=4))
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=16, policy=policy,
            reasoning_map=synthetic_map(),
        )
        trace = block.monitor.divergence_trace
        assert [row.step for row in trace] == [2, 3, 4, 5]
        assert trace[-1].stopped is True


class TestFreezePolicy:
    def test_zero_branch_freezes_everything(self):
        # Constant (zero) branch activations freeze every slot at the
        # same step, masked or not.
        policy = PolicyConfig(
            "edit_freeze",
            stop=StopConfig(delta=0.0),
            freeze=FreezeConfig(delta_tok=0.05, omega_tok=2, k=2),
        )
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=16, policy=policy,
            reasoning_map=synthetic_map(), freeze_basis=synthetic_basis(),
        )
        events = block.freeze_events
        assert len(events) == TINY.block_length
        freeze_step = events[0].frozen_at
        assert {st.frozen_at for st in events} == {freeze_step}

    def test_commits_only_by_quota_and_stop_fill(self):
        # Every slot freezes at step 3, while slot 6 is still masked. Each
        # step still commits its quota of one slot, as edit does: without a
        # stop slot 6 waits for step 4, and a stop at step 3 fills it.
        model, prompt = tiny_model(), prompt_block()
        freeze = FreezeConfig(delta_tok=0.05, omega_tok=2, k=2)
        cases = [
            (StopConfig(delta=0.0), [(4,), (7,), (5,), (6,)] + [()] * 12, ()),
            (StopConfig(delta=1.0, omega=2), [(4,), (7,), (5,)], (6,)),
        ]
        for stop, commits, fill in cases:
            edit, frozen = (
                denoise_block(
                    model, prompt, 1, budget=16,
                    policy=PolicyConfig(kind, stop=stop, freeze=freeze),
                    reasoning_map=synthetic_map(), freeze_basis=synthetic_basis(),
                )
                for kind in ("edit", "edit_freeze")
            )
            assert {st.frozen_at for st in frozen.freeze_events} == {3}
            for block in (edit, frozen):
                assert [r.committed for r in block.trajectory.records] == commits
                assert final_commit(block.trajectory) == fill
            assert frozen.trajectory.tokens == edit.trajectory.tokens

    def test_frozen_activations_pinned_in_frames(self):
        policy = PolicyConfig(
            "edit_freeze",
            stop=StopConfig(delta=0.0),
            freeze=FreezeConfig(omega_tok=2, k=2),
        )
        block = denoise_block(
            tiny_model(), prompt_block(), 1, budget=12, policy=policy,
            reasoning_map=synthetic_map(), freeze_basis=synthetic_basis(),
        )
        freeze_step = block.freeze_events[0].frozen_at
        later = [r for r in block.trajectory.records if r.step > freeze_step]
        token = block.freeze_events[0].token
        pinned = frame_row(later[0].frame, token)
        for rec in later[1:]:
            np.testing.assert_array_equal(frame_row(rec.frame, token), pinned)


class TestGenerate:
    def test_multi_block_fixed_budget(self):
        result = generate(tiny_model(), prompt_block(), 16, budget=6)
        assert result.block_steps == (6, 6, 6)
        assert result.avg_steps == 6.0
        assert len(result.tokens) == 16

    def test_blocks_condition_on_earlier_output(self):
        model = tiny_model()
        result = generate(model, prompt_block(), 12, budget=4)
        # Re-denoising the last block from the recorded prefix reproduces it.
        redo = denoise_block(model, np.array(result.tokens[:8]), 2, budget=4)
        assert redo.trajectory.tokens == result.tokens[8:]

    def test_deterministic(self):
        runs = [
            generate(
                tiny_model(), prompt_block(), 12,
                PolicyConfig("edit", stop=StopConfig(delta=float("inf"))),
                budget=8, reasoning_map=synthetic_map(),
            )
            for _ in range(2)
        ]
        assert runs[0].tokens == runs[1].tokens
        assert runs[0].block_steps == runs[1].block_steps

    def test_validation(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            generate(model, prompt_block(), 15, budget=4)
        with pytest.raises(ValueError):
            generate(model, prompt_block()[:2], 16, budget=4)
        with pytest.raises(ValueError):
            generate(model, prompt_block(), 4, budget=4)
        with pytest.raises(ValueError):
            generate(model, prompt_block(), 24, budget=4)


class TestTrainedEndToEnd:
    def test_edit_stops_early_and_matches_fixed_output(self):
        model = init_model(TINY)
        task = make_task("copy_reverse", TINY.vocab_size, TINY.block_length)
        result = sft_train(
            model, task, steps=150,
            adamw_cfg=AdamWConfig(learning_rate=0.01),
            captures=(CaptureSpec(model.default_tap().module),),
            rng=np.random.default_rng(1),
            batch_size=16,
        )
        emap = result.evolution[next(iter(result.evolution))]
        rng = np.random.default_rng(5)
        prompt, _ = task.sample(rng)
        fixed = generate(result.model, prompt, 8, PolicyConfig("fixed"), budget=16)
        edit = generate(
            result.model, prompt, 8, PolicyConfig("edit"), budget=16,
            reasoning_map=emap,
        )
        assert edit.avg_steps < fixed.avg_steps
        assert edit.blocks[0].stopped_early
        assert edit.tokens == fixed.tokens


@pytest.fixture(scope="module")
def default_block(tmp_path_factory):
    """A default-config model and prompt: 16-slot blocks, budget 32.

    Twenty training steps keep the fixture quick; the forward counts below
    depend only on which steps commit a slot.
    """
    run_dir = str(tmp_path_factory.mktemp("default"))
    cfg = ExperimentConfig(train_steps=20, out_dir=run_dir)
    cmd_train(cfg)
    artifacts = load_artifacts(cfg, run_dir)
    task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
    prompt, _ = task.sample(np.random.default_rng(5))
    return cfg, artifacts, prompt


class TestForwardReuse:
    """A step runs ``forward`` only when the block's tokens changed since
    the last one: at step 1 and after every step that committed a slot.
    ``forward_passes``, the trajectory's row count, counts the calls made."""

    def run_block(self, default_block, monkeypatch, kind, budget=32, delta=None):
        cfg, artifacts, prompt = default_block
        if delta is not None:
            cfg = dataclasses.replace(cfg, delta=delta)
        calls = count_forwards(monkeypatch)
        block = denoise_block(
            artifacts.model, prompt, 1, budget=budget, policy=cfg.policy_config(kind),
            reasoning_map=artifacts.vector, freeze_basis=artifacts.basis,
        )
        assert block.forward_passes == len(calls)
        return block

    @pytest.mark.parametrize("budget, forwards", [(32, 17), (16, 16), (12, 9)])
    def test_fixed_budget(self, default_block, monkeypatch, budget, forwards):
        # One slot per step fills the block at step 16 (two per step at
        # budget 12: step 8); one more forward reads the full block.
        block = self.run_block(default_block, monkeypatch, "fixed", budget)
        assert block.steps_used == budget
        assert block.forward_passes == forwards

    def test_edit_stops_at_step_7(self, default_block, monkeypatch):
        block = self.run_block(default_block, monkeypatch, "edit")
        assert block.stopped_early
        assert block.steps_used == block.forward_passes == 7

    def test_zero_threshold_edit_runs_the_fixed_count(self, default_block, monkeypatch):
        block = self.run_block(default_block, monkeypatch, "edit", delta=0.0)
        assert block.steps_used == 32
        assert block.forward_passes == 17

    def test_freeze_commits_count(self, default_block, monkeypatch):
        # The freezer commits nothing, so edit_freeze commits one slot per
        # step as edit does and runs the same 17 forwards.
        block = self.run_block(default_block, monkeypatch, "edit_freeze", delta=0.0)
        edit = self.run_block(default_block, monkeypatch, "edit", delta=0.0)
        assert block.freeze_events
        assert [r.committed for r in block.trajectory.records] == [
            r.committed for r in edit.trajectory.records
        ]
        assert block.steps_used == 32
        assert block.forward_passes == 17

    @pytest.mark.parametrize("kind", ["fixed", "edit"])
    def test_forward_computes_only_the_block_rows(self, default_block, monkeypatch, kind):
        # Every forward starts its output at the block being denoised, so
        # the last layer never computes the prefix rows nobody reads.
        cfg, artifacts, prompt = default_block
        calls = count_forwards(monkeypatch)
        result = generate(
            artifacts.model, prompt, 64, policy=cfg.policy_config(kind),
            reasoning_map=artifacts.vector,
        )
        L = cfg.block_length
        assert [b.block_index for b in result.blocks] == [1, 2, 3]
        assert len(calls) == sum(b.forward_passes for b in result.blocks)
        for (_, tokens), kwargs in calls:
            assert kwargs["first_row"] == tokens.shape[1] - L

    @pytest.mark.parametrize("kind", ["fixed", "edit", "edit_freeze"])
    def test_record_keeps_one_forward_per_step(self, default_block, monkeypatch, kind):
        # Each step's forward rides on the trajectory, one per row, so the
        # steps that reuse a forward share it; recording changes no
        # record, token or count.
        cfg, artifacts, prompt = default_block
        kwargs = dict(
            policy=cfg.policy_config(kind), reasoning_map=artifacts.vector,
            freeze_basis=artifacts.basis,
        )
        plain = denoise_block(artifacts.model, prompt, 1, **kwargs)
        calls = count_forwards(monkeypatch)
        block = denoise_block(artifacts.model, prompt, 1, record=True, **kwargs)
        forwards = block.trajectory.forwards
        assert [kw["record"] for _, kw in calls] == [True] * block.forward_passes
        assert len(forwards) == len({id(f) for f in forwards}) == block.forward_passes
        assert [f.cache is not None for f in forwards] == [True] * len(forwards)
        for got, want in zip(block.trajectory.records, plain.trajectory.records, strict=True):
            assert (got.step, got.committed, got.tokens, got.choice) == (
                want.step, want.committed, want.tokens, want.choice
            )
            assert np.array_equal(got.frame.activations, want.frame.activations)
        assert block.trajectory.tokens == plain.trajectory.tokens
        assert block.forward_passes == plain.forward_passes

    @pytest.mark.parametrize("seq_len", [32, 64])
    def test_record_changes_no_output(self, default_block, seq_len):
        # The recorded forward keeps its adapter inputs on the side, so a
        # decode's bits do not depend on whether it is traced.
        cfg, artifacts, prompt = default_block
        kwargs = dict(policy=cfg.policy_config("edit"), reasoning_map=artifacts.vector)
        plain = generate(artifacts.model, prompt, seq_len, **kwargs)
        recorded = generate(artifacts.model, prompt, seq_len, record=True, **kwargs)
        assert recorded.tokens == plain.tokens
        for got, want in zip(recorded.blocks, plain.blocks, strict=True):
            assert got.trajectory.forwards and not want.trajectory.forwards
            for a, b in zip(got.trajectory.records, want.trajectory.records, strict=True):
                assert (a.committed, a.tokens, a.choice) == (b.committed, b.tokens, b.choice)
                assert a.frame.activations.tobytes() == b.frame.activations.tobytes()
            divergences = [
                np.array([r.divergence for r in block.monitor.divergence_trace]).tobytes()
                for block in (got, want)
            ]
            assert divergences[0] == divergences[1]

    def test_reused_steps_equal_a_fresh_forward(self, default_block):
        cfg, artifacts, prompt = default_block
        model = artifacts.model
        policy = dataclasses.replace(cfg, delta=0.0).policy_config("edit")
        block = denoise_block(model, prompt, 1, policy=policy, reasoning_map=artifacts.vector)
        L = cfg.block_length
        lo = L  # block 1 follows the one-block prompt
        tap = model.default_tap()
        masked = np.full(L, model.cfg.mask_id)
        before = [masked] + [np.asarray(r.tokens) for r in block.trajectory.records[:-1]]
        for rec, block_tokens in zip(block.trajectory.records, before):
            fresh = forward(model, np.concatenate([prompt, block_tokens])[None, :], taps=(tap,))
            probs = predictive_distributions(fresh.logits[0, lo : lo + L], model.cfg.vocab_size)
            assert rec.choice == tuple(probs.argmax(axis=1).tolist())
            rows = [s - lo for s in rec.frame.visible.members]
            assert rec.frame.activations.tobytes() == fresh.taps[tap][0, lo + np.array(rows)].tobytes()


class TestDecodeForwardBits:
    """Every forward of a decode runs on the ``forward_weights`` that
    ``generate`` builds once. The decode must keep every bit of one whose
    forwards build their own weights, and of ``helpers.batched_forward``:
    logits, taps, every recorded array (``pseudograd`` reads them), tokens,
    frames and alignments."""

    TAPS = (TapSpec("block1.q"), TapSpec("block0.q"), TapSpec("block0.v"))

    @pytest.mark.parametrize("kind", ["fixed", "edit"])
    @pytest.mark.parametrize("seq_len", [32, 48, 64])
    def test_shared_weights_keep_every_bit(self, default_block, monkeypatch, kind, seq_len):
        cfg, artifacts, prompt = default_block
        model = artifacts.model
        policy = dataclasses.replace(cfg, delta=0.0).policy_config(kind)
        kwargs = dict(reasoning_map=artifacts.vector, taps=self.TAPS, record=True)
        got = generate(model, prompt, seq_len, policy, **kwargs)
        gen_module = importlib.import_module("editstop.generate")
        real = gen_module.forward

        def own_weights(*args, weights=None, **kw):
            return real(*args, **kw)

        monkeypatch.setattr(gen_module, "forward", own_weights)
        want = generate(model, prompt, seq_len, policy, **kwargs)
        assert (got.tokens, got.block_steps) == (want.tokens, want.block_steps)
        for gb, wb in zip(got.blocks, want.blocks, strict=True):
            lo = gb.block_index * cfg.block_length
            for g, w in zip(gb.trajectory.records, wb.trajectory.records, strict=True):
                assert (g.committed, g.tokens, g.choice) == (w.committed, w.tokens, w.choice)
                for gf, wf in zip(g.frames, w.frames, strict=True):
                    assert gf.visible == wf.visible
                    assert same_bits(gf.activations, wf.activations)
                if kind == "edit":
                    assert same_bits(g.alignment.dist.probs, w.alignment.dist.probs)
            assert len(gb.trajectory.forwards) == len(wb.trajectory.forwards)
            for g, w in zip(gb.trajectory.forwards, wb.trajectory.forwards):
                assert_same_forward(g, w)
            # Row r's step reads the tokens of row r - 1; its recorded
            # forward keeps them, though the decode commits on into its own
            # array.
            mask = np.full(cfg.block_length, cfg.vocab_size - 1)
            before = [mask, *gb.trajectory.token_rows[:-1]]
            for g, block_tokens in zip(gb.trajectory.forwards, before, strict=True):
                tokens = np.concatenate([np.asarray(got.tokens[:lo]), block_tokens])[None, :]
                assert same_bits(g.cache["tokens"], tokens)
                batched = batched_forward(model, tokens, self.TAPS, record=True, first_row=lo)
                assert_same_forward(g, batched)


class TestMultiTap:
    """A decode that records several taps off each step's one forward: each
    tap's frames equal a single-tap decode of that tap, bit for bit."""

    QKV = tuple(TapSpec(f"block1.{proj}") for proj in ("q", "k", "v"))

    @pytest.mark.parametrize(
        "kind, order, seq_len",
        [("fixed", (0, 1, 2), 64), ("edit", (0, 1, 2), 32), ("edit", (1, 0, 2), 32),
         ("edit", (2, 1, 0), 32)],
    )
    def test_each_tap_matches_a_single_tap_decode(self, default_block, kind, order, seq_len):
        cfg, artifacts, prompt = default_block
        taps = tuple(self.QKV[i] for i in order)

        def decode(taps):
            return generate(
                artifacts.model, prompt, seq_len, cfg.policy_config(kind),
                reasoning_map=artifacts.vector, taps=taps,
            )

        multi = decode(taps)
        for which, tap in enumerate(taps):
            single = decode((tap,))
            for mb, sb in zip(multi.blocks, single.blocks, strict=True):
                assert mb.forward_passes == sb.forward_passes
                m_recs, s_recs = mb.trajectory.records, sb.trajectory.records
                if which == 0:
                    # The first tap is the scored one: the whole run agrees.
                    assert len(m_recs) == len(s_recs)
                    if kind == "edit":
                        trace = mb.monitor.divergence_trace
                        assert trace == sb.monitor.divergence_trace
                    assert mb.stop_decision == sb.stop_decision
                # Unscored taps do not steer a one-block decode: its steps
                # agree up to the shorter run's stop.
                for m, s in zip(m_recs, s_recs):
                    assert len(s.frames) == 1
                    frame = m.frames[which]
                    assert (frame.step, frame.visible) == (s.frame.step, s.frame.visible)
                    assert np.array_equal(frame.activations, s.frame.activations)
                    assert (m.tokens, m.choice, m.committed) == (s.tokens, s.choice, s.committed)
            if which == 0:
                assert multi.tokens == single.tokens

    def test_frames_share_the_step_and_repeats_share_the_frames(self, default_block):
        cfg, artifacts, prompt = default_block
        (block,) = generate(
            artifacts.model, prompt, 32, cfg.policy_config("fixed"), taps=self.QKV
        ).blocks
        records = block.trajectory.records
        n_repeats = 0
        for prev, rec in zip(records, records[1:]):
            assert len(rec.frames) == 3
            assert all(f.visible is rec.frame.visible for f in rec.frames[1:])
            repeat = rec.step > block.forward_passes
            n_repeats += repeat
            assert all((a is b) == repeat for a, b in zip(rec.frames, prev.frames))
        assert n_repeats == 15

    def test_duplicate_or_empty_taps_rejected(self, default_block):
        cfg, artifacts, prompt = default_block
        for taps in ((self.QKV[1], self.QKV[0], self.QKV[1]), ()):
            with pytest.raises(ValueError, match="taps"):
                generate(artifacts.model, prompt, 32, taps=taps)


class TestSkippedStepWork:
    """Frames are scored only for a monitor, and a step that repeats its
    predecessor reuses the predecessor's record instead of rebuilding it."""

    def test_fixed_scores_nothing(self, default_block, monkeypatch):
        cfg, artifacts, prompt = default_block
        scored = count_forwards(monkeypatch, name="score_frame")
        policy = cfg.policy_config("fixed")
        result = generate(artifacts.model, prompt, 64, policy, reasoning_map=artifacts.vector)
        assert scored == []
        records = [r for b in result.blocks for r in b.trajectory.records]
        assert len(records) == 3 * cfg.budget
        assert all(r.alignment is None for r in records)
        assert result.tokens == generate(artifacts.model, prompt, 64, policy).tokens

    def test_repeated_steps_reuse_the_previous_distribution(self, default_block, monkeypatch):
        # At budget 32 one slot commits per step, so the block is full after
        # step 16, step 17 reads its last forward, and steps 18-32 repeat.
        cfg, artifacts, prompt = default_block
        policy = dataclasses.replace(cfg, delta=0.0).policy_config("edit")
        scored = count_forwards(monkeypatch, name="score_frame")
        result = generate(
            artifacts.model, prompt, 64, policy, budget=32, reasoning_map=artifacts.vector
        )
        ref_tokens, ref_blocks = reference_generate(
            artifacts.model, prompt, 64, policy, 32, reasoning_map=artifacts.vector
        )
        assert result.tokens == ref_tokens
        n_repeats = 0
        for block, ref in zip(result.blocks, ref_blocks, strict=True):
            records = block.trajectory.records
            repeats = [rec.step for rec in records if rec.step > block.forward_passes]
            assert repeats == list(range(18, 33))
            n_repeats += len(repeats)
            for prev, rec in zip(records, records[1:]):
                if rec.step in repeats:
                    assert rec.alignment.dist is prev.alignment.dist
                    assert rec.alignment.step == rec.step
                    assert (rec.tokens, rec.choice) == (prev.tokens, prev.choice)
                else:
                    assert rec.alignment.dist is not prev.alignment.dist
            rows = block.monitor.divergence_trace
            ref_rows = ref.monitor.divergence_trace
            assert [(r.step, r.matched_support, r.counter) for r in rows] == [
                (r.step, r.matched_support, r.counter) for r in ref_rows
            ]
            np.testing.assert_allclose(
                [r.divergence for r in rows], [r.divergence for r in ref_rows],
                rtol=1e-12, atol=64 * np.finfo(np.float64).eps,
            )
            assert all(r.divergence == 0.0 for r in rows if r.step in repeats)
        assert len(scored) == 3 * 32 - n_repeats

    def test_freezer_runs_every_step(self, default_block, monkeypatch):
        # The freezer advances on every step, also on the steps 18-32 that
        # repeat their predecessor; those still reuse the predecessor's frame.
        cfg, artifacts, prompt = default_block
        processed = []
        real = TokenFreezer.process

        def process(self, frame):
            processed.append(frame.step)
            return real(self, frame)

        monkeypatch.setattr(TokenFreezer, "process", process)
        policy = dataclasses.replace(cfg, delta=0.0).policy_config("edit_freeze")
        block = denoise_block(
            artifacts.model, prompt, 1, budget=32, policy=policy,
            reasoning_map=artifacts.vector, freeze_basis=artifacts.basis,
        )
        assert block.steps_used == 32
        assert processed == list(range(1, 33))
        records = block.trajectory.records
        shared = [b.step for a, b in zip(records, records[1:]) if a.frame is b.frame]
        assert shared == list(range(18, 33))

    def test_repeats_previous(self, default_block):
        # A step repeats its predecessor when that one committed nothing:
        # each step after the last forward reads its row, and no other does.
        cfg, artifacts, prompt = default_block
        for budget, forwards in ((32, 17), (12, 9), (8, 8)):
            block = denoise_block(artifacts.model, prompt, 1, budget=budget)
            trajectory = block.trajectory
            assert block.forward_passes == forwards
            rows = [trajectory.row(step) for step in range(1, budget + 1)]
            assert rows == list(range(forwards)) + [forwards - 1] * (budget - forwards)
            committed = [len(r.committed) for r in trajectory.records]
            assert [n == 0 for n in [1, *committed[:-1]]] == [
                step > forwards for step in range(1, budget + 1)
            ]


class TestStepObjects:
    """A decode step builds only the objects a traced binding takes: the
    frame handed to the freezer and to ``score_frame``, and the
    ``ProbVector`` built inside the latter. A ``fixed`` decode and a
    repeated step build none, and no step builds a ``StepRecord``."""

    @staticmethod
    def count_built(monkeypatch) -> Counter:
        built: Counter = Counter()
        for cls in (StepRecord, ActivationFrame, VisibleSet, ProbVector):

            def init(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        return built

    @pytest.mark.parametrize("kind", ["fixed", "edit", "edit_freeze"])
    def test_objects_built_per_step(self, default_block, monkeypatch, kind):
        cfg, artifacts, prompt = default_block
        scored = count_forwards(monkeypatch, name="score_frame")
        built = self.count_built(monkeypatch)
        result = generate(
            artifacts.model, prompt, 64, cfg.policy_config(kind),
            reasoning_map=artifacts.vector, freeze_basis=artifacts.basis,
        )
        counts = dict(built)
        n = len(scored)
        if kind == "fixed":
            assert counts == {}
            return
        assert n == sum(b.forward_passes for b in result.blocks) > 0
        if kind == "edit":
            assert counts == {"ActivationFrame": n, "VisibleSet": n, "ProbVector": n}
        else:
            # The freezer reads one whole-block frame a step, over one
            # visible set a block.
            steps, blocks = sum(result.block_steps), len(result.blocks)
            assert counts == {
                "ActivationFrame": n + steps, "VisibleSet": n + blocks, "ProbVector": n
            }


class TestDerivedStop:
    """``stop_decision``, ``stopped_early`` and ``rejected_stops`` are read
    off the monitor's state; they must tell what the monitor decided."""

    @staticmethod
    def prompt(cfg, seed=7):
        task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
        return task.sample(np.random.default_rng(seed))[0]

    def test_refused_stops_then_an_accepted_one(self, default_block):
        # At delta 0.001 and omega 1 the stops at steps 2-4 fail the local
        # certificate and the one at step 5 passes it.
        cfg, artifacts, _ = default_block
        stop = StopConfig(delta=0.001, omega=1, tau_blk=cfg.tau_blk)
        (lax, strict) = (
            generate(
                artifacts.model, self.prompt(cfg), 32,
                PolicyConfig("edit", stop=stop, strict_certificates=strict),
                budget=16, reasoning_map=artifacts.vector,
            ).blocks[0]
            for strict in (False, True)
        )
        assert (lax.steps_used, lax.rejected_stops) == (2, ())
        assert not lax.certificate.local_pass
        assert strict.rejected_stops == (2, 3, 4)
        assert strict.stopped_early and strict.steps_used == 5
        assert strict.certificate.stop_step == 5 and strict.certificate.local_pass
        trace = strict.monitor.divergence_trace
        assert [row.step for row in trace if row.stopped] == [2, 3, 4, 5]
        assert strict.stop_decision == StopDecision(
            5, StopReason.RUN_LENGTH_MET, trace[-1].counter
        )

    def test_derived_stop_matches_the_monitor_decisions(self, default_block, monkeypatch):
        cfg, artifacts, _ = default_block
        decisions: dict[int, list[StopDecision]] = {}
        observe = StabilityMonitor.observe

        def recording(monitor, dist):
            decision = observe(monitor, dist)
            decisions.setdefault(id(monitor), []).append(decision)
            return decision

        monkeypatch.setattr(StabilityMonitor, "observe", recording)
        grid = product(
            ("edit", "edit_freeze"), (False, True), (0.0, 0.001, 0.05, 10.0), (1, 3), (8, 16)
        )
        seen = {"refused": 0, "accepted after refusal": 0, "exhausted after refusal": 0}
        for kind, strict, delta, omega, budget in grid:
            stop = StopConfig(delta=delta, omega=omega, tau_blk=cfg.tau_blk)
            policy = PolicyConfig(kind, stop=stop, strict_certificates=strict)
            decisions.clear()
            result = generate(
                artifacts.model, self.prompt(cfg), 64, policy, budget=budget,
                reasoning_map=artifacts.vector, freeze_basis=artifacts.basis,
            )
            for block in result.blocks:
                observed = decisions[id(block.monitor)]
                assert len(observed) == block.steps_used
                fired = [d for d in observed if d.stop]
                accepted = block.certificate is not None
                if accepted:
                    assert observed[-1] is fired[-1]
                    assert block.certificate.stop_step == fired[-1].step
                    want, refused = fired[-1], fired[:-1]
                else:
                    last = observed[-1]
                    want = StopDecision(
                        last.step, StopReason.BUDGET_EXHAUSTED, last.final_counter
                    )
                    refused = fired
                assert strict or not refused
                assert block.stop_decision == want
                assert block.stopped_early == accepted
                assert block.rejected_stops == tuple(d.step for d in refused)
                seen["refused"] += bool(refused)
                seen["accepted after refusal"] += bool(refused) and accepted
                seen["exhausted after refusal"] += bool(refused) and not accepted
        assert all(seen.values()), seen
