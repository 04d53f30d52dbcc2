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
    assert_same_trajectory,
    batched_forward,
    count_forwards,
    final_commit,
    reference_generate,
    same_bits,
    step_commits,
)

from editstop.alignment import ActivationFrame, AlignmentDistribution, VisibleSet
from editstop.capture import AdamWConfig, EvolutionVector, SubspaceBasis, build_subspace
from editstop.config import ExperimentConfig
from editstop.errors import NonMonotoneVisibleSetError, ScheduleExhaustedError
from editstop.freeze import FreezeConfig, TokenFreezer
from editstop.generate import (
    DenoiseTrajectory,
    PolicyConfig,
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
        trajectory = denoise_block(tiny_model(), prompt_block(), 1, budget=4).trajectory
        sizes = [int(trajectory.visible[trajectory.row(step)].sum()) for step in range(1, 5)]
        assert sizes == [1, 2, 3, 4]
        assert all(len(c) == 1 for c in step_commits(trajectory))

    def test_quota_rounds_up(self):
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=3)
        counts = [len(c) for c in step_commits(block.trajectory)]
        assert counts == [2, 2, 0]
        assert block.trajectory.steps_used == 3

    def test_fixed_policy_runs_whole_budget(self):
        block = denoise_block(tiny_model(), prompt_block(), 1, budget=9)
        assert block.steps_used == 9
        assert block.stop_decision is None
        assert (block.stopped_early, block.rejected_stops) == (False, ())
        assert block.certificate is None
        # Visible set is full well before the budget ends.
        trajectory = block.trajectory
        assert trajectory.visible[trajectory.row(4)].sum() == TINY.block_length

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
                trajectory = block.trajectory
                assert block.steps_used == budget, (L, budget, policy.kind)
                assert cfg.mask_id not in trajectory.tokens, (L, budget, policy.kind)
                assert trajectory.visible[trajectory.row(budget)].sum() == L
                assert final_commit(block.trajectory) == ()
                cells += 1
        assert cells == 2 * sum(L + 2 for L in range(2, 9))

    def test_committed_tokens_never_change(self):
        trajectory = denoise_block(tiny_model(), prompt_block(), 1, budget=4).trajectory
        final = trajectory.token_rows[-1]
        for tokens, seen in zip(trajectory.token_rows, trajectory.visible, strict=True):
            assert seen.any()
            assert np.array_equal(tokens[seen], final[seen])

    def test_shrinking_visible_set_rejected(self):
        # A trajectory whose visible set drops a member is refused with the
        # error the monitor raises for the same fault.
        def trajectory(*visible):
            visible = np.array(visible, dtype=bool)
            rows = np.zeros(visible.shape, dtype=np.int64)
            taps = (tuple(np.ones((n, 3)) for n in visible.sum(axis=1)),)
            return DenoiseTrajectory(
                1, np.zeros(2, dtype=np.int64), len(visible), rows, rows, visible, taps
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
        trajectory = block.trajectory
        assert block.forward_passes == 17
        assert [len(c) for c in step_commits(trajectory)] == [1] * 16 + [0] * 16
        rows = [trajectory.row(step) for step in range(1, 33)]
        assert rows[16] != rows[15]
        assert rows[17:] == [rows[16]] * 15

    def test_ties_commit_lowest_index_first_at_quota_4(self, monkeypatch):
        # Every forward reads the same confidences, three values over 16
        # slots, so each of the first three steps' four commits cuts through
        # a tie and the stable order alone decides which tied slots it takes.
        cfg = ModelConfig()
        L, V = cfg.block_length, cfg.vocab_size
        confidence = np.array([0.3, 0.9, 0.6, 0.9, 0.3, 0.9, 0.6, 0.3,
                               0.9, 0.6, 0.9, 0.3, 0.6, 0.9, 0.3, 0.6])
        probs = np.empty((L, V - 1))
        probs[:] = ((1.0 - confidence) / (V - 2))[:, None]
        probs[np.arange(L), np.arange(L) % (V - 1)] = confidence
        gen = importlib.import_module("editstop.generate")
        monkeypatch.setattr(gen, "predictive_distributions", lambda logits, vocab: probs.copy())
        prompt = np.random.default_rng(9).integers(0, V - 1, size=L)
        block = denoise_block(init_model(cfg), prompt, 1, budget=4)
        order = sorted(range(L), key=lambda i: (-confidence[i], i))
        want = [{L + i for i in order[k : k + 4]} for k in range(0, L, 4)]
        assert step_commits(block.trajectory) == want
        # The lowest four of the six slots tied at 0.9, then the other two
        # and the lowest two of the five tied at 0.6.
        assert want[:2] == [{L + 1, L + 3, L + 5, L + 8}, {L + 10, L + 13, L + 2, L + 6}]
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
        committed_by_schedule = {p for c in step_commits(block.trajectory) for p in c}
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
                assert step_commits(block.trajectory) == [set(c) for c in commits]
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
        trajectory = block.trajectory
        slot = block.freeze_events[0].token - TINY.block_length

        def frame_row(step):
            # The token's row among the visible rows of the scored tap.
            r = trajectory.row(step)
            assert trajectory.visible[r, slot]
            return trajectory.tap_rows[0][r][trajectory.visible[r, :slot].sum()]

        pinned = frame_row(freeze_step + 1)
        for step in range(freeze_step + 2, block.steps_used + 1):
            np.testing.assert_array_equal(frame_row(step), pinned)


class TestGenerate:
    def test_multi_block_fixed_budget(self):
        result = generate(tiny_model(), prompt_block(), 16, budget=6)
        assert result.block_steps == (6, 6, 6)
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
        assert edit.block_steps < fixed.block_steps
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
        assert step_commits(block.trajectory) == step_commits(edit.trajectory)
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
        assert_same_trajectory(block.trajectory, plain.trajectory)
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
            assert_same_trajectory(got.trajectory, want.trajectory)
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
        trajectory = block.trajectory
        masked = np.full(L, model.cfg.mask_id)
        for step in range(1, block.steps_used + 1):
            # Step ``step`` reads the tokens its predecessor left.
            block_tokens = masked if step == 1 else trajectory.token_rows[trajectory.row(step - 1)]
            fresh = forward(model, np.concatenate([prompt, block_tokens])[None, :], taps=(tap,))
            probs = predictive_distributions(fresh.logits[0, lo : lo + L], model.cfg.vocab_size)
            r = trajectory.row(step)
            assert trajectory.choice[r].tolist() == probs.argmax(axis=1).tolist()
            rows = lo + trajectory.visible[r].nonzero()[0]
            assert trajectory.tap_rows[0][r].tobytes() == fresh.taps[tap][0, rows].tobytes()


class TestDecodeForwardBits:
    """Every forward of a decode runs on the ``forward_weights`` that
    ``generate`` builds once. The decode must keep every bit of one whose
    forwards build their own weights, and of ``helpers.batched_forward``:
    logits, taps, every recorded array (``pseudograd`` reads them), tokens,
    frames and step divergences."""

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
            assert_same_trajectory(gb.trajectory, wb.trajectory)
            if kind == "edit":
                trace = [repr(r.divergence) for r in gb.monitor.divergence_trace]
                assert trace == [repr(r.divergence) for r in wb.monitor.divergence_trace]
                assert same_bits(gb.monitor.prev_probs, wb.monitor.prev_probs)
                assert gb.monitor.prev_members == wb.monitor.prev_members
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
                mt, st = mb.trajectory, sb.trajectory
                assert len(st.tap_rows) == 1
                if which == 0:
                    # The first tap is the scored one: the whole run agrees.
                    assert mt.steps_used == st.steps_used
                    if kind == "edit":
                        trace = mb.monitor.divergence_trace
                        assert trace == sb.monitor.divergence_trace
                    assert mb.stop_decision == sb.stop_decision
                # Unscored taps do not steer a one-block decode: its steps
                # agree up to the shorter run's stop.
                n = min(mt.steps_used, st.steps_used)
                assert step_commits(mt)[:n] == step_commits(st)[:n]
                for step in range(1, n + 1):
                    r = mt.row(step)
                    assert r == st.row(step)
                    assert np.array_equal(mt.tap_rows[which][r], st.tap_rows[0][r])
                    for name in ("token_rows", "choice", "visible"):
                        assert np.array_equal(getattr(mt, name)[r], getattr(st, name)[r])
            if which == 0:
                assert multi.tokens == single.tokens

    def test_frames_share_the_step_and_repeats_share_the_frames(self, default_block):
        cfg, artifacts, prompt = default_block
        (block,) = generate(
            artifacts.model, prompt, 32, cfg.policy_config("fixed"), taps=self.QKV
        ).blocks
        trajectory = block.trajectory
        # Every tap keeps one row set per distinct forward, over its visible slots.
        assert len(trajectory.tap_rows) == 3
        for rows in trajectory.tap_rows:
            assert [len(a) for a in rows] == trajectory.visible.sum(axis=1).tolist()
        assert len(trajectory.visible) == block.forward_passes
        row = trajectory.row
        repeats = [step for step in range(2, block.steps_used + 1) if row(step) == row(step - 1)]
        assert repeats == list(range(18, 33))

    def test_duplicate_or_empty_taps_rejected(self, default_block):
        cfg, artifacts, prompt = default_block
        for taps in ((self.QKV[1], self.QKV[0], self.QKV[1]), ()):
            with pytest.raises(ValueError, match="taps"):
                generate(artifacts.model, prompt, 32, taps=taps)


class TestSkippedStepWork:
    """Frames are scored only for a monitor, and a step that repeats its
    predecessor reuses the predecessor's row instead of adding one."""

    def test_fixed_scores_nothing(self, default_block, monkeypatch):
        cfg, artifacts, prompt = default_block
        scored = count_forwards(monkeypatch, name="score_alignment")
        stepped = count_forwards(monkeypatch, name="alignment_step")
        policy = cfg.policy_config("fixed")
        result = generate(artifacts.model, prompt, 64, policy, reasoning_map=artifacts.vector)
        assert scored == stepped == []
        assert result.block_steps == (cfg.budget,) * 3
        assert all(b.monitor is None for b in result.blocks)
        assert result.tokens == generate(artifacts.model, prompt, 64, policy).tokens

    def test_repeated_steps_reuse_the_previous_distribution(self, default_block, monkeypatch):
        # At budget 32 one slot commits per step, so the block is full after
        # step 16, step 17 reads its last forward, and steps 18-32 repeat:
        # each hands the monitor its predecessor's row again, with 0.0.
        cfg, artifacts, prompt = default_block
        policy = dataclasses.replace(cfg, delta=0.0).policy_config("edit")
        scored = count_forwards(monkeypatch, name="alignment_step")
        observed: dict[int, list] = {}
        take_row = StabilityMonitor.take_row

        def recording(monitor, probs, members, step, d_t):
            observed.setdefault(id(monitor), []).append((probs, members, step, d_t))
            return take_row(monitor, probs, members, step, d_t)

        monkeypatch.setattr(StabilityMonitor, "take_row", recording)
        result = generate(
            artifacts.model, prompt, 64, policy, budget=32, reasoning_map=artifacts.vector
        )
        ref_tokens, ref_blocks = reference_generate(
            artifacts.model, prompt, 64, policy, 32, reasoning_map=artifacts.vector
        )
        assert result.tokens == ref_tokens
        n_repeats = 0
        for block, ref in zip(result.blocks, ref_blocks, strict=True):
            row = block.trajectory.row
            assert block.forward_passes == 17
            repeats = range(18, 33)
            n_repeats += len(repeats)
            taken = observed[id(block.monitor)]
            assert [step for _, _, step, _ in taken] == list(range(1, 33))
            assert taken[0][3] is None
            for (p, members, step, _), (q, then, _, d_t) in zip(taken, taken[1:]):
                if step + 1 in repeats:
                    assert q is p and then is members and d_t == 0.0
                    assert row(step + 1) == row(step)
                else:
                    assert q is not p
                    assert row(step + 1) == row(step) + 1
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

    @pytest.mark.parametrize("budget", [1, 16, 17, 32])
    def test_fixed_ends_at_the_first_repeated_step(self, default_block, monkeypatch, budget):
        # Without a monitor nothing reads a repeated step, so a fixed decode
        # stops looping at the first one and still reports the whole budget:
        # its arrays are those of a never-stopping monitored decode, which
        # runs every step and commits what fixed commits.
        cfg, artifacts, prompt = default_block
        never = dataclasses.replace(cfg, delta=0.0).policy_config("edit")
        full = denoise_block(
            artifacts.model, prompt, 1, budget=budget, policy=never,
            reasoning_map=artifacts.vector,
        )
        calls = count_forwards(monkeypatch)
        fixed = denoise_block(artifacts.model, prompt, 1, budget=budget)
        assert fixed.steps_used == full.steps_used == budget
        assert fixed.forward_passes == full.forward_passes == len(calls) == min(budget, 17)
        assert_same_trajectory(fixed.trajectory, full.trajectory)

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
        row = block.trajectory.row
        shared = [step for step in range(2, 33) if row(step) == row(step - 1)]
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
            committed = [len(c) for c in step_commits(trajectory)]
            assert [n == 0 for n in [1, *committed[:-1]]] == [
                step > forwards for step in range(1, budget + 1)
            ]


class TestStepObjects:
    """A decode step builds only the objects a traced binding takes: the
    frame handed to the freezer. A scored step runs on arrays, so no
    decode builds a ``VisibleSet`` per step, an ``AlignmentDistribution``
    or a ``ProbVector``, and a ``fixed`` decode builds nothing."""

    @staticmethod
    def count_built(monkeypatch) -> Counter:
        built: Counter = Counter()
        for cls in (ActivationFrame, VisibleSet, AlignmentDistribution, ProbVector):

            def init(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        return built

    @pytest.mark.parametrize("kind", ["fixed", "edit", "edit_freeze"])
    def test_objects_built_per_step(self, default_block, monkeypatch, kind):
        cfg, artifacts, prompt = default_block
        scored = count_forwards(monkeypatch, name="alignment_step")
        built = self.count_built(monkeypatch)
        result = generate(
            artifacts.model, prompt, 64, cfg.policy_config(kind),
            reasoning_map=artifacts.vector, freeze_basis=artifacts.basis,
        )
        counts = dict(built)
        n = len(scored)
        if kind == "fixed":
            assert n == 0 and counts == {}
            return
        assert n == sum(b.forward_passes for b in result.blocks) > 0
        if kind == "edit":
            assert counts == {}
        else:
            # The freezer reads one whole-block frame a step, over one
            # visible set a block.
            steps, blocks = sum(result.block_steps), len(result.blocks)
            assert counts == {"ActivationFrame": steps, "VisibleSet": blocks}


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
        take_row = StabilityMonitor.take_row

        def recording(monitor, *args):
            decision = take_row(monitor, *args)
            decisions.setdefault(id(monitor), []).append(decision)
            return decision

        monkeypatch.setattr(StabilityMonitor, "take_row", recording)
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
