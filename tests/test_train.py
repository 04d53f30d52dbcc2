"""Tests for the adapter fine-tuning loop and its dynamics capture."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from editstop.capture import (
    AdamWConfig,
    MomentState,
    adamw_step,
    reduce_row_energy,
)
from editstop.config import ExperimentConfig
from editstop.errors import TrainingDivergedError
from editstop.harness import ABLATION_SITES
from editstop.model import ModelConfig, backward_lora, forward, init_model, masked_cross_entropy
from editstop.tasks import make_task
from editstop.train import CaptureSpec, SftResult, mask_targets, sft_train

CFG = ModelConfig(
    vocab_size=12,
    d_model=16,
    n_heads=2,
    n_blocks=2,
    lora_rank=3,
    block_length=4,
    max_blocks=2,
    seed=3,
)


def train(model, steps, rng, task=None, **args):
    """``sft_train`` on ``small_task()`` unless ``task`` is given, with the
    learning rate's default, the default tap's B-energy capture and 16
    samples per step for every argument ``args`` leaves out."""
    args.setdefault("adamw_cfg", AdamWConfig())
    args.setdefault("captures", (CaptureSpec(model.default_tap().module),))
    args.setdefault("batch_size", 16)
    return sft_train(model, task or small_task(), steps=steps, rng=rng, **args)


def small_task():
    return make_task("copy_reverse", CFG.vocab_size, CFG.block_length)


class TestMasking:
    def test_prompt_block_never_masked(self):
        rng = np.random.default_rng(0)
        seqs = np.tile(np.arange(8), (20, 1))
        masked, loss_mask = mask_targets(seqs, 4, mask_id=11, rng=rng)
        np.testing.assert_array_equal(masked[:, :4], seqs[:, :4])
        assert not loss_mask[:, :4].any()

    def test_rates_from_declared_grid(self):
        rng = np.random.default_rng(1)
        seqs = np.zeros((200, 32), dtype=np.int64)
        _, loss_mask = mask_targets(seqs, 16, mask_id=11, rng=rng)
        counts = set(loss_mask.sum(axis=1).tolist())
        assert counts == {4, 8, 12}

    def test_masked_positions_carry_mask_id(self):
        rng = np.random.default_rng(2)
        seqs = np.ones((5, 8), dtype=np.int64)
        masked, loss_mask = mask_targets(seqs, 4, mask_id=11, rng=rng)
        assert np.all(masked[loss_mask] == 11)
        assert np.all(masked[~loss_mask] == 1)


class TestSftTrain:
    def test_base_parameters_frozen(self):
        model = init_model(CFG)
        before = {name: arr.copy() for name, arr in model.base.items()}
        train(model, steps=5, rng=np.random.default_rng(0))
        assert sorted(model.base) == sorted(before)
        for name, arr in before.items():
            assert np.array_equal(model.base[name], arr), name

    def test_single_step_evolution_is_row_energy_of_first_update(self):
        model = init_model(CFG)
        spec = CaptureSpec(model.default_tap().module, "b", "energy")
        result = sft_train(
            model,
            small_task(),
            steps=1,
            adamw_cfg=AdamWConfig(),
            captures=(spec,),
            rng=np.random.default_rng(42),
            batch_size=4,
        )

        # Independent replay with an identically seeded stream.
        replay_model = init_model(CFG)
        rng = np.random.default_rng(42)
        task = small_task()
        prompts, targets = task.sample_batch(rng, 4)
        seqs = np.concatenate([prompts, targets], axis=1)
        masked, loss_mask = mask_targets(seqs, CFG.block_length, CFG.mask_id, rng)
        res = forward(replay_model, masked, taps=(), record=True)
        _, dlogits = masked_cross_entropy(res.logits, seqs, loss_mask)
        grads = backward_lora(replay_model, res, dlogits)
        key = spec.param_key
        _, update = adamw_step(
            MomentState.zeros(replay_model.lora[key].shape), grads[key], AdamWConfig()
        )
        expected = reduce_row_energy(update, spec.metadata_id, CFG.lora_rank)
        got = result.evolution[spec.metadata_id]
        np.testing.assert_array_equal(got.u, expected.u)
        assert got.module_id == spec.metadata_id
        assert got.rank == CFG.lora_rank

    def test_captured_mean_matches_offline_replay(self):
        # Bit for bit: the captured tensor is a replay's per-step updates
        # summed in the order they arrive, divided once by the step count.
        model = init_model(CFG)
        spec = CaptureSpec("block0.v", "b", "energy")
        result = train(
            model, steps=7, captures=(spec,), rng=np.random.default_rng(9), batch_size=4
        )

        replay_model = init_model(CFG)
        rng = np.random.default_rng(9)
        task = small_task()
        cfg_opt = AdamWConfig()
        L = CFG.block_length
        moments = {
            key: MomentState.zeros(val.shape) for key, val in replay_model.lora.items()
        }
        updates_log = []
        for _ in range(7):
            prompts, targets = task.sample_batch(rng, 4)
            seqs = np.concatenate([prompts, targets], axis=1)
            masked, loss_mask = mask_targets(seqs, L, CFG.mask_id, rng)
            res = forward(replay_model, masked, record=True, first_row=L)
            _, dlogits = masked_cross_entropy(res.logits, seqs[:, L:], loss_mask[:, L:])
            grads = backward_lora(replay_model, res, dlogits)
            for key in sorted(replay_model.lora):
                moments[key], update = adamw_step(moments[key], grads[key], cfg_opt)
                replay_model.lora[key] = replay_model.lora[key] - cfg_opt.learning_rate * update
                if key == spec.param_key:
                    updates_log.append(update)
        total = np.zeros_like(updates_log[0])
        for update in updates_log:
            total = total + update
        np.testing.assert_array_equal(
            result.evolution_tensors[spec.metadata_id], total / len(updates_log)
        )
        # The order matters to the bits: the reversed sum rounds differently.
        reversed_total = np.zeros_like(total)
        for update in reversed(updates_log):
            reversed_total = reversed_total + update
        assert not np.array_equal(total, reversed_total)

    def test_trains_on_the_target_block_rows_only(self, monkeypatch):
        # The loss reads only the target block, so every training forward
        # is a recorded block-row pass with block_length logit rows.
        calls = []

        def spy(*args, **kwargs):
            res = forward(*args, **kwargs)
            calls.append((kwargs, res.logits.shape))
            return res

        monkeypatch.setattr("editstop.train.forward", spy)
        train(init_model(CFG), steps=3, rng=np.random.default_rng(2), batch_size=5)
        assert len(calls) == 3
        for kwargs, shape in calls:
            assert kwargs.get("record") is True
            assert kwargs.get("first_row") == CFG.block_length
            assert shape == (5, CFG.block_length, CFG.vocab_size)

    def test_loss_trend_on_copy_reverse(self):
        cfg = ModelConfig()
        model = init_model(cfg)
        task = make_task("copy_reverse", cfg.vocab_size, cfg.block_length)
        result = train(
            model,
            task=task,
            steps=50,
            adamw_cfg=AdamWConfig(learning_rate=0.01),
            rng=np.random.default_rng(1),
        )
        windows = [float(np.mean(result.loss_trace[i:i + 10])) for i in range(0, 50, 10)]
        assert all(b < a for a, b in zip(windows, windows[1:]))
        assert windows[-1] < 0.2 * windows[0]

    def test_rms_trace_matches_gradient_norms(self):
        model = init_model(CFG)
        result = train(model, steps=6, rng=np.random.default_rng(5), batch_size=4)
        assert len(result.rms_trace) == 6
        assert all(v >= 0.0 for v in result.rms_trace)
        assert any(v > 0.0 for v in result.rms_trace)

    def test_deterministic_given_seed(self):
        results: list[SftResult] = []
        for _ in range(2):
            model = init_model(CFG)
            results.append(
                train(model, steps=4, rng=np.random.default_rng(8))
            )
        for key in results[0].model.lora:
            assert (
                results[0].model.lora[key].tobytes()
                == results[1].model.lora[key].tobytes()
            )
        assert results[0].rms_trace == results[1].rms_trace
        mid = next(iter(results[0].evolution))
        np.testing.assert_array_equal(
            results[0].evolution[mid].u, results[1].evolution[mid].u
        )

    def test_adapter_a_capture_indexes_model_dim(self):
        model = init_model(CFG)
        spec = CaptureSpec("block1.q", "a", "mean")
        result = train(model, steps=2, captures=(spec,), rng=np.random.default_rng(3))
        vec = result.evolution[spec.metadata_id]
        assert vec.d_out == CFG.d_model

    def test_divergence_aborts_with_diagnostic(self):
        # Poison one adapter so the first forward pass yields a NaN loss.
        model = init_model(CFG)
        key = next(iter(model.lora))
        model.lora[key][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(model, steps=3, rng=np.random.default_rng(0))

    def test_validation(self):
        model = init_model(CFG)
        with pytest.raises(ValueError):
            train(model, steps=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            train(model, steps=1, captures=(), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            train(model, steps=1, rng=np.random.default_rng(0), batch_size=0)
        with pytest.raises(ValueError):
            CaptureSpec("block0.q", adapter="c")
        with pytest.raises(ValueError):
            CaptureSpec("block0.q", reduction="max")


class TestCaptureMemory:
    def test_peak_does_not_grow_with_the_step_count(self):
        # cmd_train's capture: the default tap's B energy first, then every
        # ablation site of the last block. A buffer of per-step updates
        # would add one step's update tensors to the peak per extra step.
        config = ExperimentConfig()
        model_cfg = config.model_config()
        task = make_task(config.task, config.vocab_size, config.block_length)
        last = config.n_blocks - 1
        default = CaptureSpec(f"block{last}.q", "b", "energy")
        captures = (default, *(
            spec
            for spec in (CaptureSpec(f"block{last}.{p}", a, r) for p, a, r in ABLATION_SITES)
            if spec != default
        ))

        # Interpreter free lists (up to 2000 tuples of each size) keep the
        # blocks a traced run allocated counted as traced until they are
        # full, about 200 steps in. An untraced run fills them first, so the
        # two traced runs differ only by what training holds, in any test order.
        train(init_model(model_cfg), task=task, steps=400, captures=captures,
              rng=np.random.default_rng(model_cfg.seed + 1), batch_size=1)

        def traced_peak(steps: int) -> int:
            model = init_model(model_cfg)
            tracemalloc.start()
            try:
                train(model, task=task, steps=steps, captures=captures,
                      rng=np.random.default_rng(model_cfg.seed + 1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        shapes = init_model(model_cfg).lora
        one_step = sum(shapes[key].nbytes for key in {spec.param_key for spec in captures})
        assert one_step == 6 * model_cfg.d_model * model_cfg.lora_rank * 8
        assert traced_peak(40) - traced_peak(10) < one_step
