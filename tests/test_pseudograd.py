"""Tests for inference pseudo-gradients and band convergence detection."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from helpers import count_forwards, reference_pseudo_gradient, step_kl_objective

from editstop.errors import (
    EmptyInputError,
    MissingStepError,
    NoRecordedGraphError,
    TooFewSamplesError,
    WindowTooShortError,
)
from editstop.generate import DenoiseTrajectory, denoise_block
from editstop.linalg import rms
from editstop.model import ModelConfig, init_model, forward, predictive_distributions
from editstop.pseudograd import (
    PseudoGradConfig,
    SftBand,
    analyze_trajectory,
    detect_convergence,
    pseudo_gradient,
    pseudograd_to_csv,
    sft_band,
)

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

PAIR = ModelConfig(
    vocab_size=12,
    d_model=16,
    n_heads=2,
    n_blocks=2,
    lora_rank=3,
    block_length=2,
    max_blocks=4,
    seed=3,
)


def perturbed_model(cfg, scale=0.2, seed=7):
    model = init_model(cfg)
    rng = np.random.default_rng(seed)
    for key in model.lora:
        model.lora[key] = model.lora[key] + scale * rng.normal(size=model.lora[key].shape)
    return model


class TestRms:
    def test_pinned_values(self):
        assert rms(np.zeros((3, 3))) == 0.0
        assert rms(np.full((2, 5), 3.0)) == 3.0
        assert rms(np.array([3.0, 4.0, 0.0, 0.0])) == 2.5

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            arr = rng.normal(size=rng.integers(2, 30))
            shuffled = rng.permutation(arr)
            signs = rng.choice([-1.0, 1.0], size=arr.size)
            np.testing.assert_allclose(rms(shuffled), rms(arr), rtol=1e-12)
            np.testing.assert_allclose(rms(arr * signs), rms(arr), rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            rms(np.array([]))


class TestSftBand:
    def test_constant_trace(self):
        band = sft_band([4.0, 4.0, 4.0])
        assert band.mu == 4.0
        assert band.sigma == 0.0
        assert band.contains(4.0)
        assert not band.contains(4.0001)

    def test_two_point_trace(self):
        band = sft_band([1.0, 3.0])
        assert band.mu == 2.0
        np.testing.assert_allclose(band.sigma, np.sqrt(2.0), rtol=1e-15)
        assert band.n_steps == 2

    def test_mean_always_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            values = rng.gamma(2.0, size=rng.integers(2, 40))
            band = sft_band(values)
            assert band.contains(band.mu)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            sft_band([1.0])
        with pytest.raises(TooFewSamplesError):
            sft_band([])


class TestDetectConvergence:
    BAND = SftBand(mu=1.0, sigma=0.5, n_steps=10)

    def test_always_in_band(self):
        assert detect_convergence([1.0, 1.2, 0.8, 1.1], self.BAND) == 0

    def test_never_in_band(self):
        assert detect_convergence([9.0, 9.0, 9.0, 9.0], self.BAND) is None

    def test_entry_at_index_19(self):
        trace = [5.0] * 19 + [1.0] * 11
        assert detect_convergence(trace, self.BAND) == 19

    def test_run_must_complete(self):
        # In-band tail shorter than the persistence window does not count.
        trace = [5.0] * 8 + [1.0, 1.0]
        assert detect_convergence(trace, self.BAND) is None
        assert detect_convergence(trace + [1.0], self.BAND) == 8

    def test_first_hit_survives_later_spike(self):
        trace = [5.0] * 4 + [1.0, 1.0, 1.0, 9.0, 1.0]
        assert detect_convergence(trace, self.BAND) == 4

    def test_interrupted_run_restarts(self):
        trace = [1.0, 1.0, 5.0, 1.0, 1.0, 1.0]
        assert detect_convergence(trace, self.BAND) == 3

    def test_widening_band_never_delays_detection(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            trace = rng.gamma(2.0, size=30)
            narrow = SftBand(mu=2.0, sigma=0.4, n_steps=5)
            wide = SftBand(mu=2.0, sigma=1.2, n_steps=5)
            t_narrow = detect_convergence(trace, narrow)
            t_wide = detect_convergence(trace, wide)
            if t_narrow is not None:
                assert t_wide is not None
                assert t_wide <= t_narrow


def synthetic_pair_trajectory(support_members, tokens_after_1, block_index=1):
    """Two-step trajectory with hand-picked support for the second step."""
    L = TINY.block_length
    lo = block_index * L
    visible = np.zeros((2, L), dtype=bool)
    visible[:, np.array(support_members) - lo] = True
    tokens = np.array([tokens_after_1] * 2, dtype=np.int64)
    acts = np.zeros((len(support_members), TINY.d_model))
    return DenoiseTrajectory(
        block_index=block_index,
        prefix=np.arange(1, lo + 1),
        steps_used=2,
        token_rows=tokens,
        choice=tokens,
        visible=visible,
        tap_rows=((acts, acts),),
    )


class TestPseudoGradient:
    def make_trajectory(self, model, budget=8):
        prompt = np.array([1, 5, 2, 9])
        return denoise_block(model, prompt, 1, budget=budget).trajectory

    def test_stationary_steps_are_exactly_zero(self):
        # Once the block is fully committed, consecutive inputs are
        # identical and the divergence objective vanishes identically.
        model = perturbed_model(TINY)
        traj = self.make_trajectory(model, budget=8)
        for step in (5, 6, 7):
            assert step_kl_objective(model, traj, step) == 0.0
            grads = pseudo_gradient(model, traj, step)
            for g in grads.values():
                assert np.abs(g).max() == 0.0

    def test_finite_difference_frozen_reference(self):
        model = perturbed_model(PAIR)
        prompt = np.array([1, 5])
        traj = denoise_block(model, prompt, 1, budget=2).trajectory
        step = 1
        lo, hi = 2, 4
        support = lo + traj.visible[traj.row(step + 1)].nonzero()[0]
        inp_t1 = np.concatenate([np.asarray(traj.prefix), traj.token_rows[0]])
        res_t = forward(
            model,
            np.concatenate([np.asarray(traj.prefix), np.full(2, PAIR.mask_id)])[None, :],
            taps=(),
        )
        p_t = predictive_distributions(res_t.logits[0, lo:hi], PAIR.vocab_size)

        def frozen_objective():
            res = forward(model, inp_t1[None, :], taps=())
            dists = predictive_distributions(res.logits[0, lo:hi], PAIR.vocab_size)
            total = 0.0
            for s in support:
                p, q = p_t[s - lo], dists[s - lo]
                total += float(np.sum(p * (np.log(p) - np.log(q))))
            return total

        key = "block1.q.lora_b"
        grad = pseudo_gradient(model, traj, step)[key]
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(grad.shape[0]):
            for j in range(grad.shape[1]):
                orig = model.lora[key][i, j]
                model.lora[key][i, j] = orig + h
                f_plus = frozen_objective()
                model.lora[key][i, j] = orig - h
                f_minus = frozen_objective()
                model.lora[key][i, j] = orig
                fd[i, j] = (f_plus - f_minus) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-10)

    def test_additive_over_disjoint_supports(self):
        model = perturbed_model(TINY)
        tokens_after_1 = (3, TINY.mask_id, 7, TINY.mask_id)
        traj_a = synthetic_pair_trajectory((4,), tokens_after_1)
        traj_b = synthetic_pair_trajectory((5, 6), tokens_after_1)
        traj_u = synthetic_pair_trajectory((4, 5, 6), tokens_after_1)
        obj_a = step_kl_objective(model, traj_a, 1)
        obj_b = step_kl_objective(model, traj_b, 1)
        obj_u = step_kl_objective(model, traj_u, 1)
        np.testing.assert_allclose(obj_u, obj_a + obj_b, rtol=1e-10)
        key = "block1.q.lora_b"
        g_a = pseudo_gradient(model, traj_a, 1)[key]
        g_b = pseudo_gradient(model, traj_b, 1)[key]
        g_u = pseudo_gradient(model, traj_u, 1)[key]
        np.testing.assert_allclose(g_u, g_a + g_b, rtol=1e-10, atol=1e-14)

    def test_missing_steps_rejected(self):
        model = perturbed_model(TINY)
        traj = self.make_trajectory(model, budget=4)
        with pytest.raises(MissingStepError):
            pseudo_gradient(model, traj, 0)
        with pytest.raises(MissingStepError):
            pseudo_gradient(model, traj, 4)
        with pytest.raises(MissingStepError):
            step_kl_objective(model, traj, 4)

    def test_module_selection(self):
        model = perturbed_model(TINY)
        traj = self.make_trajectory(model, budget=4)
        default = pseudo_gradient(model, traj, 1)
        assert set(default) == {"block1.q.lora_b"}
        chosen = pseudo_gradient(
            model, traj, 1, PseudoGradConfig(modules=("block0.v", "block1.q"))
        )
        assert set(chosen) == {"block0.v.lora_b", "block1.q.lora_b"}
        np.testing.assert_array_equal(chosen["block1.q.lora_b"], default["block1.q.lora_b"])
        with pytest.raises(ValueError):
            pseudo_gradient(model, traj, 1, PseudoGradConfig(modules=("block9.z",)))


class TestAnalyzeTrajectory:
    def test_rows_and_convergence_consistency(self):
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=8, record=True).trajectory
        band = SftBand(mu=0.0, sigma=1e-6, n_steps=5)
        trace = analyze_trajectory(model, traj, band)
        assert [r.step for r in trace.rows] == list(range(1, 8))
        assert all(r.rms_value >= 0.0 for r in trace.rows)
        # The stationary tail sits at exactly zero, inside the tiny band.
        assert trace.convergence_step is not None
        idx = trace.convergence_step - 1
        assert all(r.in_band for r in trace.rows[idx : idx + 3])

    def test_deterministic(self):
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=6, record=True).trajectory
        band = SftBand(mu=0.1, sigma=0.1, n_steps=4)
        a = analyze_trajectory(model, traj, band)
        b = analyze_trajectory(model, traj, band)
        assert [r.rms_value for r in a.rows] == [r.rms_value for r in b.rows]
        assert a.convergence_step == b.convergence_step

    def test_rows_equal_per_step_pseudo_gradient(self):
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=6, record=True).trajectory
        trace = analyze_trajectory(model, traj, SftBand(mu=0.1, sigma=0.1, n_steps=4))
        assert [r.step for r in trace.rows] == list(range(1, 6))
        for row in trace.rows:
            grads = pseudo_gradient(model, traj, row.step)
            assert row.rms_value == rms(np.concatenate([g.ravel() for g in grads.values()]))

    def test_trajectory_without_forwards_is_refused(self):
        # The rows are read off the decode's own forwards; a trajectory
        # decoded without record=True has none to read.
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=6).trajectory
        assert not traj.forwards
        with pytest.raises(NoRecordedGraphError):
            analyze_trajectory(model, traj, SftBand(mu=0.1, sigma=0.1, n_steps=4))

    @pytest.mark.parametrize("budget", [6, 12])
    def test_recorded_trajectory_runs_no_forward(self, monkeypatch, budget):
        # A trajectory decoded with record=True carries each step's
        # forward; reading them gives the rows of pseudo_gradient, which
        # runs its own forwards, on the same decode without them.
        model = perturbed_model(TINY)
        prompt = np.array([1, 5, 2, 9])
        recorded = denoise_block(model, prompt, 1, budget=budget, record=True).trajectory
        plain = denoise_block(model, prompt, 1, budget=budget).trajectory
        assert len(recorded.forwards) == len(recorded.token_rows) and not plain.forwards
        band = SftBand(mu=0.1, sigma=0.1, n_steps=4)
        calls = count_forwards(monkeypatch, "editstop.pseudograd")
        trace = analyze_trajectory(model, recorded, band)
        assert len(calls) == 0
        monkeypatch.undo()
        for row in trace.rows:
            grads = pseudo_gradient(model, plain, row.step)
            assert row.rms_value == rms(np.concatenate([g.ravel() for g in grads.values()]))

    def test_fixed_budget_tail_matches_per_pair_gradient(self, monkeypatch):
        # A fixed-budget run past the full block: every pair after step 4
        # has identical inputs. Its rows equal per-pair pseudo_gradient
        # without running a forward or backward for those pairs.
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=12, record=True).trajectory
        band = SftBand(mu=0.1, sigma=0.1, n_steps=4)
        calls = count_forwards(monkeypatch, "editstop.pseudograd")
        backwards = count_forwards(monkeypatch, "editstop.pseudograd", name="backward_lora")
        trace = analyze_trajectory(model, traj, band)
        assert len(calls) == 0
        assert len(backwards) == 4
        monkeypatch.undo()
        assert [r.step for r in trace.rows] == list(range(1, 12))
        for row in trace.rows:
            grads = pseudo_gradient(model, traj, row.step)
            assert row.rms_value == rms(np.concatenate([g.ravel() for g in grads.values()]))
        assert [r.rms_value for r in trace.rows[4:]] == [0.0] * 7

    @pytest.mark.parametrize(
        "modules",
        [None, ("block1.v",), ("block0.q", "block1.k"), ("block1.q", "block0.v", "block0.k")],
    )
    def test_matches_the_full_backward_oracle(self, modules):
        # Backward passes that stop at the selected adapters, the indexed
        # dlogits and the reused step-side distributions change no bit.
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=6, record=True).trajectory
        config = PseudoGradConfig(modules=modules)
        keys = [f"{m}.lora_b" for m in (modules or ("block1.q",))]
        band = SftBand(mu=0.1, sigma=0.1, n_steps=4)
        trace = analyze_trajectory(model, traj, band)
        for row in trace.rows:
            want = reference_pseudo_gradient(model, traj, row.step, keys)
            got = pseudo_gradient(model, traj, row.step, config)
            assert list(got) == keys
            for key in keys:
                assert np.array_equal(got[key], want[key]), (row.step, key)
            if modules is None:
                # The analyzer differentiates the default tap only.
                assert row.rms_value == rms(np.concatenate([want[k].ravel() for k in keys]))

    def test_single_step_trajectory_rejected(self):
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=1, record=True).trajectory
        with pytest.raises(WindowTooShortError):
            analyze_trajectory(model, traj, SftBand(mu=1.0, sigma=1.0, n_steps=2))

    def test_csv_shape(self):
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=5, record=True).trajectory
        band = SftBand(mu=0.0, sigma=1e-6, n_steps=5)
        trace = analyze_trajectory(model, traj, band)
        text = pseudograd_to_csv(trace)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["step", "rms", "in_band", "t_conv"]
        assert len(rows) == 1 + len(trace.rows)
        conv = "" if trace.convergence_step is None else str(trace.convergence_step)
        for row, rec in zip(rows[1:], trace.rows):
            assert int(row[0]) == rec.step
            assert float(row[1]) == rec.rms_value
            assert int(row[2]) == int(rec.in_band)
            assert row[3] == conv

    def test_csv_reports_detected_step(self):
        model = perturbed_model(TINY)
        traj = denoise_block(model, np.array([1, 5, 2, 9]), 1, budget=8, record=True).trajectory
        band = SftBand(mu=0.0, sigma=1e-6, n_steps=5)
        trace = analyze_trajectory(model, traj, band)
        assert trace.convergence_step is not None
        rows = list(csv.reader(io.StringIO(pseudograd_to_csv(trace))))
        assert rows[1][3] == str(trace.convergence_step)
