"""Acceptance gate: one test per release criterion.

Each test prints a single verdict line; the conftest terminal-summary
hook repeats them after the run. Every criterion checks against an
independent oracle (closed forms, finite differences, exhaustive
enumeration, or paired simulation), never against values produced by the
code under test, and asserts its stated runtime budget.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import time
from itertools import combinations

import numpy as np
import pytest
from helpers import geometric_chain, make_chain, random_simplex, subdelta_walks

from editstop.capture import AdamWConfig, MomentState, adamw_step, EvolutionVector
from editstop.certify import (
    MarginReport,
    calibrate_pac,
    estimate_contraction,
    global_argmax_certificate,
    local_argmax_certificate,
    tail_budget,
    tv_budget,
)
from editstop.config import ExperimentConfig
from editstop.errors import NoValidSamplesError
from editstop.freeze import (
    CouplingEstimate,
    FreezeConfig,
    TokenFreezer,
    freeze_safety,
    probe_coupling_pooled,
)
from editstop.alignment import ActivationFrame, VisibleSet
from editstop.capture import build_subspace
from editstop.generate import PolicyConfig, generate
from editstop.harness import (
    cmd_ablate,
    cmd_certify,
    cmd_infer,
    cmd_train,
    load_artifacts,
)
from editstop.linalg import ProbVector, kl_divergence, total_variation
from editstop.metaformat import MAGIC, persist_metadata
from editstop.model import (
    ModelConfig,
    backward_lora,
    forward,
    init_model,
    masked_cross_entropy,
    predictive_distributions,
)
from editstop.monitor import StabilityMonitor, StopConfig
from editstop.pseudograd import PseudoGradConfig, pseudo_gradient
from editstop.tasks import make_task
from editstop.train import mask_targets
from helpers import CoupledLinearModel

RESULTS: list[str] = []


def criterion(num: int, label: str, budget_s: float):
    """Wrap a test so it always prints one verdict line and asserts runtime."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                line = (
                    f"[criterion {num:02d}] {label}: FAIL"
                    f" ({type(exc).__name__}: {exc})"
                )
                RESULTS.append(line)
                print(line)
                raise
            elapsed = time.perf_counter() - t0
            ok = elapsed < budget_s
            line = (
                f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
                f" ({detail}; {elapsed:.1f}s < {budget_s:.0f}s)"
            )
            RESULTS.append(line)
            print(line)
            assert ok, f"runtime {elapsed:.1f}s exceeded the {budget_s:.0f}s budget"

        return wrapper

    return deco


TOY = ModelConfig(
    vocab_size=12,
    d_model=16,
    n_heads=2,
    n_blocks=2,
    lora_rank=3,
    block_length=4,
    max_blocks=2,
    seed=3,
)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Full-size toy pipeline shared by the end-to-end criteria."""
    run_dir = str(tmp_path_factory.mktemp("desk"))
    cfg = ExperimentConfig(out_dir=run_dir)
    cmd_train(cfg)
    edit = cmd_infer(cfg, run_dir=run_dir)
    fixed = cmd_infer(
        cfg,
        artifacts_dir=run_dir,
        run_dir=os.path.join(run_dir, "fixed"),
        policy_kind="fixed",
    )
    return cfg, run_dir, edit, fixed


@criterion(1, "optimizer moment capture matches unrolled closed form", 5.0)
def test_moment_capture_closed_form():
    rng = np.random.default_rng(201)
    cfg = AdamWConfig()
    worst = 0.0
    for _ in range(200):
        shape = (int(rng.integers(1, 17)), int(rng.integers(1, 9)))
        k_steps = int(rng.integers(1, 51))
        grads = rng.normal(size=(k_steps,) + shape)
        state = MomentState.zeros(shape)
        for g in grads:
            state, _ = adamw_step(state, g, cfg)
        w1 = cfg.beta1 ** np.arange(k_steps - 1, -1, -1)
        w2 = cfg.beta2 ** np.arange(k_steps - 1, -1, -1)
        m_ref = (1 - cfg.beta1) * np.tensordot(w1, grads, axes=1)
        v_ref = (1 - cfg.beta2) * np.tensordot(w2, grads**2, axes=1)
        scale_m = np.maximum(np.abs(m_ref), 1e-300)
        scale_v = np.maximum(np.abs(v_ref), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(state.m - m_ref) / scale_m)),
            float(np.max(np.abs(state.v - v_ref) / scale_v)),
        )
    assert worst < 1e-10, f"worst relative deviation {worst:.3e}"
    return f"200 streams, worst relative deviation {worst:.1e} < 1e-10"


@criterion(2, "analytic gradients match central finite differences", 60.0)
def test_gradients_match_finite_differences():
    h = 1e-5

    # Training-loss gradients through the adapters.
    model = init_model(TOY)
    rng = np.random.default_rng(77)
    for key in model.lora:
        model.lora[key] += 0.2 * rng.normal(size=model.lora[key].shape)
    task = make_task("copy_reverse", TOY.vocab_size, TOY.block_length)
    prompts, targets = task.sample_batch(rng, 4)
    seqs = np.concatenate([prompts, targets], axis=1)
    masked, loss_mask = mask_targets(seqs, TOY.block_length, TOY.mask_id, rng)

    def loss_value():
        res = forward(model, masked, taps=())
        loss, _ = masked_cross_entropy(res.logits, seqs, loss_mask)
        return loss

    res = forward(model, masked, taps=(), record=True)
    _, dlogits = masked_cross_entropy(res.logits, seqs, loss_mask)
    grads = backward_lora(model, res, dlogits)
    keys = sorted(grads)
    checked_train = 0
    for _ in range(60):
        key = keys[int(rng.integers(len(keys)))]
        flat = int(rng.integers(model.lora[key].size))
        i, j = np.unravel_index(flat, model.lora[key].shape)
        orig = model.lora[key][i, j]
        model.lora[key][i, j] = orig + h
        f_plus = loss_value()
        model.lora[key][i, j] = orig - h
        f_minus = loss_value()
        model.lora[key][i, j] = orig
        fd = (f_plus - f_minus) / (2 * h)
        np.testing.assert_allclose(grads[key][i, j], fd, rtol=1e-4, atol=1e-8)
        checked_train += 1

    # Inference step-divergence gradients, frozen-reference objective.
    from editstop.generate import denoise_block

    pair_cfg = dataclasses.replace(TOY, block_length=2, max_blocks=2)
    pmodel = init_model(pair_cfg)
    for key in pmodel.lora:
        pmodel.lora[key] += 0.2 * rng.normal(size=pmodel.lora[key].shape)
    prompt = np.array([1, 5])
    traj = denoise_block(pmodel, prompt, 1, budget=2).trajectory
    step, lo, hi = 1, 2, 4
    support = lo + traj.visible[traj.row(step + 1)].nonzero()[0]
    inp_t1 = np.concatenate([np.asarray(traj.prefix), traj.token_rows[0]])
    ref = forward(
        pmodel,
        np.concatenate([np.asarray(traj.prefix), np.full(2, pair_cfg.mask_id)])[None, :],
        taps=(),
    )
    p_t = predictive_distributions(ref.logits[0, lo:hi], pair_cfg.vocab_size)

    def frozen_objective():
        out = forward(pmodel, inp_t1[None, :], taps=())
        dists = predictive_distributions(out.logits[0, lo:hi], pair_cfg.vocab_size)
        total = 0.0
        for s in support:
            p, q = p_t[s - lo], dists[s - lo]
            total += float(np.sum(p * (np.log(p) - np.log(q))))
        return total

    pcfg = PseudoGradConfig(modules=("block0.q", "block1.q"))
    analytic = pseudo_gradient(pmodel, traj, step, pcfg)
    checked_pseudo = 0
    for key in sorted(analytic):
        grad = analytic[key]
        for i in range(grad.shape[0]):
            for j in range(grad.shape[1]):
                orig = pmodel.lora[key][i, j]
                pmodel.lora[key][i, j] = orig + h
                f_plus = frozen_objective()
                pmodel.lora[key][i, j] = orig - h
                f_minus = frozen_objective()
                pmodel.lora[key][i, j] = orig
                fd = (f_plus - f_minus) / (2 * h)
                np.testing.assert_allclose(grad[i, j], fd, rtol=1e-4, atol=1e-8)
                checked_pseudo += 1
    assert checked_train >= 50 and checked_pseudo >= 50
    return (
        f"{checked_train} training and {checked_pseudo} step-divergence"
        f" coordinates within 1e-4 of central differences"
    )


@criterion(3, "divergence-to-distance and stability-window bounds hold", 30.0)
def test_divergence_bounds_sound():
    rng = np.random.default_rng(303)

    # KL-to-TV bound on random distribution pairs.
    pinsker_trials = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        p = ProbVector(random_simplex(rng, k))
        q = ProbVector(random_simplex(rng, k))
        bound = math.sqrt(kl_divergence(p, q) / 2.0)
        assert total_variation(p, q) <= bound + 1e-9
        pinsker_trials += 1

    # Margin-vs-window bound: whenever the start margin clears twice the
    # window TV budget, no sub-threshold walk may move the argmax.
    walk_trials = 0
    covered = 0
    for delta, omega, n_walks in (
        (0.002, 1, 3000),
        (0.002, 3, 2000),
        (0.01, 2, 3000),
        (0.05, 6, 2000),
    ):
        budget = tv_budget(delta, omega)
        k = int(rng.integers(3, 6))
        walks = subdelta_walks(rng, n_walks, k, delta, omega)
        starts = walks[:, 0, :]
        order = np.sort(starts, axis=1)
        margins = order[:, -1] - order[:, -2]
        top = np.argmax(starts, axis=1)
        certified = margins / 2.0 > budget + 1e-9
        path_top = np.argmax(walks, axis=2)
        for i in range(n_walks):
            walk_trials += 1
            if certified[i]:
                covered += 1
                assert np.all(path_top[i] == top[i])
    assert pinsker_trials == 10_000 and walk_trials == 10_000
    assert covered >= 1000
    return (
        f"{pinsker_trials} distance-bound trials and {walk_trials} window"
        f" walks ({covered} certified) with zero violations"
    )


def _grid_distributions(size: int, denom: int = 64) -> np.ndarray:
    """Every probability vector of the given support size on the 1/denom grid."""
    if size == 1:
        return np.ones((1, 1))
    cuts = np.array(list(combinations(range(denom + size - 1), size - 1)))
    bounds = np.concatenate(
        [
            np.full((len(cuts), 1), -1),
            cuts,
            np.full((len(cuts), 1), denom + size - 1),
        ],
        axis=1,
    )
    counts = np.diff(bounds, axis=1) - 1
    assert counts.min() >= 0 and np.all(counts.sum(axis=1) == denom)
    return counts / denom


@criterion(4, "window certificate is sound on the exhaustive grid", 120.0)
def test_certificate_soundness_exhaustive():
    combos = ((0.02, 1), (0.02, 2), (0.005, 2), (0.005, 4), (0.05, 6))
    checked = 0
    passes = 0
    for size in (2, 3, 4):
        grid = _grid_distributions(size)
        order = np.sort(grid, axis=1)
        margins = order[:, -1] - order[:, -2]
        tops = np.argmax(grid, axis=1)
        for delta, omega in combos:
            cfg = StopConfig(delta=delta, omega=omega)
            budget = tv_budget(delta, omega)
            verdicts = np.empty(len(grid), dtype=bool)
            for idx in range(len(grid)):
                report = MarginReport(
                    argmax_index=int(tops[idx]),
                    margin=float(margins[idx]),
                    step=1,
                    support_size=size,
                )
                verdicts[idx] = local_argmax_certificate(report, cfg)
                checked += 1
            # Worst-case adversary: move the full budget of mass from the
            # leader onto the runner-up and require the leader to survive.
            passing = np.flatnonzero(verdicts)
            passes += len(passing)
            for idx in passing:
                p = grid[idx].copy()
                runner_candidates = np.flatnonzero(
                    np.isclose(p, order[idx, -2]) & (np.arange(size) != tops[idx])
                )
                runner = int(runner_candidates[0])
                moved = min(budget, p[tops[idx]])
                p[tops[idx]] -= moved
                p[runner] += moved
                flipped = np.flatnonzero(np.isclose(p, p.max()))[0]
                assert flipped == tops[idx], (
                    f"certificate passed but the budget flips"
                    f" {grid[idx]} at delta={delta}, omega={omega}"
                )
    assert passes > 10_000
    return (
        f"{checked} grid certificates over supports <= 4"
        f" ({passes} passes), worst-case mass moves never flip"
    )


@criterion(5, "contraction estimate recovers planted rates and bounds the tail", 120.0)
def test_contraction_recovery_and_tail():
    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        # Short chains keep every step's TV far above float cancellation.
        chain = geometric_chain(
            np.array([0.55, 0.3, 0.15]), np.array([0.1, -0.04, -0.06]), alpha, 12
        )
        est = estimate_contraction([chain])
        worst = max(worst, abs(est.alpha_hat - alpha))
        assert abs(est.alpha_hat - alpha) < 1e-9

    rng = np.random.default_rng(505)
    cfg = StopConfig(delta=1e-3, omega=2)
    certified = 0
    for _ in range(500):
        k = int(rng.integers(3, 5))
        pi = random_simplex(rng, k)
        while np.sort(pi)[-1] - np.sort(pi)[-2] < 0.15:
            pi = random_simplex(rng, k)
        alpha = float(rng.uniform(0.25, 0.85))
        d = rng.normal(size=k)
        d -= d.mean()
        d *= 0.8 * pi.min() / np.abs(d).max()
        chain = geometric_chain(pi, d, alpha, 45)
        monitor = StabilityMonitor(cfg)
        stop_idx = None
        for idx, dist in enumerate(chain):
            if monitor.observe(dist).stop:
                stop_idx = idx
                break
        assert stop_idx is not None
        est = estimate_contraction([chain[max(0, stop_idx - 2) : stop_idx + 4]])
        assert abs(est.alpha_hat - alpha) < 1e-9
        margin = MarginReport.from_distribution(chain[stop_idx])
        if not global_argmax_certificate(margin, cfg, est.alpha_hat):
            continue
        certified += 1
        stopped = chain[stop_idx].dist
        budget = tail_budget(est.alpha_hat, cfg.delta)
        for s in range(1, 101):
            future = ProbVector(pi + alpha ** (stop_idx + s) * d)
            assert future.argmax_token() == margin.argmax_index
            assert total_variation(future, stopped) <= budget + 1e-9
        worst = max(worst, abs(est.alpha_hat - alpha))
    assert certified >= 300
    return (
        f"recovery within {worst:.1e}; {certified}/500 chains certified"
        f" with zero flips or tail violations over 100 future steps"
    )


def _pac_instance(rng):
    """Contracting chain whose early leader may differ from its limit."""
    pi = random_simplex(rng, 3)
    while np.sort(pi)[-1] - np.sort(pi)[-2] < 0.03:
        pi = random_simplex(rng, 3)
    alpha = float(rng.uniform(0.45, 0.72))
    top = int(np.argmax(pi))
    runner = int(np.argsort(pi)[-2])
    c = float(rng.uniform(0.0, 0.8)) * min(pi[top], 1.0 - pi[runner])
    d = np.zeros(3)
    d[top] -= c
    d[runner] += c
    return pi, d, alpha


def _pac_stop(pi, d, alpha, cfg, horizon=160):
    chain = geometric_chain(pi, d, alpha, horizon)
    monitor = StabilityMonitor(cfg)
    for idx, dist in enumerate(chain):
        if monitor.observe(dist).stop:
            report = MarginReport.from_distribution(dist)
            return report, int(np.argmax(chain[idx].dist.probs)), chain
    return None, None, chain


@criterion(6, "calibrated stops keep disagreement under the advertised rate", 600.0)
def test_calibrated_stop_disagreement_bound():
    beta = 0.1
    delta, omega = 2e-5, 2
    cfg = StopConfig(delta=delta, omega=omega)
    rng = np.random.default_rng(606)

    margins = []
    traces = []
    for _ in range(500):
        pi, d, alpha = _pac_instance(rng)
        report, _, chain = _pac_stop(pi, d, alpha, cfg)
        assert report is not None
        margins.append(report.margin)
        if len(traces) < 60:
            traces.append(chain[5:25])
    alpha_hat = estimate_contraction(traces).alpha_hat
    assert 0.0 <= alpha_hat < 1.0

    calibration = calibrate_pac(
        margins, beta, alpha_hat, delta_grid=(delta,), omega_grid=(omega,)
    )
    assert calibration.chosen == (delta, omega)
    quantile = calibration.margin_quantile

    certified = 0
    disagreements = 0
    for _ in range(500):
        pi, d, alpha = _pac_instance(rng)
        report, stop_top, _ = _pac_stop(pi, d, alpha, cfg)
        assert report is not None
        if report.margin < quantile:
            continue
        certified += 1
        if stop_top != int(np.argmax(pi)):
            disagreements += 1
    bound = beta + 2.0 * math.sqrt(beta * (1.0 - beta) / 500.0)
    rate = disagreements / certified if certified else 0.0
    assert certified >= 100
    assert rate <= bound, f"{disagreements}/{certified} = {rate:.4f} > {bound:.4f}"
    return (
        f"{disagreements}/{certified} calibrated stops disagree with the"
        f" settled answer (rate {rate:.4f} <= bound {bound:.4f})"
    )


@criterion(7, "safety-approved freezes preserve the settled answer", 300.0)
def test_freeze_safety_paired_simulation():
    rng = np.random.default_rng(707)
    model = CoupledLinearModel(rng, n_tokens=6, dim=4, alpha=0.5, gamma=0.03)
    basis = build_subspace(rng.normal(size=(4, 3)), 3, "m")
    fcfg = FreezeConfig(delta_tok=5e-3, omega_tok=3, k=3)
    gcfg = StopConfig(delta=1e-5, omega=2)
    vis = VisibleSet(tuple(range(model.n_tokens)))
    events = 0
    safe_events = 0
    for trial in range(80):
        trial_rng = np.random.default_rng(2000 + trial)
        state = model.init_state(trial_rng)
        free_state = np.array(state, copy=True)
        freezer = TokenFreezer(basis, fcfg)
        pins: dict[int, np.ndarray] = {}
        dist_trace = []
        reports = []
        for t in range(1, 31):
            frame = ActivationFrame(t, state, vis)
            effective, newly = freezer.process(frame)
            for s in range(model.n_tokens):
                state[s] = effective[s]
            p_t = model.distribution(state)
            dist_trace.append(p_t)
            if newly and len(dist_trace) >= 3:
                try:
                    alpha_hat = estimate_contraction([dist_trace[-3:]]).alpha_hat
                except NoValidSamplesError:
                    # Trace already settled; no contraction evidence.
                    continue
                if alpha_hat >= 1.0:
                    continue
                coupling = probe_coupling_pooled(
                    model, state, newly, 1e-3, 20, np.random.default_rng(60 + trial)
                )
                margin = p_t.top2_margin()
                for s in newly:
                    pins[s] = freezer.states[s].frozen_value
                    reports.append(
                        freeze_safety(freezer.states[s], coupling, alpha_hat, gcfg, margin)
                    )
            state = model.step(state)
            for s, vec in pins.items():
                state[s] = vec
        final_frozen = model.run(state, 100, pins)
        final_free = model.run(free_state, 130)
        frozen_answer = model.distribution(final_frozen).argmax_token()
        free_answer = model.distribution(final_free).argmax_token()
        for report in reports:
            events += 1
            if report.safe:
                safe_events += 1
                assert frozen_answer == free_answer
    assert events >= 200
    assert safe_events >= 50
    return (
        f"{events} freeze events, {safe_events} approved, every approval"
        f" matched the never-frozen twin's answer"
    )


@criterion(8, "a 4096-dim stored summary carries exactly 16384 payload bytes", 1.0)
def test_metadata_payload_bytes(tmp_path):
    rng = np.random.default_rng(808)
    vec = EvolutionVector(rng.random(4096) + 0.1, "blk31.q.B", 16)
    path = tmp_path / "meta.bin"
    total = persist_metadata([vec], [], path)
    ident = len(b"blk31.q.B")
    overhead = len(MAGIC) + 2 + 2 + (2 + ident + 1 + 4 + 4 + 4) + 4
    payload = total - overhead
    assert payload == 16_384
    return f"entry payload {payload} bytes (4096 float32 coefficients)"


@criterion(9, "early stopping cuts steps >= 20% within 2 accuracy points", 900.0)
def test_early_stop_step_reduction(desk_run):
    cfg, _, edit, fixed = desk_run
    assert len(cfg.seeds) == 3 and cfg.budget == 32
    reduction = edit["mean"]["reduction_percent"]
    drop = fixed["mean"]["accuracy"] - edit["mean"]["accuracy"]
    assert fixed["mean"]["avg_steps"] == cfg.budget
    assert reduction >= 20.0, f"step reduction {reduction:.1f}% < 20%"
    assert drop <= 0.02, f"accuracy drop {drop:.3f} > 0.02"
    return (
        f"{reduction:.1f}% fewer steps ({edit['mean']['avg_steps']:.1f} vs"
        f" {cfg.budget}), accuracy {edit['mean']['accuracy']:.3f} vs"
        f" {fixed['mean']['accuracy']:.3f} over 3 seeds"
    )


@criterion(10, "threshold limits reproduce the fixed run and the minimal stop", 120.0)
def test_threshold_limit_behaviors(desk_run):
    cfg, run_dir, _, _ = desk_run
    art = load_artifacts(cfg, run_dir)
    task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
    rng = np.random.default_rng(1010)
    never = PolicyConfig("edit", stop=StopConfig(delta=0.0, omega=cfg.omega))
    instant = PolicyConfig("edit", stop=StopConfig(delta=math.inf, omega=cfg.omega))
    fixed = PolicyConfig("fixed")
    checked = 0
    for _ in range(10):
        prompt, _ = task.sample(rng)
        base = generate(
            art.model, prompt, cfg.seq_len, fixed, budget=cfg.budget,
            reasoning_map=art.vector,
        )
        zero = generate(
            art.model, prompt, cfg.seq_len, never, budget=cfg.budget,
            reasoning_map=art.vector,
        )
        inf = generate(
            art.model, prompt, cfg.seq_len, instant, budget=cfg.budget,
            reasoning_map=art.vector,
        )
        assert zero.tokens == base.tokens
        assert zero.block_steps == base.block_steps
        assert all(s == cfg.budget for s in zero.block_steps)
        assert all(s == cfg.omega + 1 for s in inf.block_steps)
        checked += 1
    return (
        f"{checked} prompts: vanishing threshold replays the fixed run,"
        f" infinite threshold stops every block at {cfg.omega + 1} steps"
    )


@criterion(11, "identical reruns produce byte-identical artifacts", 300.0)
def test_reruns_byte_identical(tmp_path):
    def run(d):
        cfg = ExperimentConfig(
            vocab_size=12, d_model=16, n_heads=2, n_blocks=2, lora_rank=3,
            block_length=4, max_blocks=2, seq_len=8, budget=12,
            train_steps=40, eval_instances=4, seeds=[1], subspace_k=2,
            trace_retention=2, out_dir=d,
        )
        cmd_train(cfg)
        cmd_infer(cfg)
        cmd_certify(cfg)
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
    second = run(d)
    assert first == second
    assert any(k.endswith(".editmeta") for k in first)
    assert any(k.startswith("traces") for k in first)
    return f"{len(first)} files (metadata, traces, reports) identical across reruns"


@criterion(12, "capture-site sweep fills the full 12-cell grid", 600.0)
def test_ablation_grid_complete(tmp_path):
    cfg = ExperimentConfig(
        vocab_size=12, d_model=16, n_heads=2, n_blocks=2, lora_rank=3,
        block_length=4, max_blocks=2, seq_len=8, budget=8,
        train_steps=80, eval_instances=4, seeds=[1], subspace_k=2,
        out_dir=str(tmp_path),
    )
    payload = cmd_ablate(cfg)
    cells = payload["cells"]
    combos = {(c["projection"], c["adapter"], c["reduction"]) for c in cells}
    assert combos == {
        (p, a, r)
        for p in ("q", "k", "v")
        for a in ("a", "b")
        for r in ("energy", "mean")
    }
    assert all(math.isfinite(c["mean_divergence"]) for c in cells)
    assert os.path.exists(os.path.join(str(tmp_path), "ablation.csv"))
    stored = json.load(open(os.path.join(str(tmp_path), "ablation.json")))
    assert stored == payload
    return f"{len(cells)} cells, all finite mean divergences, no ordering asserted"
