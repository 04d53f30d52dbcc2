"""Tests for per-token freezing, coupling probes, and freeze safety."""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import (
    CoupledLinearModel,
    ReferenceTokenState,
    freeze_keys,
    local_distribution,
    subdelta_walks,
    token_stability_step,
)

from editstop.alignment import ActivationFrame, VisibleSet
from editstop.capture import SubspaceBasis, build_subspace
from editstop.certify import estimate_contraction, tv_budget
from editstop.errors import (
    AlphaNotContractiveError,
    DimMismatchError,
    EmptyInputError,
    ProbeUnsupportedError,
    VisibleSetChangedError,
)
from editstop.freeze import (
    CouplingEstimate,
    FreezeConfig,
    FreezeSafetyReport,
    TokenFreezer,
    TokenFreezeState,
    freeze_safety,
    probe_coupling,
    probe_coupling_pooled,
)
from editstop.linalg import ProbVector, kl_divergence, softmax_rows, total_variation
from editstop.monitor import StopConfig


def identity_basis(d, k):
    # Constructed directly: build_subspace would reorder the degenerate
    # singular directions of an identity block.
    return SubspaceBasis(np.eye(d, k), "m")


class TestFreezeConfig:
    def test_defaults(self):
        cfg = FreezeConfig()
        assert cfg.delta_tok == 0.05
        assert cfg.omega_tok == 6
        assert cfg.k == 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta_tok": 0.0}, {"omega_tok": 0}, {"k": 0}, {"k": 9}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FreezeConfig(**kwargs)


class TestLocalDistribution:
    def test_aligned_activation_concentrates_at_cold_temperature(self):
        basis = identity_basis(4, 2)
        # The softmax of |100 g| is that of |g| at temperature 0.01.
        f = 100.0 * np.array([5.0, 0.1, 0.0, 0.0])
        q = local_distribution(f, basis)
        assert q.argmax_token() == 0
        assert q.probs[0] > 0.999

    def test_zero_coordinates_give_uniform(self):
        basis = identity_basis(4, 3)
        q = local_distribution(np.array([0.0, 0.0, 0.0, 7.0]), basis)
        np.testing.assert_allclose(q.probs, 1.0 / 3.0, rtol=1e-12)

    def test_frozen_softmax_example(self):
        basis = identity_basis(3, 3)
        q = local_distribution(np.array([1.0, -2.0, 3.0]), basis)
        np.testing.assert_allclose(
            q.probs,
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748218],
            rtol=1e-12,
        )

    def test_support_is_component_indices(self):
        basis = identity_basis(5, 4)
        q = local_distribution(np.ones(5), basis)
        assert q.support == (0, 1, 2, 3)

    def test_dim_mismatch_rejected(self):
        basis = identity_basis(4, 2)
        with pytest.raises(DimMismatchError):
            local_distribution(np.ones(3), basis)


class TestTokenStabilityStep:
    def run_steps(self, vectors, cfg, basis=None):
        basis = basis or identity_basis(len(vectors[0]), 2)
        state = ReferenceTokenState(token=0)
        outcomes = []
        for f in vectors:
            state, frozen = token_stability_step(state, f, basis, cfg)
            outcomes.append(frozen)
            if frozen:
                break
        return state, outcomes

    def test_constant_activation_freezes_with_zero_epsilon(self):
        cfg = FreezeConfig(delta_tok=0.05, omega_tok=4, k=2)
        f = np.array([1.0, 2.0, 0.5])
        state, outcomes = self.run_steps([f] * 10, cfg)
        assert outcomes[-1]
        assert state.frozen
        assert state.frozen_at == cfg.omega_tok + 1
        assert state.epsilon_s == 0.0
        np.testing.assert_array_equal(state.frozen_value, f)

    def test_oscillating_activation_never_freezes(self):
        cfg = FreezeConfig(delta_tok=0.05, omega_tok=3, k=2)
        a = np.array([5.0, 0.0, 0.0])
        b = np.array([0.0, 5.0, 0.0])
        state, outcomes = self.run_steps([a, b] * 20, cfg)
        assert not any(outcomes)
        assert state.counter == 0

    def test_boundary_divergence_counts(self):
        # Non-strict rule: a step whose local KL equals the threshold
        # exactly still increments. The threshold is set to the divergence
        # the pipeline itself computes, so equality is bit-exact.
        basis = identity_basis(2, 2)
        v0 = 10.0 + np.log([0.6, 0.4])
        v1 = 10.0 + np.log([0.5, 0.5])
        q0 = local_distribution(v0, basis)
        q1 = local_distribution(v1, basis)
        exact = max(kl_divergence(q1, q0), kl_divergence(q0, q1))
        cfg = FreezeConfig(delta_tok=exact, omega_tok=4, k=2)
        state, outcomes = self.run_steps([v0, v1, v0, v1, v0, v1], cfg, basis)
        assert outcomes[-1]
        assert state.frozen_at == cfg.omega_tok + 1

    def test_reset_clears_window(self):
        cfg = FreezeConfig(delta_tok=1e-4, omega_tok=3, k=2)
        a = np.array([5.0, 0.0, 0.0])
        b = np.array([0.0, 5.0, 0.0])
        state, _ = self.run_steps([a, a, b, a, a, a, a], cfg)
        # Spikes at the a->b and b->a transitions reset; the final run of
        # identical frames freezes on its own.
        assert state.frozen
        assert state.frozen_at == 7

    def test_epsilon_is_max_window_step_norm(self):
        cfg = FreezeConfig(delta_tok=10.0, omega_tok=3, k=2)
        basis = identity_basis(3, 2)
        vectors = [
            np.array([1.0, 1.0, 0.0]),
            np.array([1.1, 1.0, 0.0]),
            np.array([1.1, 1.25, 0.0]),
            np.array([1.15, 1.25, 0.0]),
        ]
        state = ReferenceTokenState(token=0)
        for f in vectors:
            state, frozen = token_stability_step(state, f, basis, cfg)
        assert frozen
        assert state.epsilon_s == pytest.approx(0.25, rel=1e-12)

    def test_frozen_token_rejects_further_updates(self):
        cfg = FreezeConfig(delta_tok=1.0, omega_tok=1, k=2)
        basis = identity_basis(2, 2)
        state = ReferenceTokenState(token=0)
        f = np.array([1.0, 1.0])
        state, _ = token_stability_step(state, f, basis, cfg)
        state, frozen = token_stability_step(state, f, basis, cfg)
        assert frozen
        with pytest.raises(ValueError):
            token_stability_step(state, f, basis, cfg)

    def test_windowed_local_tv_bound_holds_when_rule_fires(self):
        # Random sub-threshold local chains: whenever the non-strict rule
        # fires, the windowed TV of the local distributions respects the
        # token budget.
        rng = np.random.default_rng(90)
        delta_tok, omega_tok = 0.02, 4
        walks = subdelta_walks(rng, 300, 3, delta_tok, omega_tok)
        budget = tv_budget(delta_tok, omega_tok)
        for i in range(walks.shape[0]):
            first = ProbVector(walks[i, 0])
            last = ProbVector(walks[i, -1])
            assert total_variation(last, first) <= budget + 1e-9


class TestProbeCoupling:
    def test_decoupled_model_gives_zero(self):
        class Ignores:
            activation_dim = 3

            def counterfactual_distribution(self, state, token, delta=None):
                return ProbVector(np.array([0.25, 0.75]), (0, 1))

        rng = np.random.default_rng(91)
        est = probe_coupling(Ignores(), None, 0, 1e-3, 50, rng)
        assert est.beta_s == 0.0
        assert est.token == 0

    def test_linear_readout_matches_closed_form(self):
        # Identity dynamics with a softmax over per-token linear scores:
        # the small-probe TV sensitivity for token s is p_s(1-p_s)*||w_s||.
        class LinearReadout:
            activation_dim = 3

            def __init__(self):
                self.w = np.array([[1.0, 2.0, 2.0], [0.5, 0.0, 0.5]])
                self.state = np.array([[0.1, 0.2, 0.0], [0.3, 0.1, 0.2]])

            def counterfactual_distribution(self, state, token, delta=None):
                s = np.array(self.state, copy=True)
                if delta is not None:
                    s[token] = s[token] + delta
                scores = np.array([self.w[0] @ s[0], self.w[1] @ s[1]])
                z = np.exp(scores - scores.max())
                return ProbVector(z / z.sum(), (0, 1))

        model = LinearReadout()
        base = model.counterfactual_distribution(None, 0, None)
        p0 = base.probs[0]
        expected = p0 * (1 - p0) * np.linalg.norm(model.w[0])
        rng = np.random.default_rng(92)
        est = probe_coupling(model, None, 0, 1e-4, 800, rng)
        assert est.beta_s == pytest.approx(expected, rel=0.05)
        assert est.beta_s <= expected * 1.001

    def test_more_trials_never_decrease_estimate(self):
        rng_model = np.random.default_rng(93)
        model = CoupledLinearModel(rng_model)
        state = model.init_state(np.random.default_rng(94))
        small = probe_coupling(model, state, 2, 1e-3, 20, np.random.default_rng(7))
        large = probe_coupling(model, state, 2, 1e-3, 100, np.random.default_rng(7))
        assert large.beta_s >= small.beta_s

    def test_zero_magnitude_rejected(self):
        model = CoupledLinearModel(np.random.default_rng(95))
        with pytest.raises(ValueError):
            probe_coupling(model, model.init_state(np.random.default_rng(0)), 0, 0.0, 10, np.random.default_rng(1))

    def test_handle_without_taps_rejected(self):
        with pytest.raises(ProbeUnsupportedError):
            probe_coupling(object(), None, 0, 1e-3, 10, np.random.default_rng(1))

    def test_pooled_is_max_over_tokens(self):
        rng_model = np.random.default_rng(96)
        model = CoupledLinearModel(rng_model, n_tokens=4)
        state = model.init_state(np.random.default_rng(97))
        shared = np.random.default_rng(5)
        singles = [
            probe_coupling(model, state, s, 1e-3, 30, shared) for s in range(4)
        ]
        pooled = probe_coupling_pooled(
            model, state, range(4), 1e-3, 30, np.random.default_rng(5)
        )
        assert pooled.beta_s == pytest.approx(max(e.beta_s for e in singles), rel=1e-12)


class TestFreezeSafety:
    def frozen_state(self, epsilon):
        return TokenFreezeState(token=3, frozen_at=9, frozen_value=np.zeros(2), epsilon_s=epsilon)

    def test_zero_epsilon_reduces_to_global_budget(self):
        est = CouplingEstimate(beta_s=5.0, probe_magnitude=1e-3, samples=10)
        cfg = StopConfig(delta=1e-4, omega=6)
        report = freeze_safety(self.frozen_state(0.0), est, 0.5, cfg, 0.2)
        assert report.bound == 0.0
        assert report.combined == pytest.approx(tv_budget(1e-4, 6), rel=1e-12)
        assert report.safe

    def test_frozen_bound_arithmetic(self):
        est = CouplingEstimate(beta_s=0.1, probe_magnitude=1e-3, samples=10)
        report = freeze_safety(
            self.frozen_state(0.05), est, 0.5, StopConfig(delta=1e-4, omega=6), 0.5
        )
        assert report.bound == pytest.approx(0.01, rel=1e-12)

    def test_noncontractive_rejected(self):
        est = CouplingEstimate(beta_s=0.1, probe_magnitude=1e-3, samples=10)
        with pytest.raises(AlphaNotContractiveError):
            freeze_safety(self.frozen_state(0.01), est, 1.0, StopConfig(), 0.5)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            FreezeSafetyReport(token=0, bound=0.1, combined=0.2, global_margin_half=0.3, safe=False)

    def test_safe_freezes_preserve_global_argmax_on_coupled_model(self):
        # Paired frozen / free simulations on the synthetic coupled model:
        # whenever the safety verdict is positive, the run-to-completion
        # argmax must match the never-frozen twin's.
        rng = np.random.default_rng(98)
        model = CoupledLinearModel(rng, n_tokens=5, dim=4, alpha=0.5, gamma=0.03)
        basis = build_subspace(rng.normal(size=(4, 3)), 3, "m")
        fcfg = FreezeConfig(delta_tok=5e-3, omega_tok=3, k=3)
        gcfg = StopConfig(delta=1e-5, omega=2)
        vis = VisibleSet(tuple(range(model.n_tokens)))
        safe_events = 0
        for trial in range(30):
            trial_rng = np.random.default_rng(1000 + trial)
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
                    alpha_hat = estimate_contraction([dist_trace[-3:]]).alpha_hat
                    if alpha_hat >= 1.0:
                        continue
                    coupling = probe_coupling_pooled(
                        model, state, newly, 1e-3, 20, np.random.default_rng(50 + trial)
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
                if report.safe:
                    safe_events += 1
                    assert frozen_answer == free_answer
        assert safe_events >= 20


class TestTokenFreezer:
    def test_frozen_activation_is_bit_identical_downstream(self):
        rng = np.random.default_rng(99)
        basis = identity_basis(3, 2)
        freezer = TokenFreezer(basis, FreezeConfig(delta_tok=1.0, omega_tok=2, k=2))
        vis = VisibleSet((0, 1))
        delivered = []
        for t in range(1, 8):
            frame = ActivationFrame(
                t, np.stack([np.array([1.0, 2.0, 3.0]), rng.normal(size=3)]), vis
            )
            effective, _ = freezer.process(frame)
            delivered.append(effective[0])
        assert 0 in freezer.states
        pinned = freezer.states[0].frozen_value.tobytes()
        for v in delivered[3:]:
            assert v.tobytes() == pinned

    def test_frozen_set_monotone(self):
        rng = np.random.default_rng(100)
        basis = identity_basis(3, 2)
        freezer = TokenFreezer(basis, FreezeConfig(delta_tok=1e-3, omega_tok=2, k=2))
        vis = VisibleSet((0, 1, 2))
        seen = []
        stable = {s: rng.normal(size=3) for s in range(3)}
        for t in range(1, 12):
            acts = [stable[s] if t > s * 2 else rng.normal(size=3) for s in range(3)]
            freezer.process(ActivationFrame(t, np.stack(acts), vis))
            seen.append(set(freezer.states))
        for a, b in zip(seen, seen[1:]):
            assert b >= a
        assert seen[-1] == {0, 1, 2}

    def test_events_recorded(self):
        basis = identity_basis(2, 2)
        freezer = TokenFreezer(basis, FreezeConfig(delta_tok=1.0, omega_tok=1, k=2))
        vis = VisibleSet((4,))
        f = np.array([1.0, 1.0])
        freezer.process(ActivationFrame(1, f[None, :], vis))
        freezer.process(ActivationFrame(2, f[None, :], vis))
        assert freeze_keys(freezer.states.values()) == ((2, 4, 0.0),)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_rejected(self, bad):
        freezer = TokenFreezer(identity_basis(3, 2), FreezeConfig(k=2))
        with pytest.raises(EmptyInputError):
            freezer.process(ActivationFrame(1, np.array([[1.0, bad, 0.0]]), VisibleSet((0,))))

    def test_changed_members_rejected(self):
        freezer = TokenFreezer(identity_basis(2, 2), FreezeConfig(k=2))
        f = np.ones((2, 2))
        freezer.process(ActivationFrame(1, f, VisibleSet((0, 1))))
        for members in [(0, 2), (0, 1, 2)]:
            frame = ActivationFrame(2, np.ones((len(members), 2)), VisibleSet(members))
            with pytest.raises(VisibleSetChangedError):
                freezer.process(frame)

    def test_basis_k_must_match_config(self):
        with pytest.raises(DimMismatchError):
            TokenFreezer(identity_basis(3, 2), FreezeConfig(k=3))


def side_by_side_frames(rng, n_steps=16):
    """Frames over five tokens for an identity basis of d=4, k=2, where
    coordinates 2 and 3 move an activation without moving its local
    distribution. Row 0 alternates two activations whose local KL is
    at most ``boundary`` and equals it on every other step; row 1 is all
    zeros; row 2 settles; row 3 is noise; row 4 moves far along the free
    coordinates, spikes, then creeps and keeps creeping once frozen."""
    v0 = np.array([*(10.0 + np.log([0.6, 0.4])), 0.0, 0.0])
    v1 = np.array([*(10.0 + np.log([0.5, 0.5])), 0.0, 0.0])
    basis = identity_basis(4, 2)
    q0, q1 = (local_distribution(v, basis) for v in (v0, v1))
    boundary = max(kl_divergence(q1, q0), kl_divergence(q0, q1))
    settle_at = rng.normal(size=4)
    frames = []
    for t in range(1, n_steps + 1):
        if t < 4:
            row4 = [5.0, 0.0, 3.0 * t, 0.0]
        elif t == 4:
            row4 = [0.0, 5.0, 9.0, 0.0]
        else:
            row4 = [5.0, 0.0, 9.0 + 0.01 * t, 0.02 * t]
        rows = [
            v0 if t % 2 else v1,
            np.zeros(4),
            settle_at + rng.normal(size=4) * 0.5**t,
            rng.normal(size=4) * 3.0,
            np.array(row4),
        ]
        frames.append(ActivationFrame(t, np.stack(rows), VisibleSet((3, 4, 5, 6, 7))))
    return basis, boundary, frames


class TestArrayFreezerMatchesOracle:
    @pytest.mark.parametrize("omega_tok", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_events_and_effective_rows_match_per_token_oracle(self, seed, omega_tok):
        basis, boundary, frames = side_by_side_frames(np.random.default_rng(seed))
        cfg = FreezeConfig(delta_tok=boundary, omega_tok=omega_tok, k=2)
        freezer = TokenFreezer(basis, cfg)
        states: dict[int, ReferenceTokenState] = {}
        events = []
        for frame in frames:
            effective, newly = freezer.process(frame)
            expected = frame.activations.copy()
            expected_newly = []
            for i, s in enumerate(frame.visible.members):
                st = states.setdefault(s, ReferenceTokenState(token=s))
                if not st.frozen:
                    _, now = token_stability_step(st, expected[i], basis, cfg, frame.step)
                    if now:
                        expected_newly.append(s)
                        events.append((frame.step, s, st.epsilon_s))
                if st.frozen:
                    expected[i] = st.frozen_value
            assert newly == expected_newly
            assert effective.tobytes() == expected.tobytes()
        assert freeze_keys(freezer.states.values()) == tuple(events)
        frozen = {s: st for s, st in states.items() if st.frozen}
        assert sorted(freezer.states) == sorted(frozen)
        for s, st in frozen.items():
            got = freezer.states[s]
            assert (got.token, got.frozen_at, got.epsilon_s) == (s, st.frozen_at, st.epsilon_s)
            assert got.frozen_value.tobytes() == st.frozen_value.tobytes()
            assert not got.frozen_value.flags.writeable
        # The boundary row, the zero row and the creeping row freeze under
        # every window tried. With a window of 3 or more, the creeping row's
        # early moves fall before its spike, outside the window that froze it.
        assert {3, 4, 7} <= set(frozen)
        if omega_tok >= 3:
            assert frozen[7].frozen_at == 5 + omega_tok
            assert frozen[7].epsilon_s < 1.0


class TestStackedFreezerArithmetic:
    """The freezer's stacked matmuls against the per-row loops they replace,
    bit for bit: one gemv per row for the basis coordinates, and numpy's
    1-D norm per row for the window movement."""

    def test_local_distributions_match_a_gemv_per_row(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            d = int(rng.choice([4, 16, 64, 128]))
            k = int(rng.integers(1, min(d, 8) + 1))
            n = int(rng.integers(1, 33))
            basis = build_subspace(rng.normal(size=(d, k + 2)), k)
            rows = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3)
            coords = np.stack([basis.columns.T @ row for row in rows])
            want = softmax_rows(np.abs(coords))
            got = TokenFreezer(basis, FreezeConfig(k=k))._local_distributions(rows)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_window_movement_matches_a_norm_per_row(self, seed):
        # Sixteen 64-dim rows settling at different rates, so tokens freeze
        # at different steps with different window movements.
        rng = np.random.default_rng(seed)
        d, n = 64, 16
        basis = build_subspace(rng.normal(size=(d, 5)), 3)
        cfg = FreezeConfig(delta_tok=0.01, omega_tok=3, k=3)
        centers = rng.normal(size=(n, d)) * 3.0
        rates = rng.uniform(0.3, 0.9, size=(n, 1))
        freezer = TokenFreezer(basis, cfg)
        states = {s: ReferenceTokenState(token=s) for s in range(n)}
        for t in range(1, 25):
            acts = centers + rng.normal(size=(n, d)) * rates**t
            freezer.process(ActivationFrame(t, acts, VisibleSet(tuple(range(n)))))
            for s, st in states.items():
                if not st.frozen:
                    token_stability_step(st, acts[s], basis, cfg, t)
        frozen = {s: st for s, st in states.items() if st.frozen}
        assert len(frozen) >= n // 2
        assert len({st.epsilon_s for st in frozen.values()}) == len(frozen)
        assert sorted(freezer.states) == sorted(frozen)
        for s, st in frozen.items():
            got = freezer.states[s]
            assert (got.frozen_at, got.epsilon_s) == (st.frozen_at, st.epsilon_s), s
