"""Tests for AdamW moment capture and evolution-tensor reductions."""

from __future__ import annotations

import numpy as np
import pytest

from editstop.capture import (
    AdamWConfig,
    EvolutionVector,
    MomentState,
    SubspaceBasis,
    adamw_step,
    build_subspace,
    reduce_row_energy,
    reduce_row_mean,
)
from editstop.errors import EmptyInputError, RankTooLargeError, ShapeMismatchError


class TestAdamWConfig:
    def test_defaults_valid(self):
        cfg = AdamWConfig()
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.999
        assert cfg.epsilon == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": -1e-2},
            {"learning_rate": -0.0},
            {"learning_rate": float("-inf")},
            {"learning_rate": float("nan")},
            {"learning_rate": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            AdamWConfig(**kwargs)


class TestAdamwStep:
    def test_zero_gradient_stays_zero(self):
        state = MomentState.zeros((3, 2))
        new, update = adamw_step(state, np.zeros((3, 2)), AdamWConfig())
        np.testing.assert_array_equal(new.m, 0.0)
        np.testing.assert_array_equal(new.v, 0.0)
        np.testing.assert_array_equal(update, 0.0)

    def test_scalar_unit_gradient(self):
        state = MomentState.zeros((1,))
        new, update = adamw_step(state, np.array([1.0]), AdamWConfig())
        assert new.m[0] == pytest.approx(0.1, rel=1e-15)
        assert new.v[0] == pytest.approx(0.001, rel=1e-15)
        assert update[0] == pytest.approx(3.1622766601686956, rel=1e-12)

    def test_matches_unrolled_closed_form(self):
        # After a K-step stream from zero init, the moments equal
        # (1-b1) * sum b1^(K-l) g_l  and  (1-b2) * sum b2^(K-l) g_l^2.
        rng = np.random.default_rng(30)
        cfg = AdamWConfig()
        for _ in range(20):
            shape = (int(rng.integers(1, 17)), int(rng.integers(1, 9)))
            k_steps = int(rng.integers(1, 51))
            grads = rng.normal(size=(k_steps,) + shape)
            state = MomentState.zeros(shape)
            for g in grads:
                state, _ = adamw_step(state, g, cfg)
            weights1 = cfg.beta1 ** np.arange(k_steps - 1, -1, -1)
            weights2 = cfg.beta2 ** np.arange(k_steps - 1, -1, -1)
            m_ref = (1 - cfg.beta1) * np.tensordot(weights1, grads, axes=1)
            v_ref = (1 - cfg.beta2) * np.tensordot(weights2, grads**2, axes=1)
            np.testing.assert_allclose(state.m, m_ref, rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(state.v, v_ref, rtol=1e-10, atol=1e-14)

    def test_second_moment_nonnegative(self):
        rng = np.random.default_rng(31)
        state = MomentState.zeros((4, 4))
        cfg = AdamWConfig()
        for _ in range(100):
            state, update = adamw_step(state, rng.normal(size=(4, 4)) * 10, cfg)
            assert np.all(state.v >= 0.0)
            assert np.all(np.isfinite(update))

    def test_shape_mismatch_rejected(self):
        state = MomentState.zeros((3, 2))
        with pytest.raises(ShapeMismatchError):
            adamw_step(state, np.zeros((2, 3)), AdamWConfig())


class TestRowReductions:
    def test_zero_tensor_gives_zero_vector(self):
        v = reduce_row_energy(np.zeros((4, 3)), "m")
        np.testing.assert_array_equal(v.u, 0.0)

    def test_three_four_five_row(self):
        v = reduce_row_energy(np.array([[3.0, 4.0]]), "m")
        assert v.u[0] == pytest.approx(5.0, rel=1e-15)

    def test_energy_matches_scalar_loop(self):
        rng = np.random.default_rng(34)
        t = rng.normal(size=(8, 4))
        v = reduce_row_energy(t, "m")
        for p in range(8):
            total = 0.0
            for c in range(4):
                total += t[p, c] * t[p, c]
            assert v.u[p] == pytest.approx(np.sqrt(total), rel=1e-12)

    def test_energy_positive_homogeneity(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            t = rng.normal(size=(6, 3))
            c = float(rng.uniform(0.0, 5.0))
            scaled = reduce_row_energy(c * t, "m").u
            np.testing.assert_allclose(scaled, c * reduce_row_energy(t, "m").u, atol=1e-12)

    def test_mean_constant_row(self):
        v = reduce_row_mean(np.array([[2.0, 2.0, 2.0, 2.0]]), "m")
        assert v.u[0] == pytest.approx(2.0, rel=1e-15)

    def test_mean_uses_absolute_values(self):
        v = reduce_row_mean(np.array([[-1.0, 1.0]]), "m")
        assert v.u[0] == pytest.approx(1.0, rel=1e-15)

    def test_mean_matches_scalar_loop(self):
        rng = np.random.default_rng(36)
        t = rng.normal(size=(8, 4))
        v = reduce_row_mean(t, "m")
        for p in range(8):
            total = 0.0
            for c in range(4):
                total += abs(t[p, c])
            assert v.u[p] == pytest.approx(total / 4.0, rel=1e-12)

    def test_rank_defaults_to_tensor_width(self):
        assert reduce_row_energy(np.ones((8, 4)), "m").rank == 4
        assert reduce_row_energy(np.ones((8, 4)), "m", rank=7).rank == 7

    def test_nonfinite_rejected(self):
        t = np.ones((2, 2))
        t[0, 0] = np.inf
        with pytest.raises(EmptyInputError):
            reduce_row_energy(t, "m")


class TestEvolutionVector:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            EvolutionVector(np.array([1.0, -0.5]), "m", 4)

    def test_read_only(self):
        v = EvolutionVector(np.array([1.0, 2.0]), "m", 4)
        with pytest.raises(ValueError):
            v.u[0] = 9.0

    def test_norm(self):
        v = EvolutionVector(np.array([3.0, 4.0]), "m", 4)
        assert v.norm() == pytest.approx(5.0)
        assert v.d_out == 2

    def test_cached_norm_equals_a_fresh_one(self):
        # vector_cosine scores divide by the cached norm, so it must be the
        # very float a fresh np.linalg.norm gives.
        rng = np.random.default_rng(0)
        for size in (1, 7, 64, 300):
            v = EvolutionVector(np.abs(rng.normal(size=size)), "m", 4)
            assert v.norm() == float(np.linalg.norm(v.u))
        assert EvolutionVector(np.zeros(3), "m", 4).norm() == 0.0


class TestBuildSubspace:
    def test_rank_one_tensor_spans_column_direction(self):
        col = np.array([1.0, 2.0, 2.0])
        t = np.outer(col, [1.0, 1.0])
        basis = build_subspace(t, 1, "m")
        np.testing.assert_allclose(np.abs(basis.columns[:, 0]), col / 3.0, atol=1e-10)

    def test_full_rank_identity_completion(self):
        basis = build_subspace(np.eye(4, 2), 2, "m")
        np.testing.assert_allclose(basis.columns.T @ basis.columns, np.eye(2), atol=1e-10)

    def test_projection_residual_is_optimal(self):
        rng = np.random.default_rng(37)
        t = rng.normal(size=(16, 4))
        basis = build_subspace(t, 3, "m")
        proj = basis.columns @ (basis.columns.T @ t)
        residual = np.linalg.norm(t - proj) ** 2
        evals = np.sort(np.linalg.eigvalsh(t @ t.T))[::-1]
        np.testing.assert_allclose(residual, evals[3:].sum(), atol=1e-8)

    def test_rank_too_large_rejected(self):
        with pytest.raises(RankTooLargeError):
            build_subspace(np.ones((16, 4)), 5, "m")


class TestSubspaceBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((4, 2)), "m")

    def test_rejects_rank_out_of_bounds(self):
        with pytest.raises(RankTooLargeError):
            SubspaceBasis(np.linalg.qr(np.random.default_rng(0).normal(size=(12, 9)))[0], "m")

    def test_loose_tolerance_accepts_float32_round_trip(self):
        rng = np.random.default_rng(38)
        q = np.linalg.qr(rng.normal(size=(32, 4)))[0]
        q32 = q.astype(np.float32).astype(np.float64)
        with pytest.raises(ValueError):
            SubspaceBasis(q32, "m", orthogonality_tol=1e-12)
        basis = SubspaceBasis(q32, "m", orthogonality_tol=1e-5)
        assert basis.k == 4
        assert basis.d_out == 32
