"""Tests for the dense numeric primitives."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import (
    ZeroNormError,
    cosine_similarity,
    restrict,
    row_sum_softmax,
    same_bits,
    softmax_outcome,
)

from editstop.errors import (
    DimMismatchError,
    EmptyInputError,
    RankTooLargeError,
    SupportMismatchError,
)
from editstop.linalg import (
    PROB_FLOOR,
    ProbVector,
    kl_divergence,
    kl_rows,
    row_max,
    softmax_rows,
    top2_margin,
    total_variation,
    truncated_svd,
)


def random_prob(rng, n, support=None):
    w = rng.random(n) + 1e-3
    return ProbVector(w / w.sum(), tuple(support) if support else tuple(range(n)))


class TestProbVector:
    def test_accepts_valid_distribution(self):
        p = ProbVector(np.array([0.25, 0.75]), (3, 7))
        assert p.support == (3, 7)
        assert p.probs[p.support.index(7)] == pytest.approx(0.75)

    def test_default_support_is_positional(self):
        p = ProbVector(np.array([0.5, 0.5]))
        assert p.support == (0, 1)

    def test_rejects_bad_sum(self):
        with pytest.raises(EmptyInputError):
            ProbVector(np.array([0.5, 0.6]))

    def test_rejects_support_length_mismatch(self):
        with pytest.raises(SupportMismatchError):
            ProbVector(np.array([0.5, 0.5]), (1, 2, 3))

    def test_rejects_nonfinite(self):
        with pytest.raises(EmptyInputError):
            ProbVector(np.array([np.nan, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            ProbVector(np.array([]))

    def test_zero_entries_floored(self):
        p = ProbVector(np.array([0.0, 1.0]))
        assert p.probs[0] == PROB_FLOOR

    def test_probs_are_read_only(self):
        p = ProbVector(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_argmax_token_uses_support(self):
        p = ProbVector(np.array([0.2, 0.7, 0.1]), (10, 4, 9))
        assert p.argmax_token() == 4

    def test_argmax_tie_breaks_to_first_support_entry(self):
        p = ProbVector(np.array([0.4, 0.4, 0.2]), (2, 5, 8))
        assert p.argmax_token() == 2

    def test_top2_margin(self):
        p = ProbVector(np.array([0.5, 0.3, 0.2]))
        assert p.top2_margin() == pytest.approx(0.2)
        assert ProbVector(np.array([1.0]), (3,)).top2_margin() == 1.0

    def test_restrict_renormalizes(self):
        p = ProbVector(np.array([0.2, 0.3, 0.5]), (1, 2, 3))
        r = restrict(p, (1, 3))
        assert r.support == (1, 3)
        np.testing.assert_allclose(r.probs, [0.2 / 0.7, 0.5 / 0.7], rtol=1e-12)


class TestCosineSimilarity:
    def test_frozen_example(self):
        assert cosine_similarity([3.0, 4.0], [4.0, 3.0]) == pytest.approx(0.96, abs=1e-12)

    def test_parallel_and_antiparallel(self):
        v = np.array([1.0, -2.0, 0.5])
        assert cosine_similarity(v, 3.5 * v) == pytest.approx(1.0, abs=1e-12)
        assert cosine_similarity(v, -2.0 * v) == pytest.approx(-1.0, abs=1e-12)

    def test_scale_invariance_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(2, 20)
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            c1 = cosine_similarity(a, b)
            c2 = cosine_similarity(a * rng.uniform(0.1, 10.0), b * rng.uniform(0.1, 10.0))
            assert abs(c1 - c2) < 1e-12

    def test_result_always_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = rng.normal(size=8) * 10.0 ** rng.integers(-6, 7)
            b = rng.normal(size=8) * 10.0 ** rng.integers(-6, 7)
            c = cosine_similarity(a, b)
            assert -1.0 <= c <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroNormError):
            cosine_similarity([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ZeroNormError):
            cosine_similarity([1.0, 2.0], np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSoftmax:
    """``softmax_rows``, the one softmax: its formula on single rows, and
    ``ProbVector`` over an explicit support on top."""

    def test_frozen_small_example(self):
        p = softmax_rows(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            p,
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748218],
            rtol=1e-12,
        )

    def test_frozen_temperature_example(self):
        p = softmax_rows(np.array([1.0, 2.0, 3.0]) / 2.0)
        np.testing.assert_allclose(
            p,
            [0.1863237232258476, 0.3071958857184984, 0.506480391055654],
            rtol=1e-12,
        )

    def test_frozen_two_point_example(self):
        p = softmax_rows(np.array([0.2, 0.8]))
        np.testing.assert_allclose(p, [0.3543436937742045, 0.6456563062257954], rtol=1e-12)

    def test_support_is_attached(self):
        p = ProbVector(softmax_rows(np.array([0.0, 1.0])), (5, 9))
        assert p.support == (5, 9)
        assert p.argmax_token() == 9

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = rng.normal(size=6)
            p1 = softmax_rows(s)
            p2 = softmax_rows(s + rng.uniform(-100.0, 100.0))
            np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        p = softmax_rows(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-12)

    def test_higher_temperature_flattens(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            s = rng.normal(size=5) * 3.0
            cold = softmax_rows(s / 0.5)
            hot = softmax_rows(s / 4.0)
            assert hot.max() <= cold.max() + 1e-12

    def test_preserves_argmax(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            s = rng.normal(size=7)
            assert ProbVector(softmax_rows(s)).argmax_token() == int(np.argmax(s))


class TestKlDivergence:
    def test_frozen_asymmetric_pair(self):
        p = ProbVector(np.array([0.5, 0.5]))
        q = ProbVector(np.array([0.9, 0.1]))
        assert kl_divergence(p, q) == pytest.approx(0.5108256237659907, rel=1e-12)
        assert kl_divergence(q, p) == pytest.approx(0.3680642071684971, rel=1e-12)

    def test_identity_is_zero(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            p = random_prob(rng, int(rng.integers(2, 12)))
            assert kl_divergence(p, p) <= 1e-12

    def test_nonnegative_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            p = random_prob(rng, n)
            q = random_prob(rng, n)
            assert kl_divergence(p, q) >= 0.0

    def test_pinsker_inequality(self):
        # TV(p, q)^2 <= KL(p || q) / 2 on every shared support.
        rng = np.random.default_rng(18)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            p = random_prob(rng, n)
            q = random_prob(rng, n)
            tv = total_variation(p, q)
            assert tv * tv <= kl_divergence(p, q) / 2.0 + 1e-12

    def test_finite_with_zero_entries(self):
        p = ProbVector(np.array([1.0, 0.0]))
        q = ProbVector(np.array([0.0, 1.0]))
        assert np.isfinite(kl_divergence(p, q))

    def test_support_mismatch_rejected(self):
        p = ProbVector(np.array([0.5, 0.5]), (1, 2))
        q = ProbVector(np.array([0.5, 0.5]), (1, 3))
        with pytest.raises(SupportMismatchError):
            kl_divergence(p, q)

    def test_floored_entries_renormalized(self):
        # Flooring q's zeros lifts its sum above one; without renormalizing,
        # KL of this near-identical pair came out near -1.8e-12 and raised.
        p = ProbVector(np.array([1.0 - 2.97e-12, 1.2592184e-12, 1.71203439e-12]))
        q = ProbVector(np.array([1.0, 0.0, 0.0]))
        assert q.probs.sum() > 1.0
        assert 0.0 <= kl_divergence(p, q) < 1e-11


class TestRowHelpers:
    """Row ``i`` of ``softmax_rows`` and ``kl_rows`` is bit for bit an inline
    1-D formula on row ``i``, so single-vector callers get the same bits as
    row-stacked ones (and ``kl_divergence``, the tests' KL oracle, rests on
    an independent check)."""

    SHAPES = [(rows, n) for rows in (1, 3, 16) for n in range(1, 514)]

    @staticmethod
    def softmax_1d(z):
        ez = np.exp(z - z.max())
        return np.maximum(ez / ez.sum(), PROB_FLOOR)

    @staticmethod
    def kl_1d(p, q):
        pp = p / p.sum()
        qq = q / q.sum()
        return max(float(np.sum(pp * (np.log(pp) - np.log(qq)))), 0.0)

    def test_softmax_rows_match_1d_formula(self):
        rng = np.random.default_rng(5)
        for rows, n in self.SHAPES:
            z = rng.normal(scale=4.0, size=(rows, n))
            got = softmax_rows(z)
            for i in range(rows):
                assert np.array_equal(got[i], self.softmax_1d(z[i])), (rows, n, i)
                assert np.array_equal(softmax_rows(z[i]), got[i]), (rows, n, i)

    def test_kl_rows_match_1d_formula(self):
        rng = np.random.default_rng(6)
        for rows, n in self.SHAPES:
            p = softmax_rows(rng.normal(scale=4.0, size=(rows, n)))
            # Every other row compares p with a small nudge of itself, where
            # rounding can push the raw sum below zero.
            nudge = softmax_rows(np.log(p) + rng.normal(scale=1e-9, size=(rows, n)))
            other = softmax_rows(rng.normal(scale=4.0, size=(rows, n)))
            q = np.where((np.arange(rows) % 2 == 0)[:, None], nudge, other)
            got = kl_rows(p, q)
            assert got.shape == (rows,)
            for i in range(rows):
                assert got[i] == self.kl_1d(p[i], q[i]), (rows, n, i)
                assert kl_rows(p[i], q[i]) == got[i], (rows, n, i)

    def test_softmax_rows_rejects_non_finite_rows(self):
        with pytest.raises(EmptyInputError):
            softmax_rows(np.array([[0.0, 1.0], [np.nan, 0.0]]))

    SPECIAL = (np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0,
               709.0, -745.0)

    def test_normalizer_check_matches_the_row_sum_check(self):
        # 20,000 arrays of 1 to 4 rows, each entry special with chance 1/4:
        # softmax_rows refuses exactly the inputs the old row-sum check
        # refused, and returns its bits on the rest.
        rng = np.random.default_rng(32)
        refused = 0
        for _ in range(20_000):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            z = rng.normal(scale=10.0 ** rng.integers(0, 4), size=shape)
            special = rng.random(shape) < 0.25
            z[special] = rng.choice(self.SPECIAL, size=int(special.sum()))
            if rng.random() < 0.25:
                z = z[0]
            with np.errstate(all="ignore"):
                got, want = (softmax_outcome(f, z) for f in (softmax_rows, row_sum_softmax))
            assert got == want, z
            refused += got == "refused"
        assert 2_000 < refused < 18_000  # both verdicts are well represented


class TestRowMax:
    """``row_max`` against the reduction it replaces, ``z.max(axis=-1,
    keepdims=True)``: the same bits on every shape, with few rows (one
    reduction per row) or many (down the columns of a transpose). A zero
    maximum may take the other sign, as ``z.max``'s own depends on its SIMD
    lanes; the softmax it feeds keeps its bits."""

    SHAPES = [(1,), (5,), (40,), (1, 1), (9, 1), (2, 3, 1), (1, 7), (7, 7), (8, 7), (16, 63),
              (256, 63), (64, 32), (1, 4, 16, 32), (1, 4, 32, 32), (1, 4, 16, 64), (16, 4, 32, 32)]

    @staticmethod
    def reference(z):
        return z.max(axis=-1, keepdims=True)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_random_rows(self, shape):
        z = np.random.default_rng(41).normal(scale=8.0, size=shape)
        assert same_bits(row_max(z), self.reference(z))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_infinities_and_nan(self, shape):
        # NaN propagates as in z.max, and a row of -inf has a -inf maximum.
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = rng.normal(size=shape)
            special = rng.random(shape) < 0.2
            z[special] = rng.choice([np.inf, -np.inf, np.nan], size=int(special.sum()))
            if z.ndim > 1 and rng.random() < 0.5:
                z[..., 0, :] = -np.inf
            assert same_bits(row_max(z), self.reference(z)), z

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_signed_zero_ties(self, shape):
        rng = np.random.default_rng(43)
        for _ in range(20):
            z = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
            z[rng.random(shape) < 0.3] = -1.5
            got, want = row_max(z), self.reference(z)
            assert got.shape == want.shape and (got == want).all()
            assert same_bits(np.exp(z - got), np.exp(z - want))
            assert same_bits(softmax_rows(z), row_sum_softmax(z))

    def test_is_a_new_array(self):
        # Neither path hands back a view of its input, so ``z -= row_max(z)``
        # subtracts the maxima the rows had.
        for shape in ((3, 8), (8, 3), (4, 1)):
            z = np.random.default_rng(44).normal(size=shape)
            kept = z.copy()
            row_max(z)[...] = 7.0
            assert same_bits(z, kept)

    def test_softmax_refuses_the_same_rows_on_both_paths(self):
        # Up to 40 rows of 1 to 6 columns, so most arrays take the transposed
        # path; the refused rows and the bits are the row-sum check's.
        rng = np.random.default_rng(45)
        refused = 0
        for _ in range(3_000):
            shape = (int(rng.integers(1, 41)), int(rng.integers(1, 7)))
            z = rng.normal(scale=10.0, size=shape)
            special = rng.random(shape) < 0.02
            z[special] = rng.choice(TestRowHelpers.SPECIAL, size=int(special.sum()))
            with np.errstate(all="ignore"):
                got, want = (softmax_outcome(f, z) for f in (softmax_rows, row_sum_softmax))
            assert got == want, z
            refused += got == "refused"
        assert 300 < refused < 2_700  # both verdicts are well represented

    def test_top2_margin(self):
        assert top2_margin(np.array([1.0])) == 1.0
        assert top2_margin(np.array([0.2, 0.5, 0.3])) == 0.5 - 0.3
        pv = random_prob(np.random.default_rng(46), 9)
        assert pv.top2_margin() == top2_margin(pv.probs)


class TestTotalVariation:
    def test_frozen_pair(self):
        p = ProbVector(np.array([0.5, 0.5]))
        q = ProbVector(np.array([0.9, 0.1]))
        assert total_variation(p, q) == pytest.approx(0.4, abs=1e-12)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            n = int(rng.integers(2, 10))
            p = random_prob(rng, n)
            q = random_prob(rng, n)
            tv = total_variation(p, q)
            assert 0.0 <= tv <= 1.0 + 1e-12
            assert tv == pytest.approx(total_variation(q, p), abs=1e-15)

    def test_support_mismatch_rejected(self):
        p = ProbVector(np.array([1.0]), (1,))
        q = ProbVector(np.array([1.0]), (2,))
        with pytest.raises(SupportMismatchError):
            total_variation(p, q)


class TestTruncatedSvd:
    def test_matches_dense_svd_on_fixed_matrix(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 4))
        u, s = truncated_svd(m, 2)
        np.testing.assert_allclose(
            s, [3.338373964112867, 2.5097664273257747], rtol=1e-9
        )
        # Columns span the same subspace as the reference top-2 left vectors.
        u_ref = np.linalg.svd(m, full_matrices=False)[0][:, :2]
        overlap = np.linalg.svd(u.T @ u_ref, compute_uv=False)
        np.testing.assert_allclose(overlap, [1.0, 1.0], atol=1e-9)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            rows = int(rng.integers(2, 12))
            cols = int(rng.integers(2, 12))
            k = int(rng.integers(1, min(rows, cols) + 1))
            m = rng.normal(size=(rows, cols))
            u, s = truncated_svd(m, k)
            assert u.shape == (rows, k)
            np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-8)
            assert np.all(np.diff(s) <= 1e-12)
            assert np.all(s >= 0.0)

    def test_best_rank_k_energy(self):
        # Projection onto the returned basis captures the top-k spectral
        # energy of the column space, matched against a dense eigensolver.
        rng = np.random.default_rng(21)
        for _ in range(50):
            rows = int(rng.integers(3, 10))
            cols = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(rows, cols) + 1))
            m = rng.normal(size=(rows, cols))
            u, s = truncated_svd(m, k)
            evals = np.sort(np.linalg.eigvalsh(m @ m.T))[::-1]
            np.testing.assert_allclose(s**2, evals[:k], atol=1e-8)
            captured = np.linalg.norm(u.T @ m) ** 2
            np.testing.assert_allclose(captured, evals[:k].sum(), atol=1e-8)

    def test_tall_and_wide_orientations_agree(self):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(9, 3))
        u_tall, s_tall = truncated_svd(m, 2)
        u_wide, s_wide = truncated_svd(m.T, 2)
        np.testing.assert_allclose(s_tall, s_wide, rtol=1e-9)

    def test_rank_deficient_matrix_completes_basis(self):
        m = np.zeros((5, 3))
        m[:, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        u, s = truncated_svd(m, 2)
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-10)
        assert s[1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "rows, cols, rank",
        [(9, 4, 4), (4, 9, 4), (8, 6, 2)],
        ids=["tall", "wide", "rank_deficient"],
    )
    def test_largest_entry_of_each_column_is_positive(self, rows, cols, rank):
        # The sign rule that keeps stored bases canonical, for every k;
        # on the rank-deficient input it covers zero singular directions.
        rng = np.random.default_rng(21)
        m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        for k in range(1, min(rows, cols) + 1):
            u, _ = truncated_svd(m, k)
            pivots = np.abs(u).argmax(axis=0)
            assert np.all(u[pivots, np.arange(k)] > 0.0), k

    def test_rank_too_large_rejected(self):
        with pytest.raises(RankTooLargeError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(RankTooLargeError):
            truncated_svd(np.ones((2, 5)), 3)

    def test_non_matrix_rejected(self):
        with pytest.raises(DimMismatchError):
            truncated_svd(np.ones(4), 1)
