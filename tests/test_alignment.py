"""Tests for activation scoring and alignment distributions."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import frame_from, reference_scores

from editstop.alignment import (
    ActivationFrame,
    SimilarityMode,
    VisibleSet,
    _row_norms,
    score_alignment,
    score_frame,
)
from editstop.capture import EvolutionVector, build_subspace
from editstop.errors import DimMismatchError, EmptyVisibleSetError, NonPositiveTemperatureError
from editstop.linalg import NORM_FLOOR, softmax_rows


def unit_map(d=2) -> EvolutionVector:
    u = np.zeros(d)
    u[0] = 1.0
    return EvolutionVector(u, "m", 4)


def rows_of(vectors: dict[int, np.ndarray]) -> np.ndarray:
    """The ``(n, d)`` activation rows of ``frame_from(vectors)``."""
    return frame_from(vectors).activations


def cosine_frame(cosines: dict[int, float], step: int = 0) -> ActivationFrame:
    """Frame whose rows score ``cosines`` against ``unit_map()``."""
    return frame_from({s: np.array([c, np.sqrt(1.0 - c * c)]) for s, c in cosines.items()}, step)


class TestVisibleSet:
    def test_sorted_membership(self):
        v = VisibleSet((0, 3, 7))
        assert len(v) == 3
        assert v.members == (0, 3, 7)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            VisibleSet((3, 1))
        with pytest.raises(ValueError):
            VisibleSet((1, 1))
        with pytest.raises(ValueError):
            VisibleSet((-1, 2))


class TestActivationFrame:
    def test_keys_must_match_visible(self):
        with pytest.raises(ValueError):
            ActivationFrame(0, np.ones((1, 2)), VisibleSet((0, 1)))
        with pytest.raises(DimMismatchError):
            ActivationFrame(0, np.ones(2), VisibleSet((0, 1)))

    def test_activations_read_only(self):
        f = frame_from({0: np.ones(3)})
        with pytest.raises(ValueError):
            f.activations[0][0] = 5.0


class TestScoreAlignment:
    def test_identical_vector_scores_one(self):
        u = np.array([0.3, 0.4, 0.5])
        scores = score_alignment(
            rows_of({2: u.copy()}), EvolutionVector(u, "m", 4)
        )
        assert scores.shape == (1,)
        assert scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_cosine_example(self):
        scores = score_alignment(
            rows_of({0: np.array([3.0, 4.0])}),
            EvolutionVector(np.array([4.0, 3.0]), "m", 4),
        )
        assert scores[0] == pytest.approx(0.96, abs=1e-12)

    def test_cosine_range(self):
        rng = np.random.default_rng(60)
        u = EvolutionVector(rng.random(6) + 0.1, "m", 4)
        for _ in range(200):
            scores = score_alignment(rows_of({0: rng.normal(size=6)}), u)
            assert -1.0 <= scores[0] <= 1.0

    def test_zero_activation_gets_cosine_minimum(self):
        scores = score_alignment(
            rows_of({0: np.zeros(2), 1: np.array([1.0, 0.0])}), unit_map()
        )
        assert scores[0] == -1.0
        assert scores[1] == pytest.approx(1.0)

    def test_subspace_norm_is_projection_length(self):
        rng = np.random.default_rng(61)
        basis = build_subspace(rng.normal(size=(8, 4)), 2, "m")
        f = rng.normal(size=8)
        mode = SimilarityMode.SUBSPACE_NORM
        scores = score_alignment(rows_of({0: f}), basis, mode)
        assert scores[0] == pytest.approx(np.linalg.norm(basis.columns.T @ f), rel=1e-12)

    def test_subspace_cosine_orthogonal_is_zero(self):
        basis = build_subspace(np.eye(4, 2), 2, "m")
        f = np.array([0.0, 0.0, 1.0, 2.0])
        mode = SimilarityMode.SUBSPACE_COSINE
        scores = score_alignment(rows_of({0: f}), basis, mode)
        assert scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_subspace_cosine_in_unit_interval(self):
        rng = np.random.default_rng(62)
        basis = build_subspace(rng.normal(size=(8, 4)), 3, "m")
        mode = SimilarityMode.SUBSPACE_COSINE
        for _ in range(300):
            scores = score_alignment(rows_of({0: rng.normal(size=8)}), basis, mode)
            assert 0.0 <= scores[0] <= 1.0

    def test_zero_activation_gets_subspace_minimum(self):
        basis = build_subspace(np.eye(4, 2), 2, "m")
        for mode in (SimilarityMode.SUBSPACE_NORM, SimilarityMode.SUBSPACE_COSINE):
            scores = score_alignment(rows_of({0: np.zeros(4)}), basis, mode)
            assert scores[0] == 0.0

    def test_activation_rescaling_preserves_cosine_scores(self):
        rng = np.random.default_rng(63)
        u = EvolutionVector(rng.random(5) + 0.1, "m", 4)
        basis = build_subspace(rng.normal(size=(5, 3)), 2, "m")
        vecs = {i: rng.normal(size=5) for i in range(4)}
        lam = 7.3
        scaled = {i: lam * v for i, v in vecs.items()}
        for reasoning_map, mode in [
            (u, SimilarityMode.VECTOR_COSINE),
            (basis, SimilarityMode.SUBSPACE_COSINE),
        ]:
            s1 = score_alignment(rows_of(vecs), reasoning_map, mode)
            s2 = score_alignment(rows_of(scaled), reasoning_map, mode)
            np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)

    def test_subspace_norm_scales_with_activation(self):
        rng = np.random.default_rng(64)
        basis = build_subspace(rng.normal(size=(5, 3)), 2, "m")
        f = rng.normal(size=5)
        mode = SimilarityMode.SUBSPACE_NORM
        s1 = score_alignment(rows_of({0: f}), basis, mode)[0]
        s2 = score_alignment(rows_of({0: 3.0 * f}), basis, mode)[0]
        assert s2 == pytest.approx(3.0 * s1, rel=1e-12)

    def test_map_rescaling_preserves_vector_cosine(self):
        rng = np.random.default_rng(65)
        base = rng.random(6) + 0.1
        vecs = {i: rng.normal(size=6) for i in range(3)}
        s1 = score_alignment(rows_of(vecs), EvolutionVector(base, "m", 4))
        s2 = score_alignment(rows_of(vecs), EvolutionVector(4.2 * base, "m", 4))
        np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)

    def test_extending_visible_set_keeps_existing_scores(self):
        rng = np.random.default_rng(66)
        u = EvolutionVector(rng.random(4) + 0.1, "m", 4)
        vecs = {0: rng.normal(size=4), 2: rng.normal(size=4)}
        before = score_alignment(rows_of(vecs), u)
        vecs[3] = rng.normal(size=4)
        after = score_alignment(rows_of(vecs), u)
        # Tokens 0 and 2 are rows 0 and 1 of both frames.
        assert before.tolist() == after[:2].tolist()

    def test_matches_per_token_reference(self):
        rng = np.random.default_rng(76)
        u = EvolutionVector(rng.random(8) + 0.1, "m", 4)
        basis = build_subspace(rng.normal(size=(8, 4)), 3, "m")
        vecs = {s: rng.normal(size=8) for s in (1, 3, 4, 9)}
        vecs[4] = np.zeros(8)
        for reasoning_map, mode in [
            (u, SimilarityMode.VECTOR_COSINE),
            (basis, SimilarityMode.SUBSPACE_NORM),
            (basis, SimilarityMode.SUBSPACE_COSINE),
        ]:
            got = score_alignment(rows_of(vecs), reasoning_map, mode)
            want = reference_scores(vecs, reasoning_map, mode)
            # Row i scores members[i], the tokens in increasing order.
            members = sorted(vecs)
            assert got.shape == (len(members),)
            assert got[members.index(4)] == mode.minimum_score
            np.testing.assert_allclose(
                got, [want[s] for s in members], rtol=1e-12, atol=1e-15
            )

    def test_stacked_frames_score_as_one_call_per_frame(self):
        # Frames of 1..16 rows (136 in all), some rows zero, scored in one
        # call over their stacked rows give each frame's own scores.
        rng = np.random.default_rng(77)
        u = EvolutionVector(rng.random(64) + 0.1, "m", 4)
        basis = build_subspace(rng.normal(size=(64, 8)), 3, "m")
        frames = [rng.normal(size=(n, 64)) for n in range(1, 17)]
        for n, row in ((1, 0), (4, 2), (16, 15)):
            frames[n - 1][row] = 0.0
        stacked = np.concatenate(frames)
        bounds = np.cumsum([len(f) for f in frames])[:-1]
        for reasoning_map, mode in [
            (u, SimilarityMode.VECTOR_COSINE),
            (basis, SimilarityMode.SUBSPACE_NORM),
            (basis, SimilarityMode.SUBSPACE_COSINE),
        ]:
            parts = np.split(score_alignment(stacked, reasoning_map, mode), bounds)
            for frame, part in zip(frames, parts):
                assert part.tobytes() == score_alignment(frame, reasoning_map, mode).tobytes()

    def test_rows_must_be_two_dimensional(self):
        with pytest.raises(DimMismatchError):
            score_alignment(np.ones(2), unit_map())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            score_alignment(rows_of({0: np.ones(3)}), unit_map(2))

    def test_map_kind_must_match_mode(self):
        basis = build_subspace(np.eye(4, 2), 2, "m")
        with pytest.raises(DimMismatchError):
            score_alignment(rows_of({0: np.ones(4)}), basis, SimilarityMode.VECTOR_COSINE)
        with pytest.raises(DimMismatchError):
            score_alignment(
                rows_of({0: np.ones(2)}),
                unit_map(),
                SimilarityMode.SUBSPACE_NORM,
            )


def numpy_scores(acts, reasoning_map, mode):
    """``score_alignment`` as written with ``np.linalg.norm`` and ``np.clip``."""
    if mode is SimilarityMode.SUBSPACE_NORM:
        return np.linalg.norm(np.einsum("ij,jk->ik", acts, reasoning_map.columns), axis=1)
    norms = np.linalg.norm(acts, axis=1)
    live = norms >= NORM_FLOOR
    if mode is SimilarityMode.VECTOR_COSINE:
        norm_u = reasoning_map.norm()
        live &= norm_u >= NORM_FLOOR
        cosines = np.einsum("ij,j->i", acts, reasoning_map.u) / np.where(live, norms * norm_u, 1.0)
        raw = np.clip(cosines, -1.0, 1.0)
    else:
        coords = np.einsum("ij,jk->ik", acts, reasoning_map.columns)
        raw = np.minimum(np.linalg.norm(coords, axis=1) / np.where(live, norms, 1.0), 1.0)
    return np.where(live, raw, mode.minimum_score)


class TestScoringUfuncs:
    """``score_alignment`` calls the ufuncs that ``np.linalg.norm(axis=1)``
    and ``np.clip`` run, without their Python layers: the same bits."""

    def test_row_norms_are_linalg_norm(self):
        rng = np.random.default_rng(32)
        for _ in range(2000):
            a = rng.normal(scale=10.0 ** rng.integers(-150, 150), size=(
                int(rng.integers(1, 17)), int(rng.integers(1, 65))))
            a[rng.random(a.shape[0]) < 0.1] = 0.0
            assert _row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()

    def test_scores_are_the_numpy_calls_bits(self):
        # Rows along ±u have cosines that round past ±1, so the clip acts.
        rng = np.random.default_rng(33)
        for _ in range(2000):
            d = int(rng.integers(2, 65))
            u = EvolutionVector(np.abs(rng.normal(size=d)), "m", 4)
            basis = build_subspace(rng.normal(size=(d, 6)), int(rng.integers(1, min(d, 6) + 1)), "m")
            acts = rng.normal(size=(int(rng.integers(1, 17)), d))
            along = rng.random(len(acts)) < 0.3
            acts[along] = rng.normal(size=(int(along.sum()), 1)) * u.u
            acts[rng.random(len(acts)) < 0.1] = 0.0
            for reasoning_map, mode in [
                (u, SimilarityMode.VECTOR_COSINE),
                (basis, SimilarityMode.SUBSPACE_NORM),
                (basis, SimilarityMode.SUBSPACE_COSINE),
            ]:
                got = score_alignment(acts, reasoning_map, mode)
                assert got.tobytes() == numpy_scores(acts, reasoning_map, mode).tobytes(), mode


class TestSimilarityMode:
    def test_minimum_scores(self):
        assert SimilarityMode.VECTOR_COSINE.minimum_score == -1.0
        assert SimilarityMode.SUBSPACE_NORM.minimum_score == 0.0


class TestAlignmentDistribution:
    """``score_frame``'s softmax of the scores over the visible tokens."""

    def test_singleton_gets_probability_one(self):
        d = score_frame(cosine_frame({4: 0.37}), unit_map())
        assert d.dist.support == (4,)
        assert d.dist.probs[0] == pytest.approx(1.0)

    def test_equal_scores_uniform(self):
        d = score_frame(cosine_frame({s: 0.5 for s in range(4)}), unit_map())
        np.testing.assert_allclose(d.dist.probs, 0.25, rtol=1e-12)

    def test_frozen_two_score_example(self):
        d = score_frame(cosine_frame({0: 0.2, 1: 0.8}), unit_map())
        np.testing.assert_allclose(
            d.dist.probs, [0.3543436937742045, 0.6456563062257954], rtol=1e-12
        )

    def test_support_equals_visible_set(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            members = tuple(sorted(rng.choice(16, size=rng.integers(1, 8), replace=False)))
            cosines = {s: float(rng.uniform(-1.0, 1.0)) for s in members}
            d = score_frame(cosine_frame(cosines, step=3), unit_map(), tau_blk=1.0)
            assert d.dist.support == members
            assert d.step == 3

    def test_empty_visible_set_rejected(self):
        empty = ActivationFrame(0, np.zeros((0, 2)), VisibleSet(()))
        with pytest.raises(EmptyVisibleSetError):
            score_frame(empty, unit_map())


class TestScoreFrame:
    def test_composition_matches_manual_pipeline(self):
        rng = np.random.default_rng(68)
        u = EvolutionVector(rng.random(4) + 0.1, "m", 4)
        frame = frame_from({i: rng.normal(size=4) for i in (0, 2, 5)}, step=7)
        d = score_frame(frame, u, tau_blk=0.7)
        manual = softmax_rows(score_alignment(frame.activations, u) / 0.7)
        np.testing.assert_array_equal(d.dist.probs, manual)
        assert d.dist.support == frame.visible.members == (0, 2, 5)
        assert d.step == 7

    def test_rejects_bad_temperature(self):
        frame = cosine_frame({0: 0.2, 1: 0.8})
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(NonPositiveTemperatureError):
                score_frame(frame, unit_map(), tau_blk=tau)

    def test_rescaled_activations_same_distribution(self):
        rng = np.random.default_rng(69)
        u = EvolutionVector(rng.random(4) + 0.1, "m", 4)
        vecs = {i: rng.normal(size=4) for i in range(5)}
        d1 = score_frame(frame_from(vecs), u)
        d2 = score_frame(frame_from({i: 2.5 * v for i, v in vecs.items()}), u)
        np.testing.assert_allclose(d1.dist.probs, d2.dist.probs, atol=1e-12)
