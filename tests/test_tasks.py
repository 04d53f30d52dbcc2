"""Tests for the synthetic task generators."""

from __future__ import annotations

import numpy as np
import pytest

from editstop.tasks import SyntheticTask, make_task


class TestTargets:
    def test_copy_reverse(self):
        task = SyntheticTask("copy_reverse", 63, 4)
        np.testing.assert_array_equal(
            task.target_for(np.array([5, 1, 9, 2])), [2, 9, 1, 5]
        )

    def test_modular_sum_running_prefix(self):
        task = SyntheticTask("modular_sum", 63, 5)
        np.testing.assert_array_equal(
            task.target_for(np.array([3, 9, 9, 0, 1])), [3, 2, 1, 1, 2]
        )

    def test_sort_small(self):
        task = SyntheticTask("sort_small", 63, 5)
        np.testing.assert_array_equal(
            task.target_for(np.array([4, 0, 7, 7, 2])), [0, 2, 4, 7, 7]
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTask("palindrome", 63, 4)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 3), ()])
    def test_wrong_prompt_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            SyntheticTask("sort_small", 8, 3).target_for(np.zeros(shape, dtype=np.int64))

    def test_out_of_range_prompt_rejected(self):
        task = SyntheticTask("copy_reverse", 8, 3)
        with pytest.raises(ValueError):
            task.target_for(np.array([1, 2, 8]))


class TestSampling:
    def test_samples_never_contain_mask_token(self):
        task = make_task("copy_reverse", vocab_size=64, block_length=16)
        rng = np.random.default_rng(3)
        for _ in range(50):
            prompt, target = task.sample(rng)
            assert prompt.max() < 63 and target.max() < 63

    def test_modular_sum_stays_in_digit_range(self):
        task = make_task("modular_sum", vocab_size=64, block_length=8)
        rng = np.random.default_rng(4)
        prompts, targets = task.sample_batch(rng, 40)
        assert prompts.max() < 10 and targets.max() < 10

    def test_deterministic_given_seed(self):
        task = make_task("sort_small", 64, 8)
        a = task.sample_batch(np.random.default_rng(11), 5)
        b = task.sample_batch(np.random.default_rng(11), 5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("name", ["copy_reverse", "modular_sum", "sort_small"])
    def test_batch_equals_per_sample_draws(self, name):
        # One target_for call over the batch, and the random stream of n
        # sample calls: the same prompts and targets, bit for bit.
        task = make_task(name, 64, 16)
        prompts, targets = task.sample_batch(np.random.default_rng(12), 16)
        rng = np.random.default_rng(12)
        rows = [task.sample(rng) for _ in range(16)]
        for got, want in ((prompts, [p for p, _ in rows]), (targets, [t for _, t in rows])):
            want = np.stack(want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert task.sample_batch(np.random.default_rng(12), 0)[1].shape == (0, 16)

    def test_exact_match(self):
        task = make_task("copy_reverse", 64, 4)
        target = np.array([1, 2, 3, 4])
        assert task.exact_match(np.array([1, 2, 3, 4]), target)
        assert not task.exact_match(np.array([1, 2, 3, 5]), target)
        assert not task.exact_match(np.array([1, 2, 3]), target)
