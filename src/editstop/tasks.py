"""Synthetic sequence tasks with exact-match scoring.

Each task maps a prompt block to a target block through a deterministic
rule, so generated outputs can be scored by exact match and paired runs
can be compared token for token. Prompts never contain the mask token,
which is reserved as the highest id of the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TASK_NAMES = ("copy_reverse", "modular_sum", "sort_small")


@dataclass(frozen=True)
class SyntheticTask:
    """Prompt/target generator for one task family.

    ``usable_vocab`` is the number of real token ids; the mask token sits
    at ``usable_vocab`` and never appears in samples.
    """

    name: str
    usable_vocab: int
    block_length: int

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r}, expected one of {TASK_NAMES}")
        if self.usable_vocab < 2:
            raise ValueError(f"usable_vocab must be >= 2, got {self.usable_vocab}")
        if self.block_length < 2:
            raise ValueError(f"block_length must be >= 2, got {self.block_length}")

    @property
    def modulus(self) -> int:
        """Token range actually drawn from; small for modular_sum so the
        running sums stay inside the same range."""
        if self.name == "modular_sum":
            return min(10, self.usable_vocab)
        return self.usable_vocab

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        prompt = rng.integers(0, self.modulus, size=self.block_length, dtype=np.int64)
        return prompt, self.target_for(prompt)

    def target_for(self, prompt: np.ndarray) -> np.ndarray:
        """Targets of an ``(L,)`` prompt or ``(n, L)`` batch (``L = block_length``)."""
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.ndim not in (1, 2) or prompt.shape[-1] != self.block_length:
            raise ValueError(f"prompt shape {prompt.shape} is not (L,) or (n, L), L = block_length")
        if prompt.size and (prompt.min() < 0 or prompt.max() >= self.modulus):
            raise ValueError("prompt tokens outside the task range")
        if self.name == "copy_reverse":
            return prompt[..., ::-1].copy()
        if self.name == "modular_sum":
            return np.cumsum(prompt, axis=-1) % self.modulus
        return np.sort(prompt, axis=-1)

    def sample_batch(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``n`` prompts drawn as ``n`` :meth:`sample` calls draw them; one target call."""
        prompts = np.empty((n, self.block_length), dtype=np.int64)
        for i in range(n):
            prompts[i] = rng.integers(0, self.modulus, size=self.block_length, dtype=np.int64)
        return prompts, self.target_for(prompts)

    def exact_match(self, output_block: np.ndarray, target: np.ndarray) -> bool:
        output_block = np.asarray(output_block, dtype=np.int64)
        target = np.asarray(target, dtype=np.int64)
        return output_block.shape == target.shape and bool(
            np.array_equal(output_block, target)
        )


def make_task(name: str, vocab_size: int, block_length: int) -> SyntheticTask:
    """Task whose token range fits a model vocabulary with a trailing mask id."""
    return SyntheticTask(name, vocab_size - 1, block_length)
