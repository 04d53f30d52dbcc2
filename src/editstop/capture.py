"""Capture of AdamW optimization dynamics over LoRA parameters.

During supervised fine-tuning, each adapter matrix gets a
:class:`MomentState` fed by :func:`adamw_step`, which returns the step's
update magnitudes; training sums a tracked adapter's magnitudes into one
tensor of its shape, so capture memory does not grow with the step count.
After training their mean is reduced to a per-output-row summary
(:func:`reduce_row_energy` / :func:`reduce_row_mean`) or to a low-rank
orthonormal basis (:func:`build_subspace`), which is what gets persisted
next to the model weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import EmptyInputError, RankTooLargeError, ShapeMismatchError
from .linalg import truncated_svd


@dataclass(frozen=True)
class AdamWConfig:
    # Fixed moment decays and denominator floor; only the learning rate is set.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8
    learning_rate: float = 1e-2

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class MomentState:
    """Exponential moving moments of a single tracked parameter tensor."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "MomentState":
        return cls(np.zeros(shape), np.zeros(shape))


def adamw_step(
    state: MomentState, grad: np.ndarray, cfg: AdamWConfig
) -> tuple[MomentState, np.ndarray]:
    """Advance the moment estimates by one gradient and return the
    element-wise update magnitude.

    The magnitude is ``m' / (sqrt(v') + eps)`` with *no* bias correction;
    the first steps therefore run hot relative to textbook AdamW (about
    (1-beta1)/sqrt(1-beta2) on step one), which is exactly the signal the
    downstream reductions consume.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.m.shape:
        raise ShapeMismatchError(f"grad shape {grad.shape} != state shape {state.m.shape}")
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad * grad
    update = m / (np.sqrt(v) + cfg.epsilon)
    return MomentState(m, v), update


@dataclass(frozen=True)
class EvolutionVector:
    """Per-output-row summary of a module's training dynamics.

    ``u[p]`` is a nonnegative scalar for output row ``p``; ``rank`` records
    the adapter rank the summary was reduced from.
    """

    u: np.ndarray
    module_id: str
    rank: int
    # ``np.linalg.norm(u)``, taken once: every ``vector_cosine`` score reads it.
    _norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        if u.ndim != 1 or u.size == 0:
            raise EmptyInputError("u must be a nonempty 1-D array")
        if not np.all(np.isfinite(u)):
            raise EmptyInputError("u contains non-finite entries")
        if u.min() < 0.0:
            raise ValueError("row summaries must be nonnegative")
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_norm", float(np.linalg.norm(u)))

    @property
    def d_out(self) -> int:
        return self.u.size

    def norm(self) -> float:
        return self._norm


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis for the dominant directions of a module's
    accumulated update tensor."""

    columns: np.ndarray
    source_module: str
    orthogonality_tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.ndim != 2 or cols.size == 0:
            raise EmptyInputError("columns must be a nonempty 2-D array")
        k = cols.shape[1]
        if not 1 <= k <= 8:
            raise RankTooLargeError(f"subspace rank {k} outside [1, 8]")
        gram = cols.T @ cols
        if np.abs(gram - np.eye(k)).max() > self.orthogonality_tol:
            raise ValueError(
                f"columns not orthonormal within {self.orthogonality_tol}"
            )
        cols = cols.copy()
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def d_out(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]


def reduce_row_energy(
    evolution_tensor: np.ndarray, module_id: str = "", rank: int | None = None
) -> EvolutionVector:
    """L2 norm of each output row of the accumulated update tensor."""
    t = _check_tensor(evolution_tensor)
    u = np.linalg.norm(t, axis=1)
    return EvolutionVector(u, module_id, rank if rank is not None else t.shape[1])


def reduce_row_mean(
    evolution_tensor: np.ndarray, module_id: str = "", rank: int | None = None
) -> EvolutionVector:
    """Mean absolute value of each output row (ablation alternative)."""
    t = _check_tensor(evolution_tensor)
    u = np.abs(t).mean(axis=1)
    return EvolutionVector(u, module_id, rank if rank is not None else t.shape[1])


def build_subspace(
    evolution_tensor: np.ndarray, k: int, source_module: str = ""
) -> SubspaceBasis:
    """Top-k left singular directions of the accumulated update tensor."""
    u, _ = truncated_svd(_check_tensor(evolution_tensor), k)
    return SubspaceBasis(u, source_module)


def _check_tensor(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2:
        raise ShapeMismatchError(f"evolution tensor must be 2-D, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise EmptyInputError("evolution tensor contains non-finite entries")
    return t
