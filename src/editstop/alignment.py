"""Scoring of per-step activations against the persisted training map.

At each denoising step the model exposes one activation vector per
visible token, held together as the rows of one (n, d) array. All rows
are scored at once against either the row-energy vector or the low-rank
basis recovered from training, and the scores are pushed through a
fixed-temperature softmax over exactly the visible token positions.
Downstream stability tracking consumes only these distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .capture import EvolutionVector, SubspaceBasis
from .errors import DimMismatchError, EmptyVisibleSetError
from .linalg import NORM_FLOOR, ProbVector, softmax

DEFAULT_BLOCK_TEMPERATURE = 1.0
DEFAULT_SUBSPACE_K = 3


class SimilarityVariant(Enum):
    VECTOR_COSINE = "vector_cosine"
    SUBSPACE_NORM = "subspace_norm"
    SUBSPACE_COSINE = "subspace_cosine"


@dataclass(frozen=True)
class SimilarityMode:
    variant: SimilarityVariant = SimilarityVariant.VECTOR_COSINE
    basis_k: int | None = None

    def __post_init__(self):
        subspace = self.variant is not SimilarityVariant.VECTOR_COSINE
        if subspace and self.basis_k is None:
            object.__setattr__(self, "basis_k", DEFAULT_SUBSPACE_K)
        if not subspace and self.basis_k is not None:
            raise ValueError("basis_k only applies to subspace variants")

    @property
    def minimum_score(self) -> float:
        """Score assigned to a degenerate (zero-norm) activation."""
        if self.variant is SimilarityVariant.VECTOR_COSINE:
            return -1.0
        return 0.0


@dataclass(frozen=True)
class VisibleSet:
    """Sorted token positions currently unmasked within a block."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        if any(m < 0 for m in members):
            raise ValueError(f"negative token index in {members}")
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValueError(f"members must be strictly increasing, got {members}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: int) -> bool:
        return item in self.members


@dataclass(frozen=True)
class ActivationFrame:
    """Post-adapter activations of the visible tokens at one step.

    ``activations`` is one read-only (n, d) array whose row ``i`` belongs
    to ``visible.members[i]``.
    """

    step: int
    activations: np.ndarray
    visible: VisibleSet

    def __post_init__(self):
        arr = np.array(self.activations, dtype=np.float64)
        if arr.ndim != 2:
            raise DimMismatchError(f"activations must be 2-D, got shape {arr.shape}")
        if arr.shape[0] != len(self.visible):
            raise ValueError(
                f"{arr.shape[0]} activation rows for visible set {self.visible.members}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "activations", arr)

    @property
    def d_out(self) -> int:
        return self.activations.shape[1]


@dataclass(frozen=True)
class AlignmentDistribution:
    dist: ProbVector
    step: int
    temperature_used: float
    scores: dict[int, float] = field(compare=False)

    def __post_init__(self):
        if tuple(sorted(self.scores)) != self.dist.support:
            raise ValueError("score keys must match the distribution support")


def score_alignment(
    frame: ActivationFrame,
    reasoning_map: EvolutionVector | SubspaceBasis,
    mode: SimilarityMode = SimilarityMode(),
) -> dict[int, float]:
    """Similarity of each visible token's activation to the training map.

    Every row of the frame is scored by one array expression per
    variant. Zero-norm activations never abort scoring; they are pinned
    to the mode's minimum score so they cannot win the alignment softmax.
    """
    if len(frame.visible) == 0:
        raise EmptyVisibleSetError("cannot score a frame with no visible tokens")
    want_vector = mode.variant is SimilarityVariant.VECTOR_COSINE
    if want_vector and not isinstance(reasoning_map, EvolutionVector):
        raise DimMismatchError("vector_cosine requires an EvolutionVector map")
    if not want_vector and not isinstance(reasoning_map, SubspaceBasis):
        raise DimMismatchError(f"{mode.variant.value} requires a SubspaceBasis map")
    if frame.d_out != reasoning_map.d_out:
        raise DimMismatchError(
            f"activation length {frame.d_out} != map dimension {reasoning_map.d_out}"
        )

    # Row-wise einsum rather than a BLAS matmul: BLAS blocks rows, so a
    # row's score could change in its last bits with the number of rows
    # scored alongside it.
    acts = frame.activations
    if mode.variant is SimilarityVariant.SUBSPACE_NORM:
        scores = np.linalg.norm(np.einsum("ij,jk->ik", acts, reasoning_map.columns), axis=1)
    else:
        norms = np.linalg.norm(acts, axis=1)
        live = norms >= NORM_FLOOR
        if mode.variant is SimilarityVariant.VECTOR_COSINE:
            u = reasoning_map.u
            norm_u = float(np.linalg.norm(u))
            live &= norm_u >= NORM_FLOOR
            cosines = np.einsum("ij,j->i", acts, u) / np.where(live, norms * norm_u, 1.0)
            raw = np.clip(cosines, -1.0, 1.0)
        else:
            coords = np.einsum("ij,jk->ik", acts, reasoning_map.columns)
            raw = np.minimum(np.linalg.norm(coords, axis=1) / np.where(live, norms, 1.0), 1.0)
        scores = np.where(live, raw, mode.minimum_score)
    return dict(zip(frame.visible.members, scores.tolist()))


def alignment_distribution(
    scores: dict[int, float],
    visible: VisibleSet,
    tau_blk: float = DEFAULT_BLOCK_TEMPERATURE,
    step: int = 0,
) -> AlignmentDistribution:
    """Softmax of the scores over exactly the visible support."""
    if len(visible) == 0:
        raise EmptyVisibleSetError("cannot build a distribution on an empty visible set")
    if set(scores.keys()) != set(visible.members):
        raise ValueError(
            f"score keys {sorted(scores)} do not match visible set {visible.members}"
        )
    raw = np.array([scores[s] for s in visible.members], dtype=np.float64)
    dist = softmax(raw, temperature=tau_blk, support=visible.members)
    return AlignmentDistribution(
        dist=dist,
        step=step,
        temperature_used=tau_blk,
        scores={s: float(scores[s]) for s in visible.members},
    )


def score_frame(
    frame: ActivationFrame,
    reasoning_map: EvolutionVector | SubspaceBasis,
    mode: SimilarityMode = SimilarityMode(),
    tau_blk: float = DEFAULT_BLOCK_TEMPERATURE,
) -> AlignmentDistribution:
    """Convenience composition of scoring and softmax for one frame."""
    scores = score_alignment(frame, reasoning_map, mode)
    return alignment_distribution(scores, frame.visible, tau_blk, frame.step)
