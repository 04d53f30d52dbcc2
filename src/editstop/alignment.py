"""Scoring of per-step activations against the persisted training map.

At each denoising step the model exposes one activation vector per
visible token, held together as the rows of one (n, d) array. All rows
are scored at once (``score_alignment``) against either the row-energy
vector or the low-rank basis recovered from training, and the scores are
pushed through a fixed-temperature softmax over exactly the visible token
positions. Downstream stability tracking consumes only these
distributions.

The decode and the offline trace take the scores as a bare array into
``monitor.alignment_step``. ``VisibleSet``, ``ActivationFrame``,
``AlignmentDistribution`` and ``score_frame`` are the object form of the
same step: the freezer takes a frame, and the tests keep the object path
as the oracle of the array one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .capture import EvolutionVector, SubspaceBasis
from .errors import DimMismatchError, EmptyVisibleSetError, NonPositiveTemperatureError
from .linalg import NORM_FLOOR, ProbVector, softmax_rows

DEFAULT_BLOCK_TEMPERATURE = 1.0


class SimilarityMode(Enum):
    """How a visible token's activation is scored against the training map.

    ``vector_cosine`` takes the cosine with an ``EvolutionVector``; the
    subspace variants project onto a ``SubspaceBasis``, whose own ``k``
    sets the number of columns, and score the projection's length
    (``subspace_norm``) or its cosine with the activation
    (``subspace_cosine``).
    """

    VECTOR_COSINE = "vector_cosine"
    SUBSPACE_NORM = "subspace_norm"
    SUBSPACE_COSINE = "subspace_cosine"

    @property
    def minimum_score(self) -> float:
        """Score assigned to a degenerate (zero-norm) activation."""
        if self is SimilarityMode.VECTOR_COSINE:
            return -1.0
        return 0.0


@dataclass(frozen=True)
class VisibleSet:
    """Sorted token positions currently unmasked within a block."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(map(int, self.members))
        if min(members, default=0) < 0:
            raise ValueError(f"negative token index in {members}")
        if not all(map(operator.lt, members, members[1:])):
            raise ValueError(f"members must be strictly increasing, got {members}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)


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


@dataclass(frozen=True)
class AlignmentDistribution:
    """The alignment softmax of one step, over that step's visible tokens."""

    dist: ProbVector
    step: int


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)`` of a real 2-D array, bit for bit."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def score_alignment(
    acts: np.ndarray,
    reasoning_map: EvolutionVector | SubspaceBasis,
    mode: SimilarityMode = SimilarityMode.VECTOR_COSINE,
) -> np.ndarray:
    """Similarity of each row of the ``(n, d)`` array ``acts`` to the training map.

    Returns the ``(n,)`` score array; entry ``i`` scores row ``i``. A
    frame's rows are its ``activations``, row ``i`` belonging to
    ``visible.members[i]``; several frames' rows may be stacked and scored
    in one call. Every row is scored by one array expression per variant.
    Zero-norm activations never abort scoring; they are pinned to the
    mode's minimum score so they cannot win the alignment softmax.
    """
    if acts.ndim != 2:
        raise DimMismatchError(f"activations must be 2-D, got shape {acts.shape}")
    if acts.shape[0] == 0:
        raise EmptyVisibleSetError("no activation rows to score")
    want_vector = mode is SimilarityMode.VECTOR_COSINE
    if want_vector and not isinstance(reasoning_map, EvolutionVector):
        raise DimMismatchError("vector_cosine requires an EvolutionVector map")
    if not want_vector and not isinstance(reasoning_map, SubspaceBasis):
        raise DimMismatchError(f"{mode.value} requires a SubspaceBasis map")
    if acts.shape[1] != reasoning_map.d_out:
        raise DimMismatchError(
            f"activation length {acts.shape[1]} != map dimension {reasoning_map.d_out}"
        )

    # Row-wise einsum rather than a BLAS matmul: BLAS blocks rows, so a
    # row's score could change in its last bits with the number of rows
    # scored alongside it. The einsum and the axis-1 norm give each row the
    # same bits whatever the row count. ``_row_norms`` and the clip are the
    # ufuncs ``np.linalg.norm(axis=1)`` and ``np.clip`` run, called directly.
    if mode is SimilarityMode.SUBSPACE_NORM:
        scores = _row_norms(np.einsum("ij,jk->ik", acts, reasoning_map.columns))
    else:
        norms = _row_norms(acts)
        live = norms >= NORM_FLOOR
        if mode is SimilarityMode.VECTOR_COSINE:
            norm_u = reasoning_map.norm()
            live &= norm_u >= NORM_FLOOR
            cosines = np.einsum("ij,j->i", acts, reasoning_map.u) / np.where(
                live, norms * norm_u, 1.0
            )
            raw = np.minimum(np.maximum(cosines, -1.0), 1.0)
        else:
            coords = np.einsum("ij,jk->ik", acts, reasoning_map.columns)
            raw = np.minimum(_row_norms(coords) / np.where(live, norms, 1.0), 1.0)
        scores = np.where(live, raw, mode.minimum_score)
    return scores


def score_frame(
    frame: ActivationFrame,
    reasoning_map: EvolutionVector | SubspaceBasis,
    mode: SimilarityMode = SimilarityMode.VECTOR_COSINE,
    tau_blk: float = DEFAULT_BLOCK_TEMPERATURE,
) -> AlignmentDistribution:
    """The frame's alignment distribution: the ``softmax_rows`` at
    ``tau_blk`` of its ``score_alignment`` scores, over exactly its visible
    tokens."""
    if not tau_blk > 0.0:
        raise NonPositiveTemperatureError(f"tau_blk must be positive, got {tau_blk}")
    scores = score_alignment(frame.activations, reasoning_map, mode)
    dist = ProbVector(softmax_rows(scores / tau_blk), frame.visible.members)
    return AlignmentDistribution(dist, frame.step)
