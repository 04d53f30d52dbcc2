"""Dense linear-algebra and information-theoretic primitives.

Everything here is a pure function over immutable float64 inputs. Vectors
and matrices are plain numpy arrays. The decode's step path works on bare
rows (``row_max``, ``softmax_rows``, ``kl_rows``, ``top2_margin``), calling
the ufunc reductions directly; ``ProbVector`` carries its support
explicitly, so that divergences between distributions over shifting token
sets are computed on matched supports, and serves the object API that
offline analyses and the tests' oracles use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyInputError,
    RankTooLargeError,
    SupportMismatchError,
)

# Floor applied to probabilities before any log ratio; keeps KL finite on
# renormalized supports without visibly perturbing sums (supports here are
# small, so the added mass stays far below the 1e-9 sum tolerance).
PROB_FLOOR = 1e-12

# Norms below this are treated as exactly zero.
NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution over an explicit, ordered support.

    ``probs[i]`` is the probability of ``support[i]``. Entries are floored
    at ``PROB_FLOOR`` so log ratios stay finite; the sum must be within
    1e-9 of one.
    """

    probs: np.ndarray
    support: tuple[int, ...] = field(default=())

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise EmptyInputError("probs must be a nonempty 1-D array")
        support = tuple(map(int, self.support)) if self.support else tuple(range(probs.size))
        if len(support) != probs.size:
            raise SupportMismatchError(
                f"support length {len(support)} != probs length {probs.size}"
            )
        total = float(probs.sum())  # NaN or inf when an entry is non-finite
        if not abs(total - 1.0) <= 1e-9:
            raise EmptyInputError(f"probs are non-finite or sum to {total!r}, not 1 within 1e-9")
        if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-9:
            raise EmptyInputError("probs outside [0, 1]")
        probs = np.maximum(probs, PROB_FLOOR)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "support", support)

    def __len__(self) -> int:
        return self.probs.size

    def argmax_token(self) -> int:
        """Support member with the largest probability; ties break to the
        lowest token index (supports are stored in increasing token order
        everywhere they are built, so np.argmax's first-hit rule matches)."""
        return self.support[int(np.argmax(self.probs))]

    def top2_margin(self) -> float:
        """Gap between the two largest probabilities (:func:`top2_margin`)."""
        return top2_margin(self.probs)


def top2_margin(probs: np.ndarray) -> float:
    """Gap between the two largest entries of the 1-D ``probs``; 1.0 on a singleton."""
    if probs.size == 1:
        return 1.0
    top2 = np.partition(probs, -2)[-2:]
    return float(top2[1] - top2[0])


def row_max(z) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)``, faster where rows outnumber columns.

    A max is exact in any order, so the order of the reduction is free.
    Along a short last axis numpy runs one small reduction per row; with
    more rows than columns this instead reduces down the columns of a
    contiguous transpose, one vectorized ``np.maximum`` per column. A NaN
    propagates as in ``z.max``. Only the sign of a zero maximum (a row whose
    largest entries are ``+0.0`` and ``-0.0``) may differ: ``z.max`` takes it
    from its SIMD lane order, and no ``x - max`` that a softmax exponentiates
    changes its value with it.
    """
    k = z.shape[-1]
    if z.size <= k * k:
        return np.maximum.reduce(z, axis=-1, keepdims=True)
    return np.maximum.reduce(z.reshape(-1, k).T.copy(), axis=0).reshape(*z.shape[:-1], 1)


def softmax_rows(z) -> np.ndarray:
    """Softmax along the last axis with max-subtraction (``row_max``),
    floored at ``PROB_FLOOR``. Row ``i`` is bit for bit the softmax of
    ``z[i]`` alone, so 1-D and row-stacked callers agree exactly.

    A row whose normalizer ``Σ exp(z − max)`` is not finite raises
    ``EmptyInputError``. A row with a finite maximum (``-inf`` entries
    allowed) has a normalizer in ``[1, n]``, and its probabilities sum to
    one within ``n·ε``; a NaN or ``+inf`` entry, or a row of ``-inf``, makes
    it NaN. So this check rejects exactly the rows that a 1e-9 check of the
    normalized rows' sums would."""
    ez = np.exp(z - row_max(z))
    total = np.add.reduce(ez, axis=-1, keepdims=True)
    worst = np.maximum.reduce(total, axis=None)  # NaN when any row's is
    if not np.isfinite(worst):
        raise EmptyInputError(f"a softmax row is non-finite: its normalizer is {float(worst)!r}")
    return np.maximum(ez / total, PROB_FLOOR)


def _check_same_support(p: ProbVector, q: ProbVector) -> None:
    if p.support != q.support:
        raise SupportMismatchError(f"supports differ: {p.support} vs {q.support}")


def kl_rows(p, q) -> np.ndarray:
    """KL(p || q) in nats along the last axis, one value per row.

    Floored probabilities can sum above one, and KL of two near-identical
    vectors that do not sum to one can come out below zero, so each side is
    renormalized first. A result below -1e-12 raises; rounding below zero
    is clamped to 0. Row ``i`` is bit for bit the KL of ``p[i]`` and
    ``q[i]`` alone.
    """
    pp = p / np.add.reduce(p, axis=-1, keepdims=True)
    qq = q / np.add.reduce(q, axis=-1, keepdims=True)
    val = np.add.reduce(pp * (np.log(pp) - np.log(qq)), axis=-1)
    lowest = np.minimum.reduce(val, axis=None)
    if lowest < -1e-12:
        raise ValueError(f"KL computed as {lowest}, below rounding tolerance")
    return np.maximum(val, 0.0)


def kl_divergence(p: ProbVector, q: ProbVector) -> float:
    """KL(p || q) in nats over a shared support (``kl_rows``)."""
    _check_same_support(p, q)
    return float(kl_rows(p.probs, q.probs))


def total_variation(p: ProbVector, q: ProbVector) -> float:
    """Total variation distance 0.5 * sum |p_i - q_i| over a shared support."""
    _check_same_support(p, q)
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def rms(matrix) -> float:
    """Root-mean-square of all entries."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("rms of an empty matrix is undefined")
    return float(np.sqrt(np.mean(np.square(arr))))


def truncated_svd(m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k left singular vectors and singular values of a dense matrix.

    Returns ``(U, s)`` from ``np.linalg.svd``: ``U`` of shape (rows, k)
    with orthonormal columns, and ``s`` the singular values in decreasing
    order. Each column is signed so that its largest-magnitude entry (the
    first, on ties) is positive, which keeps stored bases canonical.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimMismatchError(f"matrix must be 2-D, got shape {m.shape}")
    rows, cols = m.shape
    if not 1 <= k <= min(rows, cols):
        raise RankTooLargeError(f"k={k} outside [1, {min(rows, cols)}]")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    u, s = u[:, :k], s[:k]
    pivots = u[np.abs(u).argmax(axis=0), np.arange(k)]
    return u * np.where(pivots < 0, -1.0, 1.0), s
