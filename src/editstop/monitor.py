"""Run-length stability tracking and the early-termination decision.

One alignment row arrives per denoising step: the softmax of the visible
slots' alignment scores, over those slots' positions. Unmasking is
monotone, so consecutive rows share the earlier one's visible support:
both are restricted to it and renormalized, the step-wise KL divergence is
computed on index arrays (``matched_kl_rows``, which finds prev's members
in the current support and refuses a support that shrank), and a
run-length counter tracks how many consecutive steps stayed strictly below
the divergence threshold. The first time the counter reaches the required
span, the block is declared stable and denoising stops.

The decode and the offline trace take one array path per distinct
forward, ``alignment_step`` (the softmax, then the KL against the previous
forward's row), and the decode hands each step's row and divergence to
``StabilityMonitor.take_row``. ``StabilityMonitor.observe`` is the same
update for a caller that holds ``AlignmentDistribution`` objects; it
serves the tests' object-path oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .alignment import AlignmentDistribution
from .errors import NonMonotoneVisibleSetError
from .linalg import PROB_FLOOR, kl_rows, softmax_rows
from .metaformat import csv_text


@dataclass(frozen=True)
class StopConfig:
    """The block stop rule: stop once ``omega`` consecutive step divergences
    fall strictly below ``delta``; ``tau_blk`` is the alignment softmax's
    temperature. Every block of a run uses the same rule."""

    delta: float = 0.05
    omega: int = 6
    tau_blk: float = 1.0

    def __post_init__(self):
        # delta == 0.0 is the degenerate limit: with the strict comparison
        # no step ever counts as stable, so stopping is disabled entirely.
        if math.isnan(self.delta) or self.delta < 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        if not self.tau_blk > 0.0:
            raise ValueError(f"tau_blk must be positive, got {self.tau_blk}")


class StopReason(Enum):
    RUN_LENGTH_MET = "run_length_met"
    BUDGET_EXHAUSTED = "budget_exhausted"
    STILL_RUNNING = "still_running"


@dataclass(frozen=True)
class StopDecision:
    step: int
    reason: StopReason
    final_counter: int

    @property
    def stop(self) -> bool:
        return self.reason is not StopReason.STILL_RUNNING


@dataclass(frozen=True)
class TraceRow:
    step: int
    divergence: float  # always finite: the monitor skips no step
    matched_support: int
    counter: int
    stopped: bool


def matched_kl_rows(
    curr: np.ndarray, curr_members, prev: np.ndarray, prev_members
) -> np.ndarray:
    """Row-wise KL of ``curr`` ``(n, k)`` from ``prev`` ``(n, j)`` on prev's support.

    Column ``i`` of ``curr`` carries ``curr_members[i]``, and likewise for
    ``prev``; both member lists are sorted. One ``np.searchsorted`` finds
    prev's members among curr's, and a member of prev's that curr lacks
    raises ``NonMonotoneVisibleSetError``. Each side is restricted to
    prev's support and renormalized, floored at ``PROB_FLOOR`` and handed
    to ``kl_rows``; returns ``(n,)``.
    """
    have = np.array(curr_members)
    idx = have.searchsorted(prev_members)
    # A list compare of these few members costs less than an array ``any``.
    if have.take(idx, mode="clip").tolist() != list(prev_members):
        raise NonMonotoneVisibleSetError(f"{list(prev_members)} not within {have.tolist()}")
    # A column gather comes back column-major, and a row sum over it
    # differs in the last bits from the sum of that row alone; a row-major
    # copy keeps row ``i`` bit for bit the one-row result.
    sub = np.ascontiguousarray(curr[:, idx])
    p = np.maximum(sub / np.add.reduce(sub, axis=-1, keepdims=True), PROB_FLOOR)
    q = np.maximum(prev / np.add.reduce(prev, axis=-1, keepdims=True), PROB_FLOOR)
    return kl_rows(p, q)


def alignment_step(scores: np.ndarray, members, tau_blk: float, prev, prev_members):
    """One distinct forward's alignment rows and their step divergences.

    ``scores`` is ``(n, k)``: ``n`` maps' scores of the visible slots
    ``members`` (sorted). Returns ``softmax_rows(scores / tau_blk)`` and its
    ``(n,)`` ``matched_kl_rows`` against the previous distinct forward's
    ``(n, j)`` rows ``prev`` over ``prev_members``; None in place of the
    divergences when ``prev`` is None (the block's first forward).
    """
    probs = softmax_rows(scores / tau_blk)
    if prev is None:
        return probs, None
    return probs, matched_kl_rows(probs, members, prev, prev_members)


class StabilityMonitor:
    """The stop rule's whole record for one block: the run-length
    ``counter``, one ``TraceRow`` per advanced step, the step a stop fired
    at (``stopped_at``, None until one fires or after a refused one) and
    the last alignment row it took: the ``(1, k)`` array ``prev_probs``
    (None before the first) over the sorted positions ``prev_members``, at
    step ``prev_step``."""

    def __init__(self, cfg: StopConfig):
        self.cfg = cfg
        self.counter = 0
        self.divergence_trace: list[TraceRow] = []
        self.stopped_at: int | None = None
        self.prev_probs: np.ndarray | None = None
        self.prev_members: Sequence[int] = ()
        self.prev_step = 0

    def take_row(self, probs: np.ndarray, members, step: int, d_t: float | None) -> StopDecision:
        """Take the alignment row ``probs`` over ``members`` at ``step``,
        which diverges by ``d_t`` from the last row taken.

        The block's first row (``d_t`` None) has no predecessor to compare
        against and leaves the counter untouched; every later step advances
        it with ``d_t`` over the previous row's support. A step that
        repeats its predecessor passes the same row again with 0.0.
        """
        matched = len(self.prev_members)
        self.prev_probs, self.prev_members, self.prev_step = probs, members, step
        if d_t is None:
            return StopDecision(step, StopReason.STILL_RUNNING, 0)
        return self.advance(d_t, step, matched_support=matched)

    def observe(self, dist: AlignmentDistribution) -> StopDecision:
        """``take_row`` for an ``AlignmentDistribution``: the object form
        of a step, whose divergence is the same ``matched_kl_rows`` of the
        same rows; the last distribution handed in again (a repeated step)
        diverges by 0.0 without one. A distribution whose step does not
        advance, or whose support dropped a member of the last row's, is
        refused and leaves the monitor as it was."""
        if self.prev_probs is not None and dist.step <= self.prev_step:
            raise NonMonotoneVisibleSetError(
                f"step {dist.step} does not advance past {self.prev_step}"
            )
        p = dist.dist
        probs = p.probs[None]
        if self.prev_probs is None:
            d_t = None
        elif self.prev_probs.base is p.probs:
            # The last distribution again diverges from itself by exactly 0.0.
            d_t = 0.0
        else:
            # Refuses a support that dropped a member of prev's.
            d_t = float(matched_kl_rows(probs, p.support, self.prev_probs, self.prev_members)[0])
        return self.take_row(probs, p.support, dist.step, d_t)

    def advance(self, d_t: float, step: int, matched_support: int = 0) -> StopDecision:
        """Advance the run-length counter with the divergence observed at ``step``.

        Strictly-below-threshold divergences increment; anything at or above
        the threshold resets to zero. The stop fires the first time the
        counter reaches the span.
        """
        if d_t < 0.0 or math.isnan(d_t):
            raise ValueError(f"divergence must be nonnegative, got {d_t}")
        if d_t < self.cfg.delta:
            self.counter += 1
        else:
            self.counter = 0
        fired = self.stopped_at is None and self.counter >= self.cfg.omega
        if fired:
            self.stopped_at = step
        self.divergence_trace.append(
            TraceRow(step, d_t, matched_support, self.counter, fired)
        )
        if self.stopped_at is not None:
            return StopDecision(self.stopped_at, StopReason.RUN_LENGTH_MET, self.counter)
        return StopDecision(step, StopReason.STILL_RUNNING, self.counter)

    def reject(self, step: int) -> None:
        """Release the stop that fired at ``step`` after the caller refused it.

        The counter is kept, so the next sub-threshold step fires again.
        """
        if self.stopped_at != step:
            raise ValueError(f"no stop fired at step {step} (stopped at {self.stopped_at})")
        self.stopped_at = None


def trace_to_csv(monitor: StabilityMonitor) -> str:
    """Divergence trace as CSV text (step, divergence, support, counter, stop)."""
    return csv_text(
        ["step", "divergence", "matched_support", "counter", "stopped"],
        (
            [row.step, repr(row.divergence), row.matched_support, row.counter, int(row.stopped)]
            for row in monitor.divergence_trace
        ),
    )
