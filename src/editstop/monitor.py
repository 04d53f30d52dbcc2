"""Run-length stability tracking and the early-termination decision.

Alignment distributions arrive one per denoising step. Unmasking is
monotone, so consecutive distributions share the earlier one's visible
support: both are restricted to it and renormalized, the step-wise KL
divergence is computed on index arrays (a one-row ``matched_kl_rows``,
which finds prev's members in the current support and refuses a support
that shrank), and a run-length counter tracks how many consecutive steps
stayed strictly below the divergence threshold. The first time the counter reaches the
required span, the block is declared stable and denoising stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .alignment import AlignmentDistribution
from .errors import NonMonotoneVisibleSetError
from .linalg import PROB_FLOOR, kl_rows
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
    p = np.maximum(sub / sub.sum(axis=-1, keepdims=True), PROB_FLOOR)
    q = np.maximum(prev / prev.sum(axis=-1, keepdims=True), PROB_FLOOR)
    return kl_rows(p, q)


class StabilityMonitor:
    """The stop rule's whole record for one block: the run-length
    ``counter``, one ``TraceRow`` per advanced step, the step a stop fired
    at (``stopped_at``, None until one fires or after a refused one) and
    the last distribution ``observe`` accepted (``prev_distribution``)."""

    def __init__(self, cfg: StopConfig):
        self.cfg = cfg
        self.counter = 0
        self.divergence_trace: list[TraceRow] = []
        self.stopped_at: int | None = None
        self.prev_distribution: AlignmentDistribution | None = None

    def observe(self, dist: AlignmentDistribution) -> StopDecision:
        prev = self.prev_distribution
        if prev is None:
            # No predecessor to compare against; counter untouched.
            self.prev_distribution = dist
            return StopDecision(dist.step, StopReason.STILL_RUNNING, 0)
        if dist.step <= prev.step:
            raise NonMonotoneVisibleSetError(
                f"step {dist.step} does not advance past {prev.step}"
            )
        if dist.dist is prev.dist:
            # A repeated distribution diverges from itself by exactly 0.0.
            d_t = 0.0
        else:
            # Refuses a support that dropped a member of prev's.
            p, q = dist.dist, prev.dist
            d_t = float(matched_kl_rows(p.probs[None], p.support, q.probs[None], q.support)[0])
        self.prev_distribution = dist
        return self.advance(d_t, dist.step, matched_support=len(prev.dist))

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
