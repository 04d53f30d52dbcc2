"""Runtime-checkable stability certificates for run-length stops.

A stop fired by the run-length rule says only "the alignment
distribution moved little for a while". The functions here turn that
into explicit guarantees: a total-variation budget over the stability
window, an argmax-invariance test against the top-2 margin, a tail bound
from an empirically estimated contraction coefficient, and a calibration
routine that picks (threshold, span) pairs backed by a margin quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .alignment import AlignmentDistribution
from .errors import (
    AlphaNotContractiveError,
    EmptyInputError,
    NoAdmissiblePairError,
    NoValidSamplesError,
    SupportMismatchError,
    WindowTooShortError,
)
from .linalg import top2_margin, total_variation
from .monitor import StopConfig

# Calibration search grids (threshold, span).
DELTA_GRID: tuple[float, ...] = (0.025, 0.05, 0.1, 0.25, 0.45, 0.55)
OMEGA_GRID: tuple[int, ...] = (6, 8, 10, 12)

DENOM_FLOOR = 1e-9


def fmt_real(x: float) -> str:
    """Decimal string at 12 significant digits, for stable reports."""
    return "%.12g" % float(x)


@dataclass(frozen=True)
class MarginReport:
    """Top-1 token and top-2 probability margin of one distribution."""

    argmax_index: int
    margin: float
    step: int
    support_size: int

    def __post_init__(self):
        if not 0.0 <= self.margin <= 1.0 + 1e-12:
            raise ValueError(f"margin {self.margin} outside [0, 1]")
        if self.support_size < 1:
            raise ValueError("support_size must be >= 1")
        if self.support_size == 1 and self.margin != 1.0:
            raise ValueError("singleton support has margin 1 by convention")

    @classmethod
    def from_row(cls, probs: np.ndarray, members, step: int) -> "MarginReport":
        """The report of the 1-D alignment row ``probs`` over the sorted
        positions ``members``: ties for the top go to the lowest position,
        as ``np.argmax`` picks the first."""
        return cls(
            argmax_index=members[int(probs.argmax())],
            margin=top2_margin(probs),
            step=step,
            support_size=len(members),
        )

    @classmethod
    def from_distribution(cls, alignment: AlignmentDistribution) -> "MarginReport":
        """``from_row`` of an ``AlignmentDistribution``."""
        pv = alignment.dist
        return cls.from_row(pv.probs, pv.support, alignment.step)


def tv_budget(delta: float, omega: int) -> float:
    """Worst-case TV movement across a window of ``omega`` sub-threshold steps."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if omega < 1:
        raise ValueError(f"omega must be >= 1, got {omega}")
    return omega * math.sqrt(delta / 2.0)


def local_argmax_certificate(margin: MarginReport, cfg: StopConfig) -> bool:
    """Pass iff the window TV budget cannot overcome half the margin.

    A singleton support passes vacuously (there is no competitor to flip
    to).
    """
    return margin.support_size == 1 or tv_budget(cfg.delta, cfg.omega) < margin.margin / 2.0


@dataclass(frozen=True)
class ContractionEstimate:
    alpha_hat: float
    samples_used: int
    skipped_small_denominators: int


def estimate_contraction(post_unmask_traces) -> ContractionEstimate:
    """Max ratio of consecutive TV steps over all traces.

    Each trace is a sequence of distributions on one fixed support,
    covering steps after the visible set stopped growing: alignment
    distributions, or the bare ``ProbVector``s of a synthetic chain.
    Ratios whose denominator is below ``DENOM_FLOOR`` are skipped and
    counted.
    """
    if not post_unmask_traces:
        raise EmptyInputError("no traces given")
    ratios: list[float] = []
    skipped = 0
    for trace in post_unmask_traces:
        pvs = [d.dist if isinstance(d, AlignmentDistribution) else d for d in trace]
        if len(pvs) < 3:
            raise WindowTooShortError(f"trace has {len(pvs)} steps, need >= 3")
        support = pvs[0].support
        for p in pvs[1:]:
            if p.support != support:
                raise SupportMismatchError(
                    "contraction traces must stay on a fixed support"
                )
        for r in range(1, len(pvs) - 1):
            den = total_variation(pvs[r], pvs[r - 1])
            num = total_variation(pvs[r + 1], pvs[r])
            if den < DENOM_FLOOR:
                skipped += 1
                continue
            ratios.append(num / den)
    if not ratios:
        raise NoValidSamplesError(
            f"all {skipped} ratio samples had denominators below {DENOM_FLOOR}"
        )
    return ContractionEstimate(
        alpha_hat=float(max(ratios)),
        samples_used=len(ratios),
        skipped_small_denominators=skipped,
    )


def contractive(alpha_hat: float) -> bool:
    """Whether ``alpha_hat`` lies in [0, 1), where every tail bound
    ``1 / (1 - alpha_hat)`` is finite."""
    return 0.0 <= alpha_hat < 1.0


def require_contractive(alpha_hat: float) -> None:
    if not contractive(alpha_hat):
        raise AlphaNotContractiveError(f"alpha_hat must be in [0, 1), got {alpha_hat}")


def tail_budget(alpha_hat: float, delta: float) -> float:
    """TV budget for movement after the stop under estimated contraction:
    the supremum over all horizons."""
    require_contractive(alpha_hat)
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return math.sqrt(delta / 2.0) / (1.0 - alpha_hat)


def global_argmax_certificate(
    margin: MarginReport, cfg: StopConfig, alpha_hat: float
) -> bool:
    """Pass iff window budget plus contraction tail stays under half the margin."""
    require_contractive(alpha_hat)
    if margin.support_size == 1:
        return True
    combined = tv_budget(cfg.delta, cfg.omega) + tail_budget(alpha_hat, cfg.delta)
    return combined < margin.margin / 2.0


@dataclass(frozen=True)
class CalibrationResult:
    beta: float
    margin_quantile: float
    alpha_hat: float
    admissible_pairs: tuple[tuple[float, int], ...]
    chosen: tuple[float, int]

    def to_json_dict(self) -> dict:
        return {
            "beta": fmt_real(self.beta),
            "margin_quantile": fmt_real(self.margin_quantile),
            "alpha_hat": fmt_real(self.alpha_hat),
            "admissible_pairs": [
                {"delta": fmt_real(d), "omega": int(o)} for d, o in self.admissible_pairs
            ],
            "chosen": {"delta": fmt_real(self.chosen[0]), "omega": int(self.chosen[1])},
        }


def margin_quantile(validation_margins, beta: float) -> float:
    """Nearest-rank quantile: the value that at least a (1 - beta)
    fraction of margins reach or exceed.

    Sort descending and take rank ceil((1 - beta) * n); no interpolation.
    """
    margins = [float(m) for m in validation_margins]
    if not margins:
        raise EmptyInputError("no validation margins")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    ordered = sorted(margins, reverse=True)
    rank = math.ceil((1.0 - beta) * len(ordered))
    return ordered[rank - 1]


def calibrate_pac(
    validation_margins,
    beta: float,
    alpha_hat: float,
    delta_grid=DELTA_GRID,
    omega_grid=OMEGA_GRID,
) -> CalibrationResult:
    """Pick the fastest (threshold, span) pair whose combined TV budget
    fits under half the margin quantile.

    Admissible pairs satisfy omega * sqrt(delta/2) + sqrt(delta/2) / (1 -
    alpha_hat) <= q / 2. Among them the pair with the smallest span wins
    (shorter runs stop sooner); ties prefer the larger threshold, then the
    smaller span.
    """
    require_contractive(alpha_hat)
    if not delta_grid or not omega_grid:
        raise EmptyInputError("calibration grids must be nonempty")
    q = margin_quantile(validation_margins, beta)
    admissible = [
        (float(d), int(o))
        for d in delta_grid
        for o in omega_grid
        if tv_budget(d, o) + tail_budget(alpha_hat, d) <= q / 2.0
    ]
    if not admissible:
        raise NoAdmissiblePairError(
            f"no (delta, omega) pair fits under quantile {q:.6g} at beta {beta}"
        )
    chosen = min(admissible, key=lambda pair: (pair[1], -pair[0]))
    return CalibrationResult(
        beta=beta,
        margin_quantile=q,
        alpha_hat=alpha_hat,
        admissible_pairs=tuple(sorted(admissible)),
        chosen=chosen,
    )


@dataclass(frozen=True)
class Certificate:
    """One run-length stop's inputs, in checkable form. Every budget and
    verdict is derived from them: the tail budget and ``global_pass`` need
    ``alpha_hat``, and ``pac_pass`` needs ``margin_quantile``; each is None
    without its input. Every verdict reads the margin as ``to_json_dict``
    reports it, so a certificate rebuilt from its own report reaches the
    same verdicts."""

    stop_step: int
    omega: int
    delta: float
    margin_report: MarginReport
    alpha_hat: float | None = None
    margin_quantile: float | None = None

    @property
    def tv_budget(self) -> float:
        return tv_budget(self.delta, self.omega)

    @property
    def _reported(self) -> MarginReport:
        return replace(self.margin_report, margin=float(fmt_real(self.margin_report.margin)))

    @property
    def local_pass(self) -> bool:
        return local_argmax_certificate(self._reported, StopConfig(self.delta, self.omega))

    @property
    def tail_budget(self) -> float | None:
        return None if self.alpha_hat is None else tail_budget(self.alpha_hat, self.delta)

    @property
    def global_pass(self) -> bool | None:
        if self.alpha_hat is None:
            return None
        cfg = StopConfig(self.delta, self.omega)
        return global_argmax_certificate(self._reported, cfg, self.alpha_hat)

    @property
    def pac_pass(self) -> bool | None:
        if self.margin_quantile is None:
            return None
        return self._reported.margin >= self.margin_quantile

    def to_json_dict(self) -> dict:
        tail = self.tail_budget
        return {
            "stop_step": int(self.stop_step),
            "omega": int(self.omega),
            "delta": fmt_real(self.delta),
            "tv_budget": fmt_real(self.tv_budget),
            "argmax_index": int(self.margin_report.argmax_index),
            "margin": fmt_real(self.margin_report.margin),
            "margin_step": int(self.margin_report.step),
            "support_size": int(self.margin_report.support_size),
            "local_pass": bool(self.local_pass),
            "tail_budget": None if tail is None else fmt_real(tail),
            "global_pass": self.global_pass,
            "pac_pass": self.pac_pass,
        }


def build_certificate(
    stop_step: int,
    margin: MarginReport,
    cfg: StopConfig,
    alpha_hat: float | None = None,
    margin_quantile: float | None = None,
) -> Certificate:
    """The certificate of one stop under the stop rule ``cfg``."""
    return Certificate(
        stop_step=stop_step,
        omega=cfg.omega,
        delta=cfg.delta,
        margin_report=margin,
        alpha_hat=alpha_hat,
        margin_quantile=margin_quantile,
    )
