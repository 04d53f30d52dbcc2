"""Offline pseudo-gradient analysis of recorded denoising trajectories.

During fine-tuning the optimizer sees true loss gradients; at inference
there is no loss, but consecutive denoising steps still define a natural
objective: how far the committed tokens' predictive distributions moved
between step ``t`` and step ``t+1``. Backpropagating that step-to-step
divergence through the adapter down-projections yields a pseudo-gradient
whose root-mean-square magnitude can be compared against the band of
gradient magnitudes seen in training. :func:`analyze_trajectory` computes
those pseudo-gradients from each step's recorded block-row forward pass,
the one the decode itself ran (``generate(record=True)``), and
backpropagates only as deep as the default tap's adapter; it refuses a
trajectory decoded without ``record``. It summarizes the pseudo-gradients
and detects the step at which their magnitude settles into the training
band. :func:`pseudo_gradient`, one step pair's gradient from forwards it
runs itself, is the oracle the recorded route is tested against
(acceptance criterion 02 checks it by finite differences).

Everything here is post-hoc: the analyzer consumes finished trajectories
and never feeds back into the stopping decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    MissingStepError,
    NoRecordedGraphError,
    TooFewSamplesError,
    WindowTooShortError,
)
from .generate import DenoiseTrajectory
from .linalg import rms
from .metaformat import csv_text
from .model import (
    ToyModel,
    backward_lora,
    forward,
    lora_param_key,
    parse_module_path,
    predictive_distributions,
)

PERSISTENCE = 3


@dataclass(frozen=True)
class PseudoGradConfig:
    """Which adapters' down-projections (``lora_b``) to differentiate.

    ``modules=None`` selects the model's default tapped projection. The
    step-t distributions are a fixed reference: only step t+1's forward
    pass is differentiated.
    """

    modules: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class SftBand:
    """Mean and sample deviation of training-time gradient magnitudes."""

    mu: float
    sigma: float
    n_steps: int

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.n_steps < 2:
            raise TooFewSamplesError(
                f"a band needs at least 2 steps, got {self.n_steps}"
            )

    def contains(self, value: float) -> bool:
        return self.mu - self.sigma <= value <= self.mu + self.sigma


@dataclass(frozen=True)
class PseudoGradRow:
    step: int
    rms_value: float
    in_band: bool


@dataclass
class PseudoGradTrace:
    rows: list[PseudoGradRow]
    convergence_step: Optional[int]


def sft_band(rms_trace: Sequence[float]) -> SftBand:
    """Sample mean and sample standard deviation (n-1 denominator)."""
    values = np.asarray(list(rms_trace), dtype=np.float64)
    if values.size < 2:
        raise TooFewSamplesError(
            f"band estimation needs >= 2 values, got {values.size}"
        )
    return SftBand(
        mu=float(values.mean()),
        sigma=float(values.std(ddof=1)),
        n_steps=int(values.size),
    )


def detect_convergence(trace: Sequence[float], band: SftBand) -> Optional[int]:
    """Index of the first entry opening a run of ``PERSISTENCE`` in-band values.

    Detection is first-hit: later excursions outside the band never
    retract the returned index. Returns None when no such run exists.
    """
    flags = [band.contains(float(v)) for v in trace]
    run = 0
    for i, ok in enumerate(flags):
        run = run + 1 if ok else 0
        if run >= PERSISTENCE:
            return i - PERSISTENCE + 1
    return None


def _selected_keys(model: ToyModel, config: PseudoGradConfig) -> tuple[str, ...]:
    modules = (
        config.modules if config.modules is not None else (model.default_tap().module,)
    )
    keys = []
    for module in modules:
        key = lora_param_key(*parse_module_path(module), "b")
        if key not in model.lora:
            raise KeyError(f"unknown adapter module {module!r}")
        keys.append(key)
    return tuple(keys)


def _step_forward(model: ToyModel, trajectory: DenoiseTrajectory, step: int):
    """The block-row forward of ``step``, run here on the step's input (on
    the model's ``forward_weights``, built once for a loaded model)."""
    L = model.cfg.block_length
    if step == 1:
        block = np.full(L, model.cfg.mask_id, dtype=np.int64)
    else:
        block = trajectory.token_rows[trajectory.row(step - 1)]
    prefix = trajectory.prefix
    if prefix.size != trajectory.block_index * L:
        raise MissingStepError(
            f"trajectory prefix has {prefix.size} tokens, block {trajectory.block_index}"
            f" needs {trajectory.block_index * L}"
        )
    inp = np.concatenate([prefix, block])[None, :]
    return forward(model, inp, record=True, first_row=prefix.size)


def _check_pair(trajectory: DenoiseTrajectory, step: int) -> None:
    if step < 1 or step + 1 > trajectory.steps_used:
        raise MissingStepError(
            f"steps {step} and {step + 1} are not both recorded"
            f" (trajectory has {trajectory.steps_used} steps)"
        )


def pseudo_gradient(
    model: ToyModel,
    trajectory: DenoiseTrajectory,
    step: int,
    config: PseudoGradConfig | None = None,
) -> dict[str, np.ndarray]:
    """Gradient of the step divergence through the selected down-projections.

    Runs the recorded block-row forwards of ``step`` and ``step+1`` on the
    trajectory's tokens and backpropagates the summed divergence over the
    later step's committed support. The earlier step's distributions act
    as constants. This is the oracle of :func:`analyze_trajectory`'s rows,
    which read the decode's own forwards instead.
    """
    config = config if config is not None else PseudoGradConfig()
    _check_pair(trajectory, step)
    keys = _selected_keys(model, config)
    p_t = _block_dists(model, _step_forward(model, trajectory, step))
    res_t1 = _step_forward(model, trajectory, step + 1)
    return _pair_gradient(model, trajectory, step, keys, p_t, res_t1, _block_dists(model, res_t1))


def _block_dists(model: ToyModel, res) -> np.ndarray:
    """The predictive distributions of a block-row forward's rows."""
    return predictive_distributions(res.logits[0], model.cfg.vocab_size)


def _pair_gradient(
    model: ToyModel, trajectory: DenoiseTrajectory, step: int, keys, p_t, res_t1, p_t1
) -> dict[str, np.ndarray]:
    """:func:`pseudo_gradient` from the block distributions ``p_t`` of
    ``step``, and the recorded forward result and block distributions of
    ``step+1``. The backward pass runs only as deep as ``keys`` reach."""
    cfg = model.cfg
    rows = trajectory.visible[trajectory.row(step + 1)].nonzero()[0]

    real = cfg.vocab_size - 1
    dlogits_t1 = np.zeros_like(res_t1.logits)
    dlogits_t1[0, rows, :real] = p_t1[rows] - p_t[rows]
    return backward_lora(model, res_t1, dlogits_t1, keys)


def analyze_trajectory(
    model: ToyModel,
    trajectory: DenoiseTrajectory,
    band: SftBand,
) -> PseudoGradTrace:
    """Pseudo-gradient magnitude trace of the default tap's ``lora_b`` for
    every consecutive step pair, read off the forwards a
    ``generate(record=True)`` decode kept on the trajectory; a trajectory
    without them raises ``NoRecordedGraphError``."""
    if trajectory.steps_used < 2:
        raise WindowTooShortError(f"need at least 2 recorded steps, got {trajectory.steps_used}")
    forwards = trajectory.forwards
    if not forwards:
        raise NoRecordedGraphError("trajectory kept no forwards; decode it with record=True")
    keys = _selected_keys(model, PseudoGradConfig())
    rows: list[PseudoGradRow] = []
    values: list[float] = []
    p_t = _block_dists(model, forwards[0])
    for step in range(1, trajectory.steps_used):
        # Past the last forward both sides read it, so the divergence and
        # its gradient are exactly zero.
        value = 0.0
        if step < len(forwards):
            res_t1 = forwards[step]
            p_t1 = _block_dists(model, res_t1)
            grads = _pair_gradient(model, trajectory, step, keys, p_t, res_t1, p_t1)
            # The next pair's step side: each distinct forward's
            # distributions are computed once.
            p_t = p_t1
            value = rms(np.concatenate([g.ravel() for g in grads.values()]))
        values.append(value)
        rows.append(PseudoGradRow(step=step, rms_value=value, in_band=band.contains(value)))
    index = detect_convergence(values, band)
    convergence_step = rows[index].step if index is not None else None
    return PseudoGradTrace(rows=rows, convergence_step=convergence_step)


def pseudograd_to_csv(trace: PseudoGradTrace) -> str:
    """Trace rows as CSV text (step, rms, in_band, t_conv)."""
    conv = "" if trace.convergence_step is None else trace.convergence_step
    return csv_text(
        ["step", "rms", "in_band", "t_conv"],
        ([row.step, repr(row.rms_value), int(row.in_band), conv] for row in trace.rows),
    )
