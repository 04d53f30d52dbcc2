"""Supervised fine-tuning of the adapter parameters with dynamics capture.

Each optimization step masks a random subset of every sample's target
block, takes the masked-token cross entropy, and applies one AdamW step
to all adapter tensors. For every configured capture target the
optimizer's update-magnitude tensors are summed in place, in step order,
into one float64 tensor, whose mean over the steps is summarised. The
per-step RMS of the first target's raw gradient is traced for the
reference band used by the post-hoc gradient analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capture import (
    AdamWConfig,
    EvolutionVector,
    MomentState,
    adamw_step,
    reduce_row_energy,
    reduce_row_mean,
)
from .errors import TrainingDivergedError
from .linalg import rms
from .model import (
    ToyModel,
    backward_lora,
    forward,
    lora_param_key,
    masked_cross_entropy,
    parse_module_path,
)
from .tasks import SyntheticTask

MASKING_RATES = (0.25, 0.5, 0.75)
REDUCTIONS = ("energy", "mean")
MEAN_SUFFIX = "#mean"


@dataclass(frozen=True)
class CaptureSpec:
    """One adapter tensor to track during training.

    ``reduction`` picks how the accumulated update tensor is summarized
    into a per-dimension vector: L2 norm per output row or mean absolute
    value per output row. Energy summaries keep the bare parameter key
    as their id; mean summaries add ``MEAN_SUFFIX``, and the adapter's
    subspace basis adds ``#subspace`` (``basis_id``), so every summary of
    one adapter can sit in one metadata file.
    """

    module: str
    adapter: str = "b"
    reduction: str = "energy"

    def __post_init__(self):
        self.param_key  # raises ValueError on a bad module path or adapter
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")

    @property
    def param_key(self) -> str:
        return lora_param_key(*parse_module_path(self.module), self.adapter)

    @property
    def metadata_id(self) -> str:
        return self.param_key + (MEAN_SUFFIX if self.reduction == "mean" else "")

    @property
    def basis_id(self) -> str:
        return self.param_key + "#subspace"


@dataclass
class SftResult:
    """``evolution`` is keyed by metadata id, ``evolution_tensors`` by
    parameter key: both reductions of one adapter share its tensor."""

    model: ToyModel
    evolution: dict[str, EvolutionVector]
    evolution_tensors: dict[str, np.ndarray]
    rms_trace: list[float]
    loss_trace: list[float]


def mask_targets(
    seqs: np.ndarray, block_length: int, mask_id: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Mask a random fraction of each sample's target block.

    Returns the masked input and the boolean loss mask. The prompt block
    is always left visible.
    """
    masked = seqs.copy()
    loss_mask = np.zeros(seqs.shape, dtype=bool)
    for i in range(seqs.shape[0]):
        rate = MASKING_RATES[rng.integers(0, len(MASKING_RATES))]
        n_mask = max(1, int(round(rate * block_length)))
        pos = rng.choice(block_length, size=n_mask, replace=False) + block_length
        masked[i, pos] = mask_id
        loss_mask[i, pos] = True
    return masked, loss_mask


def reduce_capture(spec: CaptureSpec, tensor: np.ndarray, rank: int) -> EvolutionVector:
    # Adapter A is (rank, d_model): transpose so the summary indexes the
    # model dimension, matching the activation vectors it will score.
    t = tensor if spec.adapter == "b" else tensor.T
    if spec.reduction == "energy":
        return reduce_row_energy(t, spec.metadata_id, rank)
    return reduce_row_mean(t, spec.metadata_id, rank)


def sft_train(
    model: ToyModel,
    task: SyntheticTask,
    steps: int,
    adamw_cfg: AdamWConfig,
    captures: tuple[CaptureSpec, ...],
    rng: np.random.Generator,
    batch_size: int,
) -> SftResult:
    """Train the adapters in place and capture their update dynamics.

    Deterministic given the generator state; the model's base tensors
    are never touched. Each step's recorded forward and loss cover the
    target block's rows alone, as no prompt row is ever masked.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not captures:
        raise ValueError("need at least one capture target")
    cfg = model.cfg
    L = cfg.block_length
    moments = {key: MomentState.zeros(val.shape) for key, val in model.lora.items()}
    # One float64 sum per captured adapter; the in-place add allocates nothing per step.
    totals = {spec.param_key: np.zeros(model.lora[spec.param_key].shape) for spec in captures}
    rms_key = captures[0].param_key
    rms_trace: list[float] = []
    loss_trace: list[float] = []

    for step in range(steps):
        prompts, targets = task.sample_batch(rng, batch_size)
        seqs = np.concatenate([prompts, targets], axis=1)
        masked, loss_mask = mask_targets(seqs, L, cfg.mask_id, rng)
        # The last step's ``res`` stays bound until this call returns: freed at
        # the end of a step, its arrays let glibc trim the heap top every step
        # (about 30x the page faults, and about 1 s more per default run).
        res = forward(model, masked, record=True, first_row=L)
        loss, dlogits = masked_cross_entropy(res.logits, seqs[:, L:], loss_mask[:, L:])
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss} at optimization step {step}"
            )
        grads = backward_lora(model, res, dlogits)
        for key in sorted(model.lora):
            moments[key], update = adamw_step(moments[key], grads[key], adamw_cfg)
            model.lora[key] = model.lora[key] - adamw_cfg.learning_rate * update
            if key in totals:
                totals[key] += update
        rms_trace.append(rms(grads[rms_key]))
        loss_trace.append(loss)

    tensors = {key: total / steps for key, total in totals.items()}
    evolution = {
        spec.metadata_id: reduce_capture(spec, tensors[spec.param_key], cfg.lora_rank)
        for spec in captures
    }
    return SftResult(
        model=model,
        evolution=evolution,
        evolution_tensors=tensors,
        rms_trace=rms_trace,
        loss_trace=loss_trace,
    )
