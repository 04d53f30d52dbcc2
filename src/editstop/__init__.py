"""Early termination for block-wise iterative denoisers.

The package tracks how a model's internal update direction, captured
during fine-tuning, aligns with activations at inference time. When the
alignment distribution stops changing between denoising steps, generation
stops the block early.

Typical flow: ``sft_train`` captures update summaries while fine-tuning,
``persist_metadata`` stores them, ``generate`` runs block denoising under
a stopping policy, and ``build_certificate`` checks whether the argmax of
the alignment distribution over the visible positions could still move
within the change the stopping rule allows. It speaks of that argmax, not
of the decoded tokens.
"""

from __future__ import annotations

from .alignment import SimilarityMode, score_frame
from .capture import (
    AdamWConfig,
    EvolutionVector,
    MomentState,
    SubspaceBasis,
    adamw_step,
    build_subspace,
)
from .certify import (
    Certificate,
    MarginReport,
    build_certificate,
    calibrate_pac,
    estimate_contraction,
    margin_quantile,
)
from .config import ExperimentConfig
from .errors import EditStopError
from .freeze import FreezeConfig, TokenFreezer, freeze_safety, probe_coupling
from .generate import (
    DenoiseTrajectory,
    GenerateResult,
    PolicyConfig,
    denoise_block,
    generate,
)
from .metaformat import load_metadata, persist_metadata
from .model import ModelConfig, ToyModel, init_model, load_checkpoint, save_checkpoint
from .monitor import StabilityMonitor, StopConfig, StopDecision, StopReason
from .pseudograd import PseudoGradConfig, SftBand, analyze_trajectory, pseudo_gradient
from .tasks import SyntheticTask, make_task
from .train import CaptureSpec, SftResult, sft_train

__version__ = "0.1.0"

__all__ = [
    "AdamWConfig",
    "CaptureSpec",
    "Certificate",
    "DenoiseTrajectory",
    "EditStopError",
    "EvolutionVector",
    "ExperimentConfig",
    "FreezeConfig",
    "GenerateResult",
    "MarginReport",
    "ModelConfig",
    "MomentState",
    "PolicyConfig",
    "PseudoGradConfig",
    "SftBand",
    "SftResult",
    "SimilarityMode",
    "StabilityMonitor",
    "StopConfig",
    "StopDecision",
    "StopReason",
    "SubspaceBasis",
    "SyntheticTask",
    "TokenFreezer",
    "ToyModel",
    "adamw_step",
    "analyze_trajectory",
    "build_certificate",
    "build_subspace",
    "calibrate_pac",
    "denoise_block",
    "estimate_contraction",
    "freeze_safety",
    "generate",
    "init_model",
    "load_checkpoint",
    "load_metadata",
    "make_task",
    "margin_quantile",
    "persist_metadata",
    "probe_coupling",
    "pseudo_gradient",
    "save_checkpoint",
    "score_frame",
    "sft_train",
    "__version__",
]
