"""Per-token freezing with instance-wise safety checks.

Each visible token gets a local distribution over the components of the
training-dynamics subspace. Tokens whose local distribution holds still
for a run of steps get their activation pinned; a coupling probe plus
the global contraction estimate then turn the pin into an explicit
safety verdict against the block-level margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import ActivationFrame
from .capture import SubspaceBasis
from .certify import tv_budget
from .errors import (
    AlphaNotContractiveError,
    DimMismatchError,
    ProbeUnsupportedError,
)
from .linalg import ProbVector, kl_divergence, softmax
from .monitor import StopConfig


@dataclass(frozen=True)
class FreezeConfig:
    delta_tok: float = 0.05
    omega_tok: int = 6
    tau_sub: float = 1.0
    k: int = 3

    def __post_init__(self):
        if not self.delta_tok > 0.0:
            raise ValueError(f"delta_tok must be positive, got {self.delta_tok}")
        if self.omega_tok < 1:
            raise ValueError(f"omega_tok must be >= 1, got {self.omega_tok}")
        if not self.tau_sub > 0.0:
            raise ValueError(f"tau_sub must be positive, got {self.tau_sub}")
        if not 1 <= self.k <= 8:
            raise ValueError(f"k must be in [1, 8], got {self.k}")


def local_distribution(f_s: np.ndarray, basis: SubspaceBasis, tau_sub: float) -> ProbVector:
    """Distribution over subspace components from one activation.

    Coordinates are taken in the basis, folded by absolute value, and
    softmaxed at the sub-token temperature. The support is the component
    indices 0..k-1.
    """
    f_s = np.asarray(f_s, dtype=np.float64)
    if f_s.shape != (basis.d_out,):
        raise DimMismatchError(
            f"activation shape {f_s.shape} != basis dimension ({basis.d_out},)"
        )
    g = basis.project(f_s)
    return softmax(np.abs(g), temperature=tau_sub, support=tuple(range(basis.k)))


@dataclass
class TokenFreezeState:
    """Stability bookkeeping for one token within one block."""

    token: int
    counter: int = 0
    last_q: ProbVector | None = None
    prev_activation: np.ndarray | None = None
    window_diffs: list[float] = field(default_factory=list)
    epsilon_s: float = 0.0
    frozen_at: int | None = None
    frozen_value: np.ndarray | None = None
    steps_seen: int = 0

    @property
    def frozen(self) -> bool:
        return self.frozen_at is not None


def token_stability_step(
    state: TokenFreezeState,
    f_s: np.ndarray,
    basis: SubspaceBasis,
    cfg: FreezeConfig,
    step: int | None = None,
) -> tuple[TokenFreezeState, bool]:
    """Advance one token's run-length rule by one step.

    The local divergence uses a non-strict threshold: a step landing
    exactly on ``delta_tok`` still counts as stable. On freeze, the
    activation is pinned and the max step-to-step activation movement
    over the qualifying window is recorded.
    """
    if state.frozen:
        raise ValueError(f"token {state.token} is already frozen")
    f_s = np.asarray(f_s, dtype=np.float64)
    state.steps_seen += 1
    if step is None:
        step = state.steps_seen
    q = local_distribution(f_s, basis, cfg.tau_sub)
    if state.last_q is None:
        state.last_q = q
        state.prev_activation = f_s.copy()
        return state, False
    d_s = kl_divergence(q, state.last_q)
    diff = float(np.linalg.norm(f_s - state.prev_activation))
    if d_s <= cfg.delta_tok:
        state.counter += 1
        state.window_diffs.append(diff)
    else:
        state.counter = 0
        state.window_diffs.clear()
    state.last_q = q
    state.prev_activation = f_s.copy()
    if state.counter >= cfg.omega_tok:
        state.frozen_at = step
        pinned = f_s.copy()
        pinned.setflags(write=False)
        state.frozen_value = pinned
        state.epsilon_s = max(state.window_diffs[-cfg.omega_tok:])
        return state, True
    return state, False


@dataclass(frozen=True)
class CouplingEstimate:
    beta_s: float
    probe_magnitude: float
    samples: int
    token: int | None = None

    def __post_init__(self):
        if self.beta_s < 0.0:
            raise ValueError("coupling estimate must be nonnegative")


def probe_coupling(
    model_handle,
    block_state,
    token: int,
    probe_magnitude: float,
    trials: int,
    rng: np.random.Generator,
) -> CouplingEstimate:
    """Finite-difference estimate of one token's influence on the next
    step's distribution.

    The handle must expose ``activation_dim`` and
    ``counterfactual_distribution(block_state, token, delta)`` where
    ``delta=None`` means the unperturbed step. The estimate is the max
    over random probe directions of TV response per unit perturbation.
    """
    if not probe_magnitude > 0.0:
        raise ValueError(f"probe_magnitude must be positive, got {probe_magnitude}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not hasattr(model_handle, "counterfactual_distribution") or not hasattr(
        model_handle, "activation_dim"
    ):
        raise ProbeUnsupportedError(
            "model handle does not support counterfactual re-execution"
        )
    dim = int(model_handle.activation_dim)
    base = model_handle.counterfactual_distribution(block_state, token, None)
    beta = 0.0
    for _ in range(trials):
        direction = rng.normal(size=dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        delta = probe_magnitude * direction / norm
        perturbed = model_handle.counterfactual_distribution(block_state, token, delta)
        tv = 0.5 * float(np.abs(perturbed.probs - base.probs).sum())
        beta = max(beta, tv / probe_magnitude)
    return CouplingEstimate(
        beta_s=beta, probe_magnitude=probe_magnitude, samples=trials, token=token
    )


def probe_coupling_pooled(
    model_handle,
    block_state,
    tokens,
    probe_magnitude: float,
    trials: int,
    rng: np.random.Generator,
    max_tokens: int = 8,
) -> CouplingEstimate:
    """Conservative pooled coupling: max over a sampled token subset."""
    tokens = list(tokens)
    if len(tokens) > max_tokens:
        picked = rng.choice(len(tokens), size=max_tokens, replace=False)
        tokens = [tokens[i] for i in sorted(picked)]
    best = 0.0
    for s in tokens:
        est = probe_coupling(model_handle, block_state, s, probe_magnitude, trials, rng)
        best = max(best, est.beta_s)
    return CouplingEstimate(
        beta_s=best, probe_magnitude=probe_magnitude, samples=trials * len(tokens)
    )


@dataclass(frozen=True)
class FreezeSafetyReport:
    token: int
    bound: float
    combined: float
    global_margin_half: float
    safe: bool

    def __post_init__(self):
        if self.safe != (self.combined < self.global_margin_half):
            raise ValueError("safety verdict inconsistent with its own budget")


def freeze_safety(
    state: TokenFreezeState,
    coupling: CouplingEstimate,
    alpha_hat: float,
    global_cfg: StopConfig,
    global_margin: float,
) -> FreezeSafetyReport:
    """Safety verdict for one frozen token against the block-level margin.

    Combines the block TV budget with the coupling leakage bound
    (beta / (1 - alpha)) * epsilon and compares against half the global
    top-2 margin measured at the freeze event.
    """
    if not 0.0 <= alpha_hat < 1.0:
        raise AlphaNotContractiveError(f"alpha_hat must be in [0, 1), got {alpha_hat}")
    if not state.frozen:
        raise ValueError(f"token {state.token} is not frozen")
    bound = (coupling.beta_s / (1.0 - alpha_hat)) * state.epsilon_s
    combined = tv_budget(global_cfg.delta, global_cfg.omega) + bound
    half = global_margin / 2.0
    return FreezeSafetyReport(
        token=state.token,
        bound=bound,
        combined=combined,
        global_margin_half=half,
        safe=combined < half,
    )


@dataclass(frozen=True)
class FreezeEvent:
    step: int
    token: int
    epsilon_s: float


class TokenFreezer:
    """Drives per-token stability tracking across the steps of one block.

    ``process`` returns the activations to use downstream: frozen tokens
    always deliver their pinned vector, bit-identical every step.
    """

    def __init__(self, basis: SubspaceBasis, cfg: FreezeConfig):
        if cfg.k != basis.k:
            raise DimMismatchError(f"config k={cfg.k} but basis has k={basis.k}")
        self.basis = basis
        self.cfg = cfg
        self.states: dict[int, TokenFreezeState] = {}
        self.events: list[FreezeEvent] = []

    @property
    def frozen_tokens(self) -> tuple[int, ...]:
        return tuple(sorted(s for s, st in self.states.items() if st.frozen))

    def process(self, frame: ActivationFrame) -> tuple[np.ndarray, list[int]]:
        """Advance every visible token by one step.

        Returns the frame's (n, d) activations with each frozen token's
        row replaced by its pinned vector, and the tokens frozen now.
        """
        effective = frame.activations.copy()
        newly_frozen: list[int] = []
        for i, s in enumerate(frame.visible.members):
            st = self.states.setdefault(s, TokenFreezeState(token=s))
            if not st.frozen:
                _, frozen_now = token_stability_step(
                    st, effective[i], self.basis, self.cfg, frame.step
                )
                if not frozen_now:
                    continue
                newly_frozen.append(s)
                self.events.append(FreezeEvent(frame.step, s, st.epsilon_s))
            effective[i] = st.frozen_value
        return effective, newly_frozen
