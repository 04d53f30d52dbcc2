"""Per-token freezing with instance-wise safety checks.

Each visible token gets a local distribution over the components of the
training-dynamics subspace: the softmax of its absolute coordinates in
the basis. Tokens whose local distribution holds still for a run of steps
get their activation pinned. ``freeze_safety`` turns a coupling probe
plus the global contraction estimate into an explicit safety verdict
against the block-level margin; the sampler asks for none, so a pin
changes only the alignment frame and never what is committed.

An experiment config sets only the basis rank ``k`` (its ``subspace_k``):
a run's freezer keeps ``FreezeConfig``'s thresholds, ``delta_tok`` and
``omega_tok``, which only direct constructions vary.

A step of the freezer is one array pass over the block's rows: the local
distributions are one (n, k) softmax array, their KLs against the
previous step one row-wise reduction, and the run lengths one counter
vector. Per-token state exists only for frozen tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import ActivationFrame
from .capture import SubspaceBasis
from .certify import require_contractive, tv_budget
from .errors import (
    DimMismatchError,
    ProbeUnsupportedError,
    VisibleSetChangedError,
)
from .linalg import kl_rows, softmax_rows, total_variation
from .monitor import StopConfig

POOLED_MAX_TOKENS = 8


@dataclass(frozen=True)
class FreezeConfig:
    delta_tok: float = 0.05
    omega_tok: int = 6
    k: int = 3

    def __post_init__(self):
        if not self.delta_tok > 0.0:
            raise ValueError(f"delta_tok must be positive, got {self.delta_tok}")
        if self.omega_tok < 1:
            raise ValueError(f"omega_tok must be >= 1, got {self.omega_tok}")
        if not 1 <= self.k <= 8:
            raise ValueError(f"k must be in [1, 8], got {self.k}")


@dataclass(frozen=True)
class TokenFreezeState:
    """One frozen token, which is also its block's freeze event: the step
    it froze at, its pinned activation (read-only) and ``epsilon_s``, the
    largest step-to-step activation movement over the window that froze it."""

    token: int
    frozen_at: int
    frozen_value: np.ndarray
    epsilon_s: float


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
        beta = max(beta, total_variation(perturbed, base) / probe_magnitude)
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
) -> CouplingEstimate:
    """Conservative pooled coupling: max over at most ``POOLED_MAX_TOKENS``
    sampled tokens."""
    tokens = list(tokens)
    if len(tokens) > POOLED_MAX_TOKENS:
        picked = rng.choice(len(tokens), size=POOLED_MAX_TOKENS, replace=False)
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
    require_contractive(alpha_hat)
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


class TokenFreezer:
    """Drives the stability rule for every token of one block at once.

    Every frame must carry the first frame's members, so row ``i`` is the
    same token at every step. A token's first frame only records its
    local distribution. After that, a step whose local KL against the
    previous step is at most ``delta_tok`` (non-strict) extends the
    token's run and any other step resets it; a run of ``omega_tok``
    steps freezes the token at that step's activation. ``states`` holds
    the frozen tokens only, in the order they froze.
    """

    def __init__(self, basis: SubspaceBasis, cfg: FreezeConfig):
        if cfg.k != basis.k:
            raise DimMismatchError(f"config k={cfg.k} but basis has k={basis.k}")
        self.basis = basis
        self.cfg = cfg
        self.states: dict[int, TokenFreezeState] = {}
        self._members: tuple[int, ...] | None = None

    def _local_distributions(self, rows: np.ndarray) -> np.ndarray:
        """Each row's distribution over the subspace components, as an
        (n, k) array: coordinates in the basis, folded by absolute value and
        put through ``linalg.softmax_rows``."""
        # A stacked gemv, one per row: a single (n, d) @ (d, k) GEMM may sum
        # in another order.
        g = (self.basis.columns.T @ rows[:, :, None])[:, :, 0]
        return softmax_rows(np.abs(g))

    def process(self, frame: ActivationFrame) -> tuple[np.ndarray, list[int]]:
        """Advance every token that is not frozen by one step.

        Returns the frame's (n, d) activations with each frozen token's
        row replaced by its pinned vector, bit-identical every step, and
        the tokens frozen now.
        """
        acts = frame.activations
        if acts.shape[1] != self.basis.d_out:
            raise DimMismatchError(
                f"activation dimension {acts.shape[1]} != basis dimension {self.basis.d_out}"
            )
        members = frame.visible.members
        effective = acts.copy()
        if self._members is None:
            self._members = members
            self._last_q = self._local_distributions(acts)
            # Frozen rows are not advanced, so they keep their pinned vector.
            self._prev = acts.copy()
            self._run = np.zeros(len(members), dtype=np.int64)
            self._epsilon = np.zeros(len(members))
            self._frozen = np.zeros(len(members), dtype=bool)
            return effective, []
        if members != self._members:
            raise VisibleSetChangedError(
                f"frame members {members} != the first frame's {self._members}"
            )
        live = np.flatnonzero(~self._frozen)
        newly_frozen: list[int] = []
        if live.size:
            p = self._local_distributions(acts[live])
            stable = kl_rows(p, self._last_q[live]) <= self.cfg.delta_tok
            moved = live[stable]
            diff = acts[moved] - self._prev[moved]
            # Each row's norm as numpy's 1-D norm takes it, sqrt(x.dot(x)):
            # a stacked (1, d) @ (d, 1) matmul runs the same dot.
            norms = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
            self._epsilon[moved] = np.maximum(self._epsilon[moved], norms)
            self._epsilon[live[~stable]] = 0.0
            self._run[live] = np.where(stable, self._run[live] + 1, 0)
            self._last_q[live] = p
            self._prev[live] = acts[live]
            for i in live[self._run[live] >= self.cfg.omega_tok]:
                s = members[i]
                pinned = acts[i].copy()
                pinned.setflags(write=False)
                self.states[s] = TokenFreezeState(s, frame.step, pinned, float(self._epsilon[i]))
                self._frozen[i] = True
                newly_frozen.append(s)
        effective[self._frozen] = self._prev[self._frozen]
        return effective, newly_frozen
