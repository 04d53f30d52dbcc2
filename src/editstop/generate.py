"""Block-wise masked denoising with optional early stopping and token freezing.

The sampler fills one block of ``block_length`` positions at a time. Each
denoising step reads the block's forward pass, commits a fixed quota of the
most confident still-masked positions, and keeps the activation rows of the
committed set. Under the monitored policies those rows drive the alignment
distribution whose stability decides when to cut the remaining steps short.

A step takes one array-shaped path into the block's arrays
(``DenoiseTrajectory``). The open slots are the block's slots that still
hold the mask id, and the visible set is the rest: the softmax array has
no mask column, so no commit writes the mask id. A forward's (L, V-1)
softmax array gives each row's argmax (``choice``) and largest
probability; one stable argsort of the open slots on the latter ranks
them, so tied slots commit lowest index first. The committed rows are one
(n, d) array. A monitored step scores it (``score_alignment``), takes
``monitor.alignment_step`` (the alignment softmax, then the KL against
the previous distinct forward's row) and hands the row, its positions and
the divergence to ``StabilityMonitor.take_row``; a stop's margin report is
read off the same row. No step builds a visible set, a distribution or a
``ProbVector``: only the freezer of ``edit_freeze`` takes a frame object.

``forward`` is deterministic in the tokens, so it runs only on a step
that does not repeat its predecessor (a step repeats when the
predecessor committed no slot: it found the block full and the tokens
are unchanged); the open slots are ranked right after it. It returns
only the block's rows, runs on ``forward_weights``, taken once per
block (and built once per model for a loaded one), and emits every
requested tap (``taps``); the first tap's frame is the one scored and
frozen. ``record=True`` keeps each distinct recorded forward for the
offline pseudo-gradient.

Step work that no caller reads is skipped. A ``fixed`` decode scores no
frame and ends its loop at the first repeated step, which nothing reads
without a monitor, and no decode stores an alignment: the monitor holds
only the last row it took, and an offline analysis (calibrate's,
ablate's) scores the trajectory's tap rows itself. A repeated step
commits nothing and adds no row: it reads the predecessor's frame,
``choice`` and tokens, and the monitor takes the predecessor's row again
at the new step with divergence 0.0, without a KL. The stop and
certificate logic still runs on such steps.

Every policy commits ``ceil(block_length / budget)`` tokens per step, so a
run with budget ``T`` fully commits the block no later than step ``T``.
The fixed policy uses the whole budget; a monitored run that stops at step
``t`` fills every slot still masked with step ``t``'s row argmax
(``stop_fill``, which replays of a stop use too). The freezer of
``edit_freeze`` runs first on every step and only pins rows of the frame.
A pinned row keeps its bits, and a row that freezes on an unchanged
forward takes the value it already had, so a repeated step repeats under
a freezer too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .alignment import ActivationFrame, SimilarityMode, VisibleSet, score_alignment
from .capture import EvolutionVector, SubspaceBasis
from .certify import Certificate, MarginReport, build_certificate
from .errors import NonMonotoneVisibleSetError, ScheduleExhaustedError
from .freeze import FreezeConfig, TokenFreezer, TokenFreezeState
from .model import (
    ForwardResult,
    ToyModel,
    TapSpec,
    forward,
    forward_weights,
    predictive_distributions,
)
from .monitor import StabilityMonitor, StopConfig, StopDecision, StopReason, alignment_step

# Every policy a config file or ``infer --policy`` names.
POLICY_KINDS = ("fixed", "edit", "edit_freeze")
DEFAULT_STEP_BUDGET = 32


@dataclass(frozen=True)
class PolicyConfig:
    """What the sampler does besides denoising.

    ``fixed`` runs every budgeted step. ``edit`` wires the stability
    monitor and stops once the alignment distribution settles.
    ``edit_freeze`` additionally pins per-token alignment inputs once
    their local readouts stop moving; it commits as ``edit`` does.
    """

    kind: str = "fixed"
    stop: StopConfig = field(default_factory=StopConfig)
    freeze: FreezeConfig = field(default_factory=FreezeConfig)
    strict_certificates: bool = False

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}, got {self.kind!r}")

    @property
    def monitored(self) -> bool:
        return self.kind != "fixed"

    @property
    def freezing(self) -> bool:
        return self.kind == "edit_freeze"


@dataclass
class DenoiseTrajectory:
    """One block's decode as arrays, one row per distinct forward.

    Only a step after one that committed nothing (the block was full)
    repeats its predecessor, so row ``r`` is step ``r + 1``'s and later
    steps read the last row (:meth:`row`). Row ``r`` of ``token_rows`` is
    the block after that step (a stop's fill included), of ``choice`` its
    row argmax, of ``visible`` the slots committed by then (a stop's fill
    excluded), so for ``r > 0`` its step committed
    ``visible[r] & ~visible[r - 1]``; ``tap_rows[k][r]`` holds tap ``k``'s
    visible rows at row ``r``; ``forwards`` holds each row's recorded
    forward, if kept; ``prefix``, every earlier block's tokens, lets
    analyses rerun a forward. No alignment is stored: the monitor keeps
    what the stop rule reads, and offline analyses score ``tap_rows``
    themselves.
    """

    block_index: int
    prefix: np.ndarray
    steps_used: int
    token_rows: np.ndarray
    choice: np.ndarray
    visible: np.ndarray
    tap_rows: tuple[tuple[np.ndarray, ...], ...]
    forwards: tuple[ForwardResult, ...] = ()

    def __post_init__(self):
        shrank = (self.visible[:-1] > self.visible[1:]).any(axis=1)
        if shrank.any():
            raise NonMonotoneVisibleSetError(
                f"visible set shrank at step {shrank.argmax() + 2} of block {self.block_index}"
            )

    def row(self, step: int) -> int:
        """The row step ``step`` reads."""
        return min(step, len(self.token_rows)) - 1

    @property
    def tokens(self) -> tuple[int, ...]:
        """The block's final tokens: the last step's, a stop's fill included."""
        return tuple(self.token_rows[-1].tolist())


@dataclass
class BlockResult:
    """One block's decode. ``monitor`` holds the stop rule's whole record,
    so the stop decision, the stops a strict certificate refused and
    whether the block stopped early are read off it, not stored.
    ``freeze_events`` holds the freezer's states, in freeze order."""

    trajectory: DenoiseTrajectory
    monitor: Optional[StabilityMonitor]
    certificate: Optional[Certificate]
    freeze_events: tuple[TokenFreezeState, ...]

    @property
    def block_index(self) -> int:
        return self.trajectory.block_index

    @property
    def forward_passes(self) -> int:
        return len(self.trajectory.token_rows)

    @property
    def steps_used(self) -> int:
        return self.trajectory.steps_used

    @property
    def stopped_early(self) -> bool:
        return self.monitor is not None and self.monitor.stopped_at is not None

    @property
    def stop_decision(self) -> Optional[StopDecision]:
        """None without a monitor; else the accepted stop, or the budget's end."""
        monitor = self.monitor
        if monitor is None:
            return None
        if monitor.stopped_at is not None:
            return StopDecision(monitor.stopped_at, StopReason.RUN_LENGTH_MET, monitor.counter)
        return StopDecision(self.steps_used, StopReason.BUDGET_EXHAUSTED, monitor.counter)

    @property
    def rejected_stops(self) -> tuple[int, ...]:
        """Steps whose stop a strict certificate refused: each fired stop
        leaves a ``stopped`` trace row, and a refused one releases
        ``stopped_at``."""
        monitor = self.monitor
        rows = monitor.divergence_trace if monitor is not None else ()
        return tuple(r.step for r in rows if r.stopped and r.step != monitor.stopped_at)


@dataclass
class GenerateResult:
    blocks: list[BlockResult]

    @property
    def tokens(self) -> tuple[int, ...]:
        """The decoded sequence: the prompt and every block, which the
        last block's prefix and tokens hold."""
        last = self.blocks[-1].trajectory
        return tuple(last.prefix.tolist()) + last.tokens

    @property
    def block_steps(self) -> tuple[int, ...]:
        return tuple(b.steps_used for b in self.blocks)


def stop_fill(tokens: np.ndarray, choice: np.ndarray, mask_id: int) -> np.ndarray:
    """A stopped block's tokens: each slot of ``tokens`` that still holds
    ``mask_id`` takes its row argmax from ``choice``."""
    return np.where(tokens == mask_id, choice, tokens)


def denoise_block(
    model: ToyModel,
    prefix: np.ndarray,
    block_index: int,
    budget: int = DEFAULT_STEP_BUDGET,
    policy: PolicyConfig | None = None,
    reasoning_map: EvolutionVector | SubspaceBasis | None = None,
    mode: SimilarityMode = SimilarityMode.VECTOR_COSINE,
    taps: tuple[TapSpec, ...] | None = None,
    freeze_basis: SubspaceBasis | None = None,
    alpha_hat: float | None = None,
    record: bool = False,
) -> BlockResult:
    """Denoise one block given all earlier tokens.

    ``prefix`` holds the committed tokens of every earlier block, so its
    length must be ``block_index * block_length``. Monitored policies
    require ``reasoning_map``, which ``fixed`` ignores; the freezing policy
    additionally requires ``freeze_basis``. ``alpha_hat`` enables the tail-sum side of the
    stopping certificate when available.

    ``taps`` (default: the model's default tap) are read off each step's
    one forward into ``trajectory.tap_rows``: ``taps[0]`` gives the scored
    and frozen frame, the rest raw rows over the same visible set.
    ``record`` keeps each distinct forward on ``trajectory.forwards``.
    """
    policy = policy if policy is not None else PolicyConfig()
    cfg = model.cfg
    L = cfg.block_length
    if budget < 1:
        raise ScheduleExhaustedError(f"step budget must be >= 1, got {budget}")
    prefix = np.array(prefix, dtype=np.int64).reshape(-1)  # the trajectory's own copy
    if prefix.size != block_index * L:
        raise ValueError(
            f"prefix length {prefix.size} != {block_index} blocks of {L} tokens"
        )
    if (block_index + 1) * L > cfg.max_positions:
        raise ValueError(f"block {block_index} exceeds {cfg.max_blocks} blocks")
    if policy.monitored and reasoning_map is None:
        raise ValueError(f"policy {policy.kind!r} requires a reasoning map")
    if policy.freezing and freeze_basis is None:
        raise ValueError("policy 'edit_freeze' requires a freeze basis")

    taps = tuple(taps) if taps is not None else (model.default_tap(),)
    if not taps or len(set(taps)) != len(taps):
        raise ValueError(f"taps must be nonempty and distinct, got {taps}")
    monitor = StabilityMonitor(policy.stop) if policy.monitored else None
    freezer = TokenFreezer(freeze_basis, policy.freeze) if policy.freezing else None
    weights = forward_weights(model)

    lo, mask_id = block_index * L, cfg.mask_id
    tokens = np.concatenate([prefix, np.full(L, mask_id, dtype=np.int64)])
    block = tokens[lo:]  # a view: open slots are the ones still holding the mask id
    quota = math.ceil(L / budget)
    whole_block = VisibleSet(tuple(range(lo, lo + L))) if freezer is not None else None

    # A row per distinct forward: ceil(L / quota) steps commit, one more reads the full block.
    n_rows = min(budget, -(-L // quota) + 1)
    token_rows = np.empty((n_rows, L), dtype=np.int64)
    choice = np.empty((n_rows, L), dtype=np.intp)
    visible = np.empty((n_rows, L), dtype=bool)
    tap_rows: list[list[np.ndarray]] = [[] for _ in taps]
    forwards: list[ForwardResult] = []
    certificate: Optional[Certificate] = None
    r = -1  # the row of the last forward

    for step in range(1, budget + 1):
        # Rerun forward and rank the open slots unless the step repeats
        # its predecessor, which committed nothing as it found the block full.
        repeat = step > 1 and not newly.size
        if repeat and monitor is None:
            break  # without a monitor, nothing reads a repeated step
        if not repeat:
            result = forward(
                model, tokens[None, :], taps=taps, record=record, first_row=lo, weights=weights
            )
            raw, *other_rows = (result.taps[t][0] for t in taps)
            probs = predictive_distributions(result.logits[0], cfg.vocab_size)
            r += 1
            step_choice = probs.argmax(axis=1, out=choice[r])
            # Quota commitment: most confident open slots, ties lowest index first.
            open_slots = (block == mask_id).nonzero()[0]
            ranked = np.argsort(-np.fmax.reduce(probs, axis=1)[open_slots], kind="stable")
            newly = open_slots[ranked[:quota]]
            if record:
                forwards.append(result)
        acts = raw
        if freezer is not None:
            # Every step advances the freezer; it pins rows and commits nothing.
            acts, _ = freezer.process(ActivationFrame(step, raw, whole_block))

        # A repeated step's block is full, so even a stop fills no slot.
        if not repeat:
            block[newly] = step_choice[newly]
            seen = np.not_equal(block, mask_id, out=visible[r])
            for rows, kept in zip((acts, *other_rows), tap_rows):
                kept.append(rows[seen])
            if monitor is not None:
                members = (lo + seen.nonzero()[0]).tolist()
                scores = score_alignment(tap_rows[0][-1], reasoning_map, mode)
                alignment, kl = alignment_step(
                    scores[None], members, policy.stop.tau_blk,
                    monitor.prev_probs, monitor.prev_members,
                )
                d_t = None if kl is None else float(kl[0])
        else:
            d_t = 0.0  # the predecessor's alignment row again diverges by 0.0

        if monitor is not None and monitor.take_row(alignment, members, step, d_t).stop:
            margin = MarginReport.from_row(alignment[0], members, step)
            cert = build_certificate(step, margin, policy.stop, alpha_hat=alpha_hat)
            if policy.strict_certificates and not (
                cert.local_pass and cert.global_pass is not False
            ):
                # Certificate refused the stop: keep denoising until a
                # certified step shows up.
                monitor.reject(step)
            else:
                certificate = cert
                block[:] = stop_fill(block, step_choice, mask_id)
        token_rows[r] = block
        if certificate is not None:
            break

    trajectory = DenoiseTrajectory(
        block_index=block_index,
        prefix=prefix,
        steps_used=step if monitor is not None else budget,
        token_rows=token_rows[: r + 1],
        choice=choice[: r + 1],
        visible=visible[: r + 1],
        tap_rows=tuple(map(tuple, tap_rows)),
        forwards=tuple(forwards),
    )
    freeze_events = tuple(freezer.states.values()) if freezer is not None else ()
    return BlockResult(trajectory, monitor, certificate, freeze_events)


def generate(
    model: ToyModel,
    prompt: np.ndarray,
    seq_len: int,
    policy: PolicyConfig | None = None,
    budget: int = DEFAULT_STEP_BUDGET,
    reasoning_map: EvolutionVector | SubspaceBasis | None = None,
    mode: SimilarityMode = SimilarityMode.VECTOR_COSINE,
    taps: tuple[TapSpec, ...] | None = None,
    freeze_basis: SubspaceBasis | None = None,
    alpha_hat: float | None = None,
    record: bool = False,
) -> GenerateResult:
    """Denoise every block after the prompt, left to right; each block
    records ``taps`` (and with ``record`` its forwards) as :func:`denoise_block` does."""
    policy = policy if policy is not None else PolicyConfig()
    cfg = model.cfg
    L = cfg.block_length
    prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
    if seq_len % L != 0:
        raise ValueError(f"seq_len {seq_len} is not a multiple of block length {L}")
    if prompt.size % L != 0:
        raise ValueError(f"prompt length {prompt.size} is not a multiple of {L}")
    if not prompt.size < seq_len:
        raise ValueError(f"prompt length {prompt.size} leaves no block to denoise")
    if seq_len > cfg.max_positions:
        raise ValueError(f"seq_len {seq_len} exceeds {cfg.max_positions} positions")

    tokens = prompt.copy()
    blocks: list[BlockResult] = []
    for block_index in range(prompt.size // L, seq_len // L):
        block = denoise_block(
            model,
            tokens,
            block_index,
            budget=budget,
            policy=policy,
            reasoning_map=reasoning_map,
            mode=mode,
            taps=taps,
            freeze_basis=freeze_basis,
            alpha_hat=alpha_hat,
            record=record,
        )
        tokens = np.concatenate([tokens, block.trajectory.token_rows[-1]])
        blocks.append(block)
    return GenerateResult(blocks)
