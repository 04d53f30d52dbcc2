"""Block-wise masked denoising with optional early stopping and token freezing.

The sampler fills one block of ``block_length`` positions at a time. Each
denoising step reads the block's forward pass, commits a fixed quota of the
most confident still-masked positions, and emits an activation frame over
the committed set. Under the monitored policies that frame drives the
alignment distribution whose stability decides when to cut the remaining
steps short.

A step takes one array-shaped path. The open slots are the block's slots
that still hold the mask id, and the visible set is the rest: the softmax
array has no mask column, so no commit writes the mask id. A forward's
(L, V-1) softmax array gives each row's argmax (``choice``) and largest
probability; one stable argsort of the open slots on the latter ranks
them, so tied slots commit lowest index first. The frame is the (n, d)
array of committed rows that the freezer and the alignment scorer read
whole.

``forward`` is deterministic in the tokens, so it runs only on a step
that does not repeat its predecessor (``repeats_previous``: the
predecessor committed no slot, so it found the block full and the tokens
are unchanged); the open slots are ranked right after it. It returns
only the block's rows, runs on ``forward_weights``, taken once per
block (and built once per model for a loaded one), and emits every
requested tap (``taps``); the first tap's frame is the one scored and
frozen. ``record=True`` keeps each step's recorded forward for the
offline pseudo-gradient.

Step work that no caller reads is skipped. A ``fixed`` decode scores no
frame and records no alignment. A repeated step commits nothing and
reuses the predecessor's frame, ``choice`` and tokens with ``step``
advanced, and the monitor is handed the predecessor's distribution again,
which it scores as divergence 0.0 without a KL. The stop and certificate
logic still runs on such steps.

Every policy commits ``ceil(block_length / budget)`` tokens per step, so a
run with budget ``T`` fully commits the block no later than step ``T``.
The fixed policy runs the whole budget; a monitored run that stops at step
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

from .alignment import (
    ActivationFrame,
    AlignmentDistribution,
    SimilarityMode,
    VisibleSet,
    score_frame,
)
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
from .monitor import StabilityMonitor, StopConfig, StopDecision, StopReason

POLICY_KINDS = ("fixed", "edit", "edit_freeze")
# Every spelling of a kind that a config file or ``infer --policy`` takes.
POLICY_ALIASES = {**{kind: kind for kind in POLICY_KINDS}, "edit-freeze": "edit_freeze"}
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


@dataclass(frozen=True)
class StepRecord:
    """One denoising step: what was committed and what the taps saw.

    ``choice`` is the block's row argmax at this step, the token each
    position would take if it were committed now. ``frames`` holds one
    frame per tap, in ``taps`` order, over one visible set; ``frame`` is
    the scored first tap's. A step that repeats its predecessor shares the
    predecessor's ``frames``, whose own ``step`` stays the predecessor's.
    """

    step: int
    committed: tuple[int, ...]
    tokens: tuple[int, ...]
    choice: tuple[int, ...]
    frames: tuple[ActivationFrame, ...]
    alignment: Optional[AlignmentDistribution]

    @property
    def frame(self) -> ActivationFrame:
        return self.frames[0]


@dataclass
class DenoiseTrajectory:
    block_index: int
    records: list[StepRecord]
    # Committed tokens of every earlier block; kept so offline analyses
    # can re-run any step's forward pass from the trajectory alone.
    prefix: tuple[int, ...] = ()
    # ``record=True``: one recorded forward per step, shared by reused steps.
    forwards: tuple[ForwardResult, ...] = ()

    def __post_init__(self):
        seen: set[int] = set()
        for rec in self.records:
            if not set(rec.frame.visible.members) >= seen:
                raise NonMonotoneVisibleSetError(
                    f"visible set shrank at step {rec.step} of block {self.block_index}"
                )
            seen = set(rec.frame.visible.members)

    @property
    def steps_used(self) -> int:
        return len(self.records)

    @property
    def tokens(self) -> tuple[int, ...]:
        """The block's final tokens: the last step's, a stop's fill included."""
        return self.records[-1].tokens


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
        """The block's forwards: one per step that does not repeat its predecessor."""
        records = self.trajectory.records
        return sum(not repeats_previous(prev) for prev in [None, *records[:-1]])

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
        return last.prefix + last.tokens

    @property
    def block_steps(self) -> tuple[int, ...]:
        return tuple(b.steps_used for b in self.blocks)

    @property
    def avg_steps(self) -> float:
        return float(np.mean(self.block_steps))


def stop_fill(tokens, choice, mask_id: int) -> np.ndarray:
    """A stopped block's tokens: each slot of ``tokens`` that still holds
    ``mask_id`` takes its row argmax from ``choice``."""
    tokens = np.asarray(tokens)
    return np.where(tokens == mask_id, choice, tokens)


def repeats_previous(prev: StepRecord | None) -> bool:
    """Whether the step after ``prev`` reproduces ``prev`` exactly.

    It does when ``prev`` committed no slot: ``prev`` then found the block
    full, so the next step reads the same forward pass over the same
    committed set and commits nothing either; frame, ``choice`` and tokens
    are ``prev``'s, under every policy.
    """
    return prev is not None and not prev.committed


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
    one forward into ``StepRecord.frames``: ``taps[0]`` gives the scored
    and frozen ``frame``, the rest raw frames over the same visible set. ``record``
    keeps each step's recorded forward on ``trajectory.forwards``.
    """
    policy = policy if policy is not None else PolicyConfig()
    cfg = model.cfg
    L = cfg.block_length
    if budget < 1:
        raise ScheduleExhaustedError(f"step budget must be >= 1, got {budget}")
    prefix = np.asarray(prefix, dtype=np.int64).reshape(-1)
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
    whole_block = VisibleSet(tuple(range(lo, lo + L)))

    records: list[StepRecord] = []
    forwards: list[ForwardResult] = []
    certificate: Optional[Certificate] = None

    for step in range(1, budget + 1):
        # Rerun forward and rank the open slots unless the step repeats
        # its predecessor, which committed nothing as it found the block full.
        prev = records[-1] if records else None
        repeat = repeats_previous(prev)
        newly: list[int] = []
        if not repeat:
            result = forward(
                model, tokens[None, :], taps=taps, record=record, first_row=lo, weights=weights
            )
            tap_rows, *other_rows = (result.taps[t][0] for t in taps)
            probs = predictive_distributions(result.logits[0], cfg.vocab_size)
            choice = probs.argmax(axis=1)
            choice_t = tuple(choice.tolist())
            # Quota commitment: most confident open slots, ties lowest index first.
            open_slots = (block == mask_id).nonzero()[0]
            ranked = np.argsort(-probs.max(axis=1)[open_slots], kind="stable")
            newly = open_slots[ranked[:quota]].tolist()
        acts = tap_rows
        if freezer is not None:
            # Every step advances the freezer; it pins rows and commits nothing.
            acts, _ = freezer.process(ActivationFrame(step, acts, whole_block))

        # A repeated step's block is full, so even a stop fills no slot.
        if repeat:
            frames = prev.frames
            alignment = prev.alignment and AlignmentDistribution(prev.alignment.dist, step)
        else:
            block[newly] = choice[newly]
            visible = block != mask_id
            members = VisibleSet(tuple((lo + visible.nonzero()[0]).tolist()))
            frames = tuple(
                ActivationFrame(step, rows[visible], members) for rows in (acts, *other_rows)
            )
            alignment = (
                score_frame(frames[0], reasoning_map, mode, policy.stop.tau_blk)
                if monitor is not None
                else None
            )

        if monitor is not None and monitor.observe(alignment).stop:
            cert = build_certificate(
                step, MarginReport.from_distribution(alignment), policy.stop, alpha_hat=alpha_hat
            )
            if policy.strict_certificates and not (
                cert.local_pass and cert.global_pass is not False
            ):
                # Certificate refused the stop: keep denoising until a
                # certified step shows up.
                monitor.reject(step)
            else:
                certificate = cert
                block[:] = stop_fill(block, choice, mask_id)

        records.append(
            StepRecord(
                step=step,
                committed=tuple(lo + i for i in newly),
                tokens=prev.tokens if repeat else tuple(block.tolist()),
                choice=choice_t,
                frames=frames,
                alignment=alignment,
            )
        )
        if record:
            forwards.append(result)
        if certificate is not None:
            break

    trajectory = DenoiseTrajectory(
        block_index=block_index,
        records=records,
        prefix=tuple(prefix.tolist()),
        forwards=tuple(forwards),
    )
    return BlockResult(
        trajectory=trajectory,
        monitor=monitor,
        certificate=certificate,
        freeze_events=tuple(freezer.states.values()) if freezer is not None else (),
    )


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
        tokens = np.concatenate([tokens, np.asarray(block.trajectory.tokens)])
        blocks.append(block)
    return GenerateResult(blocks)
