"""Shared builders for synthetic distributions, chains, and frames, test
oracles (the out-of-place and the batched forward pass, the softmax's
row-sum check, a scalar cosine,
the monitor's matched-support KL through ``restrict`` and its two error
classes, which only these oracles use, the windowed TV bound, the step
objective of the pseudo-gradient and the per-token freezing rule), the
per-token reference path of the denoising step, the object path of a
monitored step (``object_path_monitor``), and the live per-cell sweeps
that calibrate's and ablate's replays stand in for."""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from editstop.alignment import (
    ActivationFrame,
    AlignmentDistribution,
    SimilarityMode,
    VisibleSet,
    score_frame,
)
from editstop.certify import (
    DELTA_GRID,
    OMEGA_GRID,
    MarginReport,
    build_certificate,
    tv_budget,
)
from editstop.errors import (
    DimMismatchError,
    EditStopError,
    EmptyInputError,
    MissingStepError,
    SupportMismatchError,
    VocabOverflowError,
    WindowTooShortError,
)
from editstop.capture import SubspaceBasis
from editstop.freeze import FreezeConfig
from editstop.generate import PolicyConfig, generate
from editstop.harness import ABLATION_SITES, _sample_instances
from editstop.linalg import (
    NORM_FLOOR,
    PROB_FLOOR,
    ProbVector,
    kl_divergence,
    softmax_rows,
    total_variation,
)
from editstop.metaformat import load_metadata
from editstop.model import (
    PROJECTIONS,
    ForwardResult,
    TapSpec,
    ToyModel,
    backward_lora,
    forward,
    forward_weights,
    load_checkpoint,
    lora_param_key,
    module_path,
    parse_module_path,
    predictive_distributions,
)
from editstop.monitor import StabilityMonitor, StopConfig, StopDecision, StopReason
from editstop.tasks import make_task


# --- the out-of-place forward pass --------------------------------------------
#
# ``model.forward`` as it ran before its attention and MLP worked in place and
# before it folded the adapters into the frozen projections, verbatim but for
# its name: every projection factored, ``x @ W.T`` plus ``(x @ A.T) @ B.T``.
# ``forward`` must match it to rounding, and its block-0 ``x_in`` and ``ax_*``
# bit for bit.


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    n, t, _ = x.shape
    return x.reshape(n, t, n_heads, head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    n, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, t, h * hd)


def _softmax_last(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_forward(
    model: ToyModel,
    tokens: np.ndarray,
    taps: tuple[TapSpec, ...] = (),
    record: bool = False,
    first_row: int = 0,
) -> ForwardResult:
    """Full-sequence forward pass.

    ``tokens`` is (N, T) or (T,); outputs always carry the batch axis.
    ``taps`` name the projections whose adapter-branch outputs come back
    on ``ForwardResult.taps``. With ``record=True`` every intermediate
    needed by :func:`backward_lora` is kept on the result.

    Logits and taps come back for rows ``first_row:`` only: the last
    layer's queries, attention, MLP and head skip the rows before it, while
    every layer's keys and values still cover all rows. The kept rows match
    the full pass to rounding, not bit for bit; so do the gradients of a
    recorded block-row pass.
    """
    cfg = model.cfg
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be 1-D or 2-D, got shape {tokens.shape}")
    if tokens.size == 0:
        raise ValueError("tokens must be nonempty")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise VocabOverflowError(
            f"token ids must be in [0, {cfg.vocab_size}), got range "
            f"[{tokens.min()}, {tokens.max()}]"
        )
    n, t = tokens.shape
    if t > cfg.max_positions:
        raise ValueError(f"sequence length {t} exceeds {cfg.max_positions} positions")
    if not 0 <= first_row < t:
        raise ValueError(f"first_row {first_row} outside [0, {t})")
    by_block: dict[int, list[TapSpec]] = {}
    for spec in taps:
        blk, _ = parse_module_path(spec.module)
        if not 0 <= blk < cfg.n_blocks:
            raise ValueError(f"tap {spec.module!r} outside model depth {cfg.n_blocks}")
        by_block.setdefault(blk, []).append(spec)

    x = model.base["emb_tok"][tokens] + model.base["emb_pos"][:t][None, :, :]
    tap_out: dict[TapSpec, np.ndarray] = {}
    block_caches: list[dict] = []
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for b in range(cfg.n_blocks):
        x_in = x
        q_from = first_row if b == cfg.n_blocks - 1 else 0
        full = {}
        cache_b = {"x_in": x_in} if record else None
        for proj in PROJECTIONS:
            w = model.base[f"block{b}.w{proj}"]
            a = model.lora[lora_param_key(b, proj, "a")]
            bb = model.lora[lora_param_key(b, proj, "b")]
            start = q_from if proj == "q" else 0
            ax = x_in[:, start:] @ a.T
            branch = ax @ bb.T
            full[proj] = x_in[:, start:] @ w.T + branch
            for spec in by_block.get(b, ()):
                if spec.module == module_path(b, proj):
                    tap_out[spec] = branch[:, first_row - start:]
            if record:
                cache_b[f"ax_{proj}"] = ax
        qh = _split_heads(full["q"], cfg.n_heads, cfg.head_dim)
        kh = _split_heads(full["k"], cfg.n_heads, cfg.head_dim)
        vh = _split_heads(full["v"], cfg.n_heads, cfg.head_dim)
        attn = _softmax_last(qh @ kh.swapaxes(-1, -2) * scale)
        merged = _merge_heads(attn @ vh)
        x_mid = x_in[:, q_from:] + merged @ model.base[f"block{b}.wo"].T
        h1 = x_mid @ model.base[f"block{b}.w1"].T
        t1 = np.tanh(h1)
        x = x_mid + t1 @ model.base[f"block{b}.w2"].T
        if record:
            cache_b.update(q=qh, k=kh, v=vh, attn=attn, t1=t1)
            block_caches.append(cache_b)
    logits = x @ model.base["head"].T
    cache = {"tokens": tokens, "blocks": block_caches} if record else None
    return ForwardResult(logits=logits, taps=tap_out, cache=cache)


# --- the batched forward pass -------------------------------------------------
#
# ``model.forward`` as it ran before its residual stream became one 2-D
# ``(N * T, d)`` array, verbatim but for its name and its input checks: the
# adapters folded into row-major projection stacks, attention and the MLP in
# place, each GEMM of a batch on a 2-D view (``_mm``) and a single sample on
# plain ``x @ W``. ``forward`` must match it bit for bit: logits, taps and
# every recorded array.


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    if x.shape[0] == 1:
        return x @ w
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def batched_forward(
    model: ToyModel,
    tokens: np.ndarray,
    taps: tuple[TapSpec, ...] = (),
    record: bool = False,
    first_row: int = 0,
) -> ForwardResult:
    cfg = model.cfg
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    t = tokens.shape[1]
    d = cfg.d_model
    merged = tuple(np.ascontiguousarray(w) for w in forward_weights(model).qkv)
    by_block: dict[int, list[TapSpec]] = {}
    for spec in taps:
        blk, _ = parse_module_path(spec.module)
        by_block.setdefault(blk, []).append(spec)

    x = model.base["emb_tok"][tokens] + model.base["emb_pos"][:t][None, :, :]
    tap_out: dict[TapSpec, np.ndarray] = {}
    block_caches: list[dict] = []
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for b in range(cfg.n_blocks):
        x_in = x
        q_from = first_row if b == cfg.n_blocks - 1 else 0
        cache_b = {"x_in": x_in} if record else None
        w = merged[b]
        if q_from:
            kv = _mm(x_in, w[d:].T)
            full = {"q": _mm(x_in[:, q_from:], w[:d].T), "k": kv[..., :d], "v": kv[..., d:]}
        else:
            qkv = _mm(x_in, w.T)
            full = {"q": qkv[..., :d], "k": qkv[..., d : 2 * d], "v": qkv[..., 2 * d :]}
        for spec in by_block.get(b, ()):
            _, proj = parse_module_path(spec.module)
            a, bb = (model.lora[lora_param_key(b, proj, ad)] for ad in ("a", "b"))
            tap_out[spec] = _mm(x_in[:, first_row:] @ a.T, bb.T)
        if record:
            for proj in PROJECTIONS:
                start = q_from if proj == "q" else 0
                a = model.lora[lora_param_key(b, proj, "a")]
                cache_b[f"ax_{proj}"] = x_in[:, start:] @ a.T
        qh = _split_heads(full["q"], cfg.n_heads, cfg.head_dim)
        kh = _split_heads(full["k"], cfg.n_heads, cfg.head_dim)
        vh = _split_heads(full["v"], cfg.n_heads, cfg.head_dim)
        attn = qh @ kh.swapaxes(-1, -2)
        attn *= scale
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        x_mid = _mm(_merge_heads(attn @ vh), model.base[f"block{b}.wo"].T)
        x_mid += x_in[:, q_from:]
        t1 = _mm(x_mid, model.base[f"block{b}.w1"].T)
        np.tanh(t1, out=t1)
        x = _mm(t1, model.base[f"block{b}.w2"].T)
        x += x_mid
        if record:
            cache_b.update(q=qh, k=kh, v=vh, attn=attn, t1=t1)
            block_caches.append(cache_b)
    logits = _mm(x, model.base["head"].T)
    cache = {"tokens": tokens, "blocks": block_caches} if record else None
    return ForwardResult(logits=logits, taps=tap_out, cache=cache)


# --- oracles -----------------------------------------------------------------


def row_sum_softmax(z) -> np.ndarray:
    """``linalg.softmax_rows`` as it checked its rows before it read their
    normalizers: the normalized rows summed again, and a row that is
    non-finite or more than 1e-9 from summing to one refused."""
    ez = np.exp(z - z.max(axis=-1, keepdims=True))
    probs = ez / ez.sum(axis=-1, keepdims=True)
    worst = abs(probs.sum(axis=-1) - 1.0).max()
    if not worst <= 1e-9:
        raise EmptyInputError(f"a softmax row is non-finite or {float(worst)!r} from summing to 1")
    return np.maximum(probs, PROB_FLOOR)


def softmax_outcome(softmax, z) -> bytes | str:
    """``softmax(z)``'s bits, or ``"refused"`` when it raises ``EmptyInputError``."""
    try:
        return softmax(z).tobytes()
    except EmptyInputError:
        return "refused"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_trajectory(got, want) -> None:
    """Two decodes of a block, bit for bit: the step count, each distinct
    forward's tokens, row argmax and visible slots (so each step's commit
    set) and every tap's visible rows."""
    assert got.steps_used == want.steps_used
    for name in ("token_rows", "choice", "visible"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for g, w in zip(got.tap_rows, want.tap_rows, strict=True):
        for a, b in zip(g, w, strict=True):
            assert same_bits(a, b)


def assert_same_forward(got: ForwardResult, want: ForwardResult) -> None:
    """Logits, taps and every recorded array, bit for bit."""
    assert same_bits(got.logits, want.logits)
    assert list(got.taps) == list(want.taps)
    for spec in want.taps:
        assert same_bits(got.taps[spec], want.taps[spec]), spec.module
    if want.cache is None:
        assert got.cache is None
        return
    assert same_bits(got.cache["tokens"], want.cache["tokens"])
    blocks = zip(got.cache["blocks"], want.cache["blocks"], strict=True)
    for b, (mine, theirs) in enumerate(blocks):
        assert list(mine) == list(theirs)
        for key in theirs:
            assert same_bits(mine[key], theirs[key]), (b, key)


class ZeroNormError(EditStopError):
    """A vector or a restriction whose norm or mass is zero."""


class EmptyIntersectionError(EditStopError):
    """Two supports that share no member."""


def restrict(pv: ProbVector, subset: tuple[int, ...]) -> ProbVector:
    """``pv`` restricted to ``subset`` of its support and renormalized."""
    idx = [pv.support.index(s) for s in subset]
    sub = pv.probs[idx]
    mass = float(sub.sum())
    if mass <= 0.0:
        raise ZeroNormError("restriction has zero mass")
    return ProbVector(sub / mass, tuple(subset))


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]; the
    per-token form of the ``vector_cosine`` score."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise DimMismatchError(f"need two vectors of one length, got {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        raise ZeroNormError("cosine similarity undefined for (near-)zero vectors")
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


def matched_renormalize(
    curr: AlignmentDistribution, prev: AlignmentDistribution
) -> tuple[ProbVector, ProbVector, VisibleSet]:
    """Restrict both distributions to their common support and renormalize.

    Returns (current restricted, previous restricted, intersection).
    """
    inter = tuple(sorted(set(curr.dist.support) & set(prev.dist.support)))
    if not inter:
        raise EmptyIntersectionError(
            f"supports {prev.dist.support} and {curr.dist.support} are disjoint"
        )
    return restrict(curr.dist, inter), restrict(prev.dist, inter), VisibleSet(inter)


def step_divergence(p_tilde: ProbVector, q_tilde: ProbVector) -> float:
    """KL of the current restricted distribution from the previous one."""
    return kl_divergence(p_tilde, q_tilde)


def monitor_divergence(curr: AlignmentDistribution, prev: AlignmentDistribution) -> float:
    """The step divergence ``StabilityMonitor.observe`` records, through
    restricted ``ProbVector``s: the oracle of ``monitor.matched_kl_rows``."""
    return step_divergence(*matched_renormalize(curr, prev)[:2])


# Rounding room for the windowed TV bound's comparison.
TV_SLACK = 1e-9


def verify_runlength_bound(distributions, delta: float, omega: int, monitor=None) -> bool:
    """Check the windowed TV bound on an actual stability window.

    Takes the per-step distributions of a block (the last ``omega + 1``
    are the window), restricts them to the running intersection of their
    supports, and compares the endpoint TV against ``tv_budget``. When a
    ``StabilityMonitor`` is supplied, the sub-threshold precondition on its
    last ``omega`` divergences is verified first.
    """
    if len(distributions) < omega + 1:
        raise WindowTooShortError(f"need {omega + 1} distributions, got {len(distributions)}")
    if monitor is not None:
        tail = monitor.divergence_trace[-omega:]
        if len(tail) < omega:
            raise WindowTooShortError(f"trace has {len(tail)} divergences, need {omega}")
        for row in tail:
            if math.isnan(row.divergence) or row.divergence >= delta:
                raise ValueError(
                    f"window precondition violated at step {row.step}: "
                    f"divergence {row.divergence} >= delta {delta}"
                )
    window = [
        d.dist if isinstance(d, AlignmentDistribution) else d
        for d in distributions[-(omega + 1):]
    ]
    common = tuple(sorted(set.intersection(*(set(p.support) for p in window))))
    if not common:
        raise SupportMismatchError("window supports have empty intersection")
    first = restrict(window[0], common)
    last = restrict(window[-1], common)
    return total_variation(last, first) <= tv_budget(delta, omega) + TV_SLACK


def step_kl_objective(model, trajectory, step: int) -> float:
    """Summed KL of step ``step``'s predictive rows from step ``step + 1``'s
    over the later step's committed support, by two fresh forward passes.
    ``pseudo_gradient`` is its gradient with step ``step``'s rows held fixed."""
    if step < 1 or step + 1 > trajectory.steps_used:
        raise MissingStepError(f"steps {step} and {step + 1} are not both recorded")
    cfg = model.cfg
    L = cfg.block_length
    lo = trajectory.block_index * L
    prefix = np.asarray(trajectory.prefix, dtype=np.int64)

    def rows(at: int) -> np.ndarray:
        if at == 1:
            block = np.full(L, cfg.mask_id, dtype=np.int64)
        else:
            block = trajectory.token_rows[trajectory.row(at - 1)]
        logits = forward(model, np.concatenate([prefix, block])[None, :], taps=()).logits
        return predictive_distributions(logits[0, lo : lo + L], cfg.vocab_size)

    p_t, p_t1 = rows(step), rows(step + 1)
    total = 0.0
    for s in trajectory.visible[trajectory.row(step + 1)].nonzero()[0]:
        p, q = p_t[s], p_t1[s]
        total += float(np.sum(p * (np.log(p) - np.log(q))))
    return total


def reference_pseudo_gradient(model, trajectory, step: int, keys):
    """The pseudo-gradient of ``keys`` by the slow path: two fresh recorded
    forwards, one support row at a time, and the full reverse pass over
    every adapter, of which ``keys`` are kept."""
    cfg = model.cfg
    L = cfg.block_length
    lo = trajectory.block_index * L
    prefix = np.asarray(trajectory.prefix, dtype=np.int64)

    def run(at: int):
        if at == 1:
            block = np.full(L, cfg.mask_id, dtype=np.int64)
        else:
            block = trajectory.token_rows[trajectory.row(at - 1)]
        res = forward(model, np.concatenate([prefix, block])[None, :], record=True)
        return res, predictive_distributions(res.logits[0, lo : lo + L], cfg.vocab_size)

    (_, p_t), (res_t1, p_t1) = run(step), run(step + 1)
    support = lo + trajectory.visible[trajectory.row(step + 1)].nonzero()[0]
    real = cfg.vocab_size - 1
    dlogits_t1 = np.zeros_like(res_t1.logits)
    for s in support:
        dlogits_t1[0, s, :real] = p_t1[s - lo] - p_t[s - lo]
    grads = backward_lora(model, res_t1, dlogits_t1)
    return {key: grads[key] for key in keys}


def local_distribution(f_s: np.ndarray, basis: SubspaceBasis, tau_sub: float) -> ProbVector:
    """Distribution over subspace components from one activation.

    Coordinates are taken in the basis, folded by absolute value, and
    softmaxed at the sub-token temperature. The support is the component
    indices 0..k-1. The per-token form of one row of ``TokenFreezer``'s
    array pass.
    """
    f_s = np.asarray(f_s, dtype=np.float64)
    if f_s.shape != (basis.d_out,):
        raise DimMismatchError(
            f"activation shape {f_s.shape} != basis dimension ({basis.d_out},)"
        )
    g = basis.columns.T @ f_s
    return ProbVector(softmax_rows(np.abs(g) / tau_sub), tuple(range(basis.k)))


@dataclass
class ReferenceTokenState:
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
    state: ReferenceTokenState,
    f_s: np.ndarray,
    basis: SubspaceBasis,
    cfg: FreezeConfig,
    step: int | None = None,
) -> tuple[ReferenceTokenState, bool]:
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


def freeze_keys(states) -> tuple[tuple[int, int, float], ...]:
    """``(frozen_at, token, epsilon_s)`` of each freeze state, in order: what
    a block's freeze events say, without the pinned arrays, which ``==``
    does not compare as one value."""
    return tuple((st.frozen_at, st.token, st.epsilon_s) for st in states)


def make_dist(probs, support=None, step=0) -> AlignmentDistribution:
    """Alignment distribution with given probabilities, bypassing scoring."""
    probs = np.asarray(probs, dtype=np.float64)
    sup = tuple(support) if support is not None else tuple(range(probs.size))
    return AlignmentDistribution(dist=ProbVector(probs, sup), step=step)


def make_chain(prob_rows, support=None, start_step=1) -> list[AlignmentDistribution]:
    """One distribution per row, with consecutive step numbers."""
    return [
        make_dist(row, support=support, step=start_step + i)
        for i, row in enumerate(prob_rows)
    ]


def frame_from(vectors: dict[int, np.ndarray], step: int = 0) -> ActivationFrame:
    """Frame over the dict's tokens, one row per token in increasing order."""
    members = tuple(sorted(vectors))
    return ActivationFrame(step, np.stack([vectors[s] for s in members]), VisibleSet(members))


def count_forwards(monkeypatch, module: str = "editstop.generate", name: str = "forward") -> list:
    """A list that gains one ``(args, kwargs)`` entry per ``name`` call made
    from ``module`` (``forward`` unless another function is named).

    The package re-exports the ``generate`` function under its submodule's
    name, so the submodule is fetched with ``importlib``.
    """
    target = importlib.import_module(module)
    real = getattr(target, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    return calls


def constant_frames(vectors: dict[int, np.ndarray], n_steps: int, start_step=1):
    """Identical activation frames repeated for n_steps."""
    return [frame_from(vectors, start_step + i) for i in range(n_steps)]


def geometric_chain(pi, d, alpha, n_steps, support=None, start_step=1):
    """Chain p_t = pi + alpha^t * d converging to pi with exact TV ratio alpha.

    ``d`` must sum to zero and keep every entry of the early distributions
    inside [0, 1].
    """
    pi = np.asarray(pi, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    assert abs(d.sum()) < 1e-12
    rows = [pi + (alpha**t) * d for t in range(n_steps)]
    return make_chain(rows, support=support, start_step=start_step)


def random_simplex(rng, n, floor=1e-4):
    """Random interior point of the n-simplex."""
    w = rng.random(n) + floor
    return w / w.sum()


class CoupledLinearModel:
    """Token activations contracting toward fixed points with weak
    cross-token coupling, plus a softmax-over-cosines readout.

    The linear dynamics make the true contraction and coupling rates
    known up to small nonlinear-readout corrections, which is what the
    probe and safety machinery are tested against.
    """

    def __init__(self, rng, n_tokens=6, dim=4, alpha=0.5, gamma=0.05):
        self.n_tokens = n_tokens
        self.dim = dim
        self.alpha = alpha
        self.gamma = gamma
        self.targets = rng.normal(size=(n_tokens, dim)) * 2.0
        self.map_u = rng.random(dim) + 0.5
        coupling = rng.normal(size=(n_tokens, n_tokens))
        np.fill_diagonal(coupling, 0.0)
        row_norms = np.abs(coupling).sum(axis=1, keepdims=True)
        self.coupling = coupling / np.maximum(row_norms, 1e-12)

    @property
    def activation_dim(self):
        return self.dim

    def init_state(self, rng, spread=1.5):
        return self.targets + rng.normal(size=(self.n_tokens, self.dim)) * spread

    def step(self, state):
        drift = state - self.targets
        return self.targets + self.alpha * drift + self.gamma * (self.coupling @ drift)

    def distribution(self, state) -> ProbVector:
        scores = np.array(
            [cosine_similarity(state[s], self.map_u) for s in range(self.n_tokens)]
        )
        return ProbVector(softmax_rows(scores), tuple(range(self.n_tokens)))

    def counterfactual_distribution(self, state, token, delta=None) -> ProbVector:
        perturbed = np.array(state, dtype=np.float64, copy=True)
        if delta is not None:
            perturbed[token] = perturbed[token] + delta
        return self.distribution(self.step(perturbed))

    def run(self, state, steps, pinned=None):
        """Advance ``steps`` steps; ``pinned`` maps token -> fixed vector."""
        state = np.array(state, dtype=np.float64, copy=True)
        for _ in range(steps):
            state = self.step(state)
            if pinned:
                for s, vec in pinned.items():
                    state[s] = vec
        return state


def subdelta_walks(rng, n_walks, k, delta, steps):
    """Random walks on the k-simplex whose per-step KL(new || old) stays
    strictly below ``delta``.

    Each transition applies an exponential tilt along a random direction,
    with the tilt size bisected so the realized KL lands just under a
    random fraction of the threshold. Returns (n_walks, steps + 1, k).
    """
    w = rng.random((n_walks, k)) + 1e-2
    p = w / w.sum(axis=1, keepdims=True)
    rows = [p]
    for _ in range(steps):
        z = rng.normal(size=(n_walks, k))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        target = delta * rng.uniform(0.05, 0.98, size=n_walks)
        logp = np.log(p)

        def kl_at(t):
            a = logp + t[:, None] * z
            a -= a.max(axis=1, keepdims=True)
            q = np.exp(a)
            q /= q.sum(axis=1, keepdims=True)
            kl = np.sum(q * (np.log(np.maximum(q, 1e-300)) - logp), axis=1)
            return q, kl

        lo = np.zeros(n_walks)
        hi = np.full(n_walks, 1.0)
        for _ in range(40):
            _, kl = kl_at(hi)
            low = kl < target
            if not low.any() or hi.max() > 1e4:
                break
            hi[low] *= 2.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            _, kl = kl_at(mid)
            above = kl > target
            hi[above] = mid[above]
            lo[~above] = mid[~above]
        q, kl = kl_at(lo)
        assert np.all(kl < delta)
        # Same floor the distribution type applies; keeps logs finite on
        # the next transition without renormalizing.
        q = np.maximum(q, 1e-12)
        rows.append(q)
        p = q
    return np.stack(rows, axis=1)


# --- per-token reference path of the denoising step --------------------------
#
# The step loop as it was written before it became array-shaped: one
# ProbVector per position, a sorted ranking, one cosine (or projection)
# per token and one freezer call per token, which pins a row and commits
# nothing. Tests compare ``generate`` against it.


def reference_scores(vectors: dict[int, np.ndarray], reasoning_map, mode: SimilarityMode):
    """Score one token at a time, as ``score_alignment`` used to."""
    scores: dict[int, float] = {}
    for s, f in vectors.items():
        try:
            if mode is SimilarityMode.VECTOR_COSINE:
                scores[s] = cosine_similarity(f, reasoning_map.u)
            elif mode is SimilarityMode.SUBSPACE_NORM:
                scores[s] = float(np.linalg.norm(reasoning_map.columns.T @ f))
            else:
                norm = float(np.linalg.norm(f))
                if norm < NORM_FLOOR:
                    raise ZeroNormError("zero activation")
                coords = reasoning_map.columns.T @ f
                scores[s] = min(float(np.linalg.norm(coords)) / norm, 1.0)
        except ZeroNormError:
            scores[s] = mode.minimum_score
    return scores


@dataclass
class ReferenceBlock:
    committed: list[tuple[int, ...]]  # per step, in commit order
    choices: list[tuple[int, ...]]  # per step, each position's argmax token
    final_commit: tuple[int, ...]
    tokens: tuple[int, ...]
    monitor: StabilityMonitor | None
    stop_decision: object
    certificate: object
    rejected_stops: tuple[int, ...]
    freeze_events: tuple[tuple[int, int, float], ...]  # (frozen_at, token, epsilon_s)


def reference_denoise_block(model, prefix, block_index, budget, policy, reasoning_map=None,
                            mode=SimilarityMode.VECTOR_COSINE, freeze_basis=None,
                            alpha_hat=None) -> ReferenceBlock:
    cfg = model.cfg
    L = cfg.block_length
    lo = block_index * L
    tap = model.default_tap()
    stop_cfg = policy.stop
    monitor = StabilityMonitor(stop_cfg) if policy.monitored else None
    freeze_states: dict[int, ReferenceTokenState] = {}
    events: list[tuple[int, int, float]] = []
    tokens = np.concatenate([np.asarray(prefix, dtype=np.int64),
                             np.full(L, cfg.mask_id, dtype=np.int64)])
    committed = [False] * L
    quota = math.ceil(L / budget)
    support = tuple(range(cfg.vocab_size - 1))
    steps: list[tuple[int, ...]] = []
    choices: list[tuple[int, ...]] = []
    stop_decision = certificate = None
    rejected: list[int] = []
    final_commit: tuple[int, ...] = ()

    def commit(dist, i):
        tokens[lo + i] = dist.support[int(np.argmax(dist.probs))]
        committed[i] = True

    for step in range(1, budget + 1):
        result = forward(model, tokens[None, :], taps=(tap,))
        acts = result.taps[tap][0]
        logits = result.logits[0, lo: lo + L, : cfg.vocab_size - 1]
        dists = [ProbVector(softmax_rows(logits[i]), support) for i in range(L)]
        newly: list[int] = []
        open_positions = [i for i in range(L) if not committed[i]]
        ranked = sorted(open_positions, key=lambda i: (-float(dists[i].probs.max()), i))
        for i in ranked[:quota]:
            commit(dists[i], i)
            newly.append(lo + i)
        effective = {lo + i: acts[lo + i] for i in range(L)}
        if policy.freezing:
            for s in range(lo, lo + L):
                st = freeze_states.setdefault(s, ReferenceTokenState(token=s))
                if not st.frozen:
                    _, now = token_stability_step(st, effective[s], freeze_basis,
                                                  policy.freeze, step)
                    if now:
                        events.append((step, s, st.epsilon_s))
                if st.frozen:
                    effective[s] = st.frozen_value
        steps.append(tuple(newly))
        choices.append(tuple(d.support[int(np.argmax(d.probs))] for d in dists))
        if monitor is None:
            continue
        visible = VisibleSet(tuple(lo + i for i in range(L) if committed[i]))
        scores = reference_scores({s: effective[s] for s in visible.members},
                                  reasoning_map, mode)
        raw = np.array([scores[s] for s in visible.members])
        alignment = AlignmentDistribution(
            ProbVector(softmax_rows(raw / stop_cfg.tau_blk), visible.members), step
        )
        decision = monitor.observe(alignment)
        if not decision.stop:
            continue
        margin = MarginReport.from_distribution(alignment)
        cert = build_certificate(step, margin, stop_cfg, alpha_hat=alpha_hat)
        if policy.strict_certificates and not (cert.local_pass and cert.global_pass is not False):
            monitor.reject(step)
            rejected.append(step)
            continue
        stop_decision, certificate = decision, cert
        rest = [i for i in range(L) if not committed[i]]
        for i in rest:
            commit(dists[i], i)
        final_commit = tuple(lo + i for i in rest)
        break
    if monitor is not None and stop_decision is None:
        stop_decision = StopDecision(
            len(steps), StopReason.BUDGET_EXHAUSTED, monitor.counter
        )
    return ReferenceBlock(steps, choices, final_commit, tuple(int(t) for t in tokens[lo: lo + L]),
                          monitor, stop_decision, certificate, tuple(rejected), tuple(events))


def object_path_monitor(block, reasoning_map, mode, policy, alpha_hat=None):
    """The object path a monitored step took before it ran on arrays,
    replayed over a decoded block's scored rows (``tap_rows[0]``, the frames
    as the freezer left them).

    Each distinct forward's frame (a ``VisibleSet`` and an
    ``ActivationFrame``) goes through ``score_frame``; each step's
    ``AlignmentDistribution`` through ``StabilityMonitor.observe``, a
    repeated step handing in its predecessor's distribution again; a fired
    stop's certificate comes from ``MarginReport.from_distribution`` and is
    refused as a strict policy refuses it. Returns the monitor and the
    accepted certificate (None if no stop was accepted within the block's
    steps)."""
    trajectory = block.trajectory
    lo = trajectory.block_index * trajectory.visible.shape[1]
    monitor = StabilityMonitor(policy.stop)
    alignment = None
    for step in range(1, trajectory.steps_used + 1):
        r = trajectory.row(step)
        if alignment is None or r != trajectory.row(step - 1):
            members = VisibleSet(tuple((lo + trajectory.visible[r].nonzero()[0]).tolist()))
            frame = ActivationFrame(step, trajectory.tap_rows[0][r], members)
            alignment = score_frame(frame, reasoning_map, mode, policy.stop.tau_blk)
        else:
            alignment = AlignmentDistribution(alignment.dist, step)
        if not monitor.observe(alignment).stop:
            continue
        margin = MarginReport.from_distribution(alignment)
        cert = build_certificate(step, margin, policy.stop, alpha_hat=alpha_hat)
        if policy.strict_certificates and not (cert.local_pass and cert.global_pass is not False):
            monitor.reject(step)
        else:
            return monitor, cert
    return monitor, None


def final_commit(trajectory) -> tuple[int, ...]:
    """The block positions a stop filled: those not visible at the last row."""
    lo = trajectory.block_index * trajectory.visible.shape[1]
    return tuple((lo + (~trajectory.visible[-1]).nonzero()[0]).tolist())


def step_commits(trajectory) -> list[set[int]]:
    """Each step's committed block positions, as a set, read off the
    trajectory's ``visible`` rows: row ``r``'s step commits the slots first
    visible at row ``r``, and a repeated step commits none."""
    lo = trajectory.block_index * trajectory.visible.shape[1]
    before = np.zeros_like(trajectory.visible[0])
    rows = []
    for seen in trajectory.visible:
        rows.append(set((lo + (seen & ~before).nonzero()[0]).tolist()))
        before = seen
    return rows + [set()] * (trajectory.steps_used - len(rows))


def reference_generate(model, prompt, seq_len, policy, budget, **kwargs):
    """Every block after the prompt through the per-token reference path."""
    L = model.cfg.block_length
    tokens = np.asarray(prompt, dtype=np.int64)
    blocks = []
    for block_index in range(tokens.size // L, seq_len // L):
        block = reference_denoise_block(model, tokens, block_index, budget, policy, **kwargs)
        tokens = np.concatenate([tokens, np.asarray(block.tokens, dtype=np.int64)])
        blocks.append(block)
    return tuple(int(t) for t in tokens), blocks


# --- live per-cell sweeps ------------------------------------------------------
#
# What ``cmd_calibrate`` and ``cmd_ablate`` compute, by one live ``generate``
# per grid cell and prompt instead of replaying one recorded run per prompt.


def reference_utility_table(config, artifacts):
    """The calibration utility sweep run live.

    Returns ``(rows, chosen, runs)``: the utility table, its chosen row, and
    each (delta, omega) cell's ``GenerateResult`` per validation prompt.
    """
    task = make_task(config.task, config.vocab_size, config.block_length)
    mode = config.similarity_mode()
    reasoning_map = artifacts.basis if mode.value.startswith("subspace") else artifacts.vector
    n_val = max(1, int(round(config.validation_fraction * config.eval_instances)))
    instances = _sample_instances(task, (config.model_seed, 707), n_val)
    rows, best, runs = [], None, {}
    for delta, omega in product(DELTA_GRID, OMEGA_GRID):
        policy = PolicyConfig(
            "edit", stop=StopConfig(delta=delta, omega=omega, tau_blk=config.tau_blk)
        )
        results = [
            generate(artifacts.model, prompt, config.seq_len, policy, budget=config.budget,
                     reasoning_map=reasoning_map, mode=mode)
            for prompt, _ in instances
        ]
        runs[delta, omega] = results
        outcomes = [
            (
                task.exact_match(np.asarray(res.tokens[prompt.size:]), target),
                float(np.mean(res.block_steps)),
            )
            for (prompt, target), res in zip(instances, results)
        ]
        accuracy = float(np.mean([e for e, _ in outcomes]))
        avg_steps = float(np.mean([s for _, s in outcomes]))
        row = {"delta": delta, "omega": omega, "accuracy": accuracy,
               "avg_steps": avg_steps, "utility": accuracy / avg_steps}
        rows.append(row)
        key = (row["utility"], -avg_steps, -delta, -omega)
        if best is None or key > best[0]:
            best = (key, row)
    return rows, best[1], runs


def reference_ablation_cells(config, run_dir) -> dict:
    """Ablation cells run live: a never-stopping ``edit`` run per (cell,
    prompt) that taps the cell's own module, averaged over the steps that
    ran a forward of their own.

    Each cell scores the row summary stored for it in ``run_dir``'s
    metadata (mean summaries carry a ``#mean`` suffix) with the stored
    checkpoint. Maps (projection, adapter, reduction) to (mean
    divergence, sample count).
    """
    model = load_checkpoint(os.path.join(run_dir, "checkpoint.editckpt"))
    vectors, _ = load_metadata(os.path.join(run_dir, "metadata.editmeta"))
    stored = {v.module_id: v for v in vectors}
    task = make_task(config.task, config.vocab_size, config.block_length)
    mode = SimilarityMode.VECTOR_COSINE  # the summaries are EvolutionVectors under any config
    instances = _sample_instances(task, (config.model_seed, 505), min(config.eval_instances, 16))
    policy = PolicyConfig(
        "edit", stop=StopConfig(delta=0.0, omega=config.omega, tau_blk=config.tau_blk)
    )
    cells = {}
    for proj, adapter, reduction in ABLATION_SITES:
        module = f"block{config.n_blocks - 1}.{proj}"
        vector = stored[f"{module}.lora_{adapter}" + ("#mean" if reduction == "mean" else "")]
        values = []
        for prompt, _ in instances:
            run = generate(model, prompt, config.seq_len, policy, budget=config.budget,
                           reasoning_map=vector, mode=mode, taps=(TapSpec(module),))
            values += [row.divergence for block in run.blocks
                       for row in block.monitor.divergence_trace
                       if math.isfinite(row.divergence) and row.step <= block.forward_passes]
        cells[proj, adapter, reduction] = (float(np.mean(values)), len(values))
    return cells
