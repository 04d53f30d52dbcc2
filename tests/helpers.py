"""Shared builders for synthetic distributions, chains, and frames, test
oracles (a scalar cosine, the windowed TV bound, the step objective of
the pseudo-gradient and the per-token freezing rule), the per-token
reference path of the denoising step, and the live per-cell sweeps that
calibrate's and ablate's replays stand in for."""

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
    SimilarityVariant,
    VisibleSet,
    alignment_distribution,
)
from editstop.certify import (
    DELTA_GRID,
    OMEGA_GRID,
    TV_SLACK,
    MarginReport,
    build_certificate,
    tv_budget,
    window_intersection,
)
from editstop.errors import (
    DimMismatchError,
    MissingStepError,
    SupportMismatchError,
    WindowTooShortError,
    ZeroNormError,
)
from editstop.capture import SubspaceBasis
from editstop.freeze import FreezeConfig, FreezeEvent
from editstop.generate import PolicyConfig, generate
from editstop.harness import (
    ABLATION_ADAPTERS,
    ABLATION_PROJECTIONS,
    ABLATION_REDUCTIONS,
    _sample_instances,
)
from editstop.linalg import NORM_FLOOR, ProbVector, kl_divergence, softmax, total_variation
from editstop.metaformat import load_metadata
from editstop.model import TapSpec, forward, load_checkpoint, predictive_distributions
from editstop.monitor import StabilityMonitor, StopConfig
from editstop.tasks import make_task


# --- oracles -----------------------------------------------------------------


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


def verify_runlength_bound(distributions, delta: float, omega: int, state=None) -> bool:
    """Check the windowed TV bound on an actual stability window.

    Takes the per-step distributions of a block (the last ``omega + 1``
    are the window), restricts them to the running intersection of their
    supports, and compares the endpoint TV against ``tv_budget``. When a
    ``StabilityState`` is supplied, the sub-threshold precondition on its
    last ``omega`` divergences is verified first.
    """
    if len(distributions) < omega + 1:
        raise WindowTooShortError(f"need {omega + 1} distributions, got {len(distributions)}")
    if state is not None:
        tail = state.divergence_trace[-omega:]
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
    common = window_intersection(window)
    if not common:
        raise SupportMismatchError("window supports have empty intersection")
    first = window[0].restrict(common)
    last = window[-1].restrict(common)
    return total_variation(last, first) <= tv_budget(delta, omega) + TV_SLACK


def step_kl_objective(model, trajectory, step: int) -> float:
    """Summed KL of step ``step``'s predictive rows from step ``step + 1``'s
    over the later step's committed support: the objective whose gradient
    ``pseudo_gradient`` computes, by two fresh forward passes."""
    if step < 1 or step + 1 > len(trajectory.records):
        raise MissingStepError(f"steps {step} and {step + 1} are not both recorded")
    cfg = model.cfg
    L = cfg.block_length
    lo = trajectory.block_index * L
    prefix = np.asarray(trajectory.prefix, dtype=np.int64)

    def rows(at: int) -> np.ndarray:
        if at == 1:
            block = np.full(L, cfg.mask_id, dtype=np.int64)
        else:
            block = np.asarray(trajectory.records[at - 2].tokens, dtype=np.int64)
        logits = forward(model, np.concatenate([prefix, block])[None, :], taps=()).logits
        return predictive_distributions(logits[0, lo : lo + L], cfg.vocab_size)

    p_t, p_t1 = rows(step), rows(step + 1)
    total = 0.0
    for s in trajectory.records[step].frame.visible.members:
        p, q = p_t[s - lo], p_t1[s - lo]
        total += float(np.sum(p * (np.log(p) - np.log(q))))
    return total


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
    g = basis.project(f_s)
    return softmax(np.abs(g), temperature=tau_sub, support=tuple(range(basis.k)))


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


def make_dist(probs, support=None, step=0, temperature=1.0) -> AlignmentDistribution:
    """Alignment distribution with given probabilities, bypassing scoring."""
    probs = np.asarray(probs, dtype=np.float64)
    sup = tuple(support) if support is not None else tuple(range(probs.size))
    return AlignmentDistribution(
        dist=ProbVector(probs, sup),
        step=step,
        temperature_used=temperature,
        scores={s: 0.0 for s in sup},
    )


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


def frame_row(frame: ActivationFrame, token: int) -> np.ndarray:
    """The activation row of one visible token."""
    return frame.activations[frame.visible.members.index(token)]


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
        return softmax(scores, support=tuple(range(self.n_tokens)))

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
# per token and one freezer call per token. Tests compare ``generate``
# against it.


def reference_scores(vectors: dict[int, np.ndarray], reasoning_map, mode: SimilarityMode):
    """Score one token at a time, as ``score_alignment`` used to."""
    scores: dict[int, float] = {}
    for s, f in vectors.items():
        try:
            if mode.variant is SimilarityVariant.VECTOR_COSINE:
                scores[s] = cosine_similarity(f, reasoning_map.u)
            elif mode.variant is SimilarityVariant.SUBSPACE_NORM:
                scores[s] = float(np.linalg.norm(reasoning_map.project(f)))
            else:
                norm = float(np.linalg.norm(f))
                if norm < NORM_FLOOR:
                    raise ZeroNormError("zero activation")
                coords = reasoning_map.project(f)
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
    freeze_events: tuple[FreezeEvent, ...]


def reference_denoise_block(model, prefix, block_index, budget, policy, reasoning_map=None,
                            mode=None, freeze_basis=None, alpha_hat=None) -> ReferenceBlock:
    mode = mode if mode is not None else SimilarityMode()
    cfg = model.cfg
    L = cfg.block_length
    lo = block_index * L
    tap = model.default_tap()
    stop_cfg = policy.stop.for_block(block_index)
    monitor = StabilityMonitor(policy.stop, block_index) if policy.monitored else None
    freeze_states: dict[int, ReferenceTokenState] = {}
    events: list[FreezeEvent] = []
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
        dists = [softmax(logits[i], 1.0, support) for i in range(L)]
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
                        events.append(FreezeEvent(step, s, st.epsilon_s))
                        if not committed[s - lo]:
                            commit(dists[s - lo], s - lo)
                            newly.append(s)
                if st.frozen:
                    effective[s] = st.frozen_value
        steps.append(tuple(newly))
        choices.append(tuple(d.support[int(np.argmax(d.probs))] for d in dists))
        if monitor is None:
            continue
        visible = VisibleSet(tuple(lo + i for i in range(L) if committed[i]))
        scores = reference_scores({s: effective[s] for s in visible.members},
                                  reasoning_map, mode)
        alignment = alignment_distribution(scores, visible, stop_cfg.tau_blk, step)
        decision = monitor.observe(alignment)
        if not decision.stop:
            continue
        margin = MarginReport.from_distribution(alignment.dist, step)
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
        stop_decision = monitor.exhausted(len(steps))
    return ReferenceBlock(steps, choices, final_commit, tuple(int(t) for t in tokens[lo: lo + L]),
                          monitor, stop_decision, certificate, tuple(rejected), tuple(events))


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
    reasoning_map = artifacts.basis if mode.variant.value.startswith("subspace") else artifacts.vector
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
            (task.exact_match(np.asarray(res.tokens[prompt.size:]), target), res.avg_steps)
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
    prompt) that taps the cell's own module.

    Each cell scores the row summary stored for it in ``run_dir``'s
    metadata (mean summaries carry a ``#mean`` suffix) with the stored
    checkpoint. Maps (projection, adapter, reduction) to (mean
    divergence, sample count).
    """
    model = load_checkpoint(os.path.join(run_dir, "checkpoint.editckpt"))
    vectors, _ = load_metadata(os.path.join(run_dir, "metadata.editmeta"))
    stored = {v.module_id: v for v in vectors}
    task = make_task(config.task, config.vocab_size, config.block_length)
    mode = config.similarity_mode()
    instances = _sample_instances(task, (config.model_seed, 505), min(config.eval_instances, 16))
    policy = PolicyConfig(
        "edit", stop=StopConfig(delta=0.0, omega=config.omega, tau_blk=config.tau_blk)
    )
    cells = {}
    for proj, adapter, reduction in product(
        ABLATION_PROJECTIONS, ABLATION_ADAPTERS, ABLATION_REDUCTIONS
    ):
        module = f"block{config.n_blocks - 1}.{proj}"
        vector = stored[f"{module}.lora_{adapter}" + ("#mean" if reduction == "mean" else "")]
        values = []
        for prompt, _ in instances:
            run = generate(model, prompt, config.seq_len, policy, budget=config.budget,
                           reasoning_map=vector, mode=mode, tap=TapSpec(module))
            values += [row.divergence for block in run.blocks
                       for row in block.monitor_state.divergence_trace
                       if math.isfinite(row.divergence)]
        cells[proj, adapter, reduction] = (float(np.mean(values)), len(values))
    return cells
