"""Desk-scale masked block-diffusion transformer with low-rank adapters.

The base network is frozen at construction; only the rank-r adapter
pairs on the query/key/value projections train. The forward pass can
record every intermediate needed for a hand-written reverse pass over
the adapter parameters, and can tap the adapter-branch output of any
attention projection as per-position activation vectors. Decoding and
training both run it on ``forward_weights``, the adapters folded into
the frozen weights; a model whose parameter arrays are all read-only, as
``load_checkpoint`` returns them, builds those weights once.

The base initialization is structured rather than fully random: token
identity occupies the leading embedding dimensions, a two-frequency
rotary-style position code occupies four trailing dimensions, and the
frozen attention weights read only the slow frequency pair. This leaves
a small, rank-limited gap (the sharp frequency pair) that the adapters
can close during fine-tuning, so a tiny model trained for a few hundred
steps genuinely improves at block-reversal-style tasks.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ArtifactMismatchError,
    BadMagicError,
    EmptyInputError,
    NoRecordedGraphError,
    VocabOverflowError,
)
from .linalg import row_max, softmax_rows
from .metaformat import checked_payload, read_framed, write_framed

PROJECTIONS = ("q", "k", "v")
ADAPTERS = ("a", "b")

TOKEN_SCALE = 1.0
POS_SCALE = 3.0
ATTN_GAIN = 2.33
MLP_OUT_SCALE = 0.02

CKPT_MAGIC = b"EDITCKPT"
CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_blocks: int = 2
    lora_rank: int = 4
    block_length: int = 16
    max_blocks: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 3:
            raise ValueError(f"vocab_size must be >= 3, got {self.vocab_size}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.d_model // self.n_heads < 4:
            raise ValueError("head dimension must be >= 4 to hold the position code")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.lora_rank < 1:
            raise ValueError(f"lora_rank must be >= 1, got {self.lora_rank}")
        if self.block_length < 2:
            raise ValueError(f"block_length must be >= 2, got {self.block_length}")
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {self.max_blocks}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def mask_id(self) -> int:
        return self.vocab_size - 1

    @property
    def max_positions(self) -> int:
        return self.max_blocks * self.block_length

    @property
    def d_ff(self) -> int:
        return 2 * self.d_model

    @property
    def content_dims(self) -> int:
        """Leading embedding dimensions reserved for token identity."""
        return self.d_model - self.head_dim

    def to_json_dict(self) -> dict:
        return asdict(self)


# Cached: forward and backward_lora read every site's keys on every call.
@functools.cache
def module_path(block: int, proj: str) -> str:
    if proj not in PROJECTIONS:
        raise ValueError(f"unknown projection {proj!r}")
    return f"block{block}.{proj}"


@functools.cache
def lora_param_key(block: int, proj: str, adapter: str) -> str:
    if adapter not in ADAPTERS:
        raise ValueError(f"unknown adapter {adapter!r}")
    return f"{module_path(block, proj)}.lora_{adapter}"


@functools.cache
def parse_module_path(path: str) -> tuple[int, str]:
    head, _, proj = path.partition(".")
    if not head.startswith("block") or proj not in PROJECTIONS:
        raise ValueError(f"bad module path {path!r}")
    try:
        block = int(head[len("block"):])
    except ValueError as exc:
        raise ValueError(f"bad module path {path!r}") from exc
    return block, proj


@dataclass(frozen=True)
class TapSpec:
    """A projection whose adapter-branch output (``x @ A.T @ B.T``, without
    the frozen base projection) a forward pass reads per position."""

    module: str

    def __post_init__(self):
        parse_module_path(self.module)


@dataclass
class ToyModel:
    cfg: ModelConfig
    base: dict[str, np.ndarray]
    lora: dict[str, np.ndarray]
    # ``forward_weights``' cache: (the parameter arrays it read, the weights).
    _weights: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def default_tap(self) -> TapSpec:
        return TapSpec(module_path(self.cfg.n_blocks - 1, "q"))


def init_model(cfg: ModelConfig) -> ToyModel:
    """Construct a model with structured frozen base and zeroed-B adapters."""
    rng = np.random.default_rng(cfg.seed)
    d, hd, v = cfg.d_model, cfg.head_dim, cfg.vocab_size
    pos0 = cfg.content_dims
    base: dict[str, np.ndarray] = {}

    codes = rng.normal(size=(v, pos0))
    codes /= np.linalg.norm(codes, axis=1, keepdims=True)
    codes[cfg.mask_id] = 0.0  # the mask never wins a readout
    emb_tok = np.zeros((v, d))
    emb_tok[:, :pos0] = TOKEN_SCALE * codes
    base["emb_tok"] = emb_tok

    p = cfg.max_positions
    theta = 2.0 * math.pi * np.arange(p) / p
    # The sharp frequency aliases every p/f2 positions; p//8 keeps the
    # aliases far enough apart that the slow pair separates them.
    f2 = max(2, p // 8)
    emb_pos = np.zeros((p, d))
    emb_pos[:, pos0 + 0] = POS_SCALE * np.cos(theta)
    emb_pos[:, pos0 + 1] = POS_SCALE * np.sin(theta)
    emb_pos[:, pos0 + 2] = POS_SCALE * np.cos(f2 * theta)
    emb_pos[:, pos0 + 3] = POS_SCALE * np.sin(f2 * theta)
    base["emb_pos"] = emb_pos

    # Mirror geometry of a two-block reversal: position i of the second
    # block reads position 2L-1-i, a reflection theta -> c - theta.
    c = 2.0 * math.pi * (2 * cfg.block_length - 1) / p
    slow_reflect = np.array(
        [[math.cos(c), math.sin(c)], [math.sin(c), -math.cos(c)]]
    )
    for b in range(cfg.n_blocks):
        wq = np.zeros((d, d))
        wk = np.zeros((d, d))
        for h in range(cfg.n_heads):
            r0 = h * hd
            # Keys carry all four position-code dims; base queries carry
            # only the reflected slow pair. The sharp pair's query slots
            # stay zero: that is the gap the adapters close.
            for j in range(4):
                wk[r0 + j, pos0 + j] = ATTN_GAIN
            wq[r0:r0 + 2, pos0:pos0 + 2] = ATTN_GAIN * slow_reflect
        base[f"block{b}.wq"] = wq
        base[f"block{b}.wk"] = wk
        base[f"block{b}.wv"] = np.eye(d)
        wo = np.eye(d)
        wo[pos0:, :] = 0.0  # never write position dims back into the stream
        base[f"block{b}.wo"] = wo
        base[f"block{b}.w1"] = rng.normal(size=(cfg.d_ff, d)) * (0.5 / math.sqrt(d))
        w2 = rng.normal(size=(d, cfg.d_ff)) * MLP_OUT_SCALE
        w2[pos0:, :] = 0.0
        base[f"block{b}.w2"] = w2

    head = np.zeros((v, d))
    head[:, :pos0] = codes
    base["head"] = head

    lora: dict[str, np.ndarray] = {}
    for b in range(cfg.n_blocks):
        for proj in PROJECTIONS:
            a = rng.normal(size=(cfg.lora_rank, d)) / math.sqrt(d)
            if proj == "q":
                # Query adapters start as selectors of the position-code
                # dims, so their B side only has to learn a small 2x2
                # map per frequency pair. A still trains from here.
                for j in range(min(cfg.lora_rank, 4)):
                    a[j] = 0.0
                    a[j, pos0 + j] = 1.0
            lora[lora_param_key(b, proj, "a")] = a
            lora[lora_param_key(b, proj, "b")] = np.zeros((d, cfg.lora_rank))

    return ToyModel(cfg=cfg, base=base, lora=lora)


@dataclass
class ForwardResult:
    logits: np.ndarray  # (N, T - first_row, vocab)
    taps: dict[TapSpec, np.ndarray]  # spec -> (N, T - first_row, d_model)
    cache: dict | None


@dataclass(frozen=True)
class ForwardWeights:
    """The weight operands :func:`forward` derives from the current
    parameters, in the layout its GEMM reads fastest with the same bits; the
    adapter branches read A and B from ``model.lora`` itself. ``qkv[b]``:
    layer ``b``'s ``W + B @ A`` for q, k, v in one column-major
    ``(3 * d_model, d_model)`` stack. ``wq_last``: the last Wq, row-major as
    its 16-row GEMM's bits need. ``mlp[b]``: ``(Woᵀ, W1ᵀ, W2ᵀ)``, row-major
    copies below the last layer, ``.T`` views in it. The copies keep the
    views' bits at the default sizes from 19 rows up; fewer rows or other
    sizes may move bits."""

    qkv: tuple[np.ndarray, ...]
    wq_last: np.ndarray
    mlp: tuple[tuple[np.ndarray, ...], ...]


def forward_weights(model: ToyModel) -> ForwardWeights:
    """The model's :class:`ForwardWeights`, built from its parameters.

    When every parameter array is read-only (``load_checkpoint``'s are), the
    weights are built once, made read-only and kept on the model: later calls
    return them while ``base`` and ``lora`` hold the very arrays they were
    built from. Replacing an array, or making one writable, rebuilds them.
    A model with a writable array (``init_model``'s, and so training's) gets
    fresh weights on every call, as its arrays may have changed in place."""
    params = (*model.base.values(), *model.lora.values())
    frozen = not any(a.flags.writeable for a in params)
    if frozen and model._weights is not None:
        built_from, weights = model._weights
        if len(built_from) == len(params) and all(map(operator.is_, built_from, params)):
            return weights
    cfg, base, lora, last = model.cfg, model.base, model.lora, model.cfg.n_blocks - 1
    qkv = tuple(np.asfortranarray(np.concatenate([
        base[f"block{b}.w{p}"] + lora[lora_param_key(b, p, "b")] @ lora[lora_param_key(b, p, "a")]
        for p in PROJECTIONS
    ])) for b in range(cfg.n_blocks))
    mlp = tuple(tuple((np.asarray if b == last else np.ascontiguousarray)(base[f"block{b}.{w}"].T)
                      for w in ("wo", "w1", "w2")) for b in range(cfg.n_blocks))
    weights = ForwardWeights(qkv, np.ascontiguousarray(qkv[last][: cfg.d_model]), mlp)
    if frozen:
        for arr in (*qkv, weights.wq_last, *(w for layer in mlp for w in layer)):
            arr.setflags(write=False)
        model._weights = (params, weights)
    return weights


def forward(
    model: ToyModel,
    tokens: np.ndarray,
    taps: tuple[TapSpec, ...] = (),
    record: bool = False,
    first_row: int = 0,
    weights: ForwardWeights | None = None,
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

    Every GEMM but the adapter branches' reads ``weights``
    (:func:`forward_weights`, built here when not given: the same bits).
    The residual stream is one 2-D ``(N * T, d_model)`` array, so each
    row-wise op is one 2-D GEMM, and a reshape and transpose of a layer's
    projection GEMM give its q/k/v heads (in the last layer, k and v over
    every row and q over rows ``first_row:``). A tapped projection computes
    its adapter branch ``(x @ A.T) @ B.T``, A and B from ``model.lora``, on
    rows ``first_row:``; ``record=True`` adds each ``x @ A.T``, a batched
    ``(N, T, d)`` matmul, whose bits a 2-D view changes at batch 16.
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
    d, h, hd = cfg.d_model, cfg.n_heads, cfg.head_dim
    weights = weights if weights is not None else forward_weights(model)
    if len(weights.qkv) != cfg.n_blocks or any(w.shape != (3 * d, d) for w in weights.qkv):
        raise ValueError(f"weights must hold {cfg.n_blocks} ({3 * d}, {d}) q/k/v stacks")
    tap_sites = [(spec, *parse_module_path(spec.module)) for spec in taps]
    for spec, blk, _ in tap_sites:
        if not 0 <= blk < cfg.n_blocks:
            raise ValueError(f"tap {spec.module!r} outside model depth {cfg.n_blocks}")

    tq = t - first_row
    x = (model.base["emb_tok"][tokens] + model.base["emb_pos"][:t]).reshape(n * t, d)
    tap_out: dict[TapSpec, np.ndarray] = {}
    block_caches: list[dict] = []
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for b in range(cfg.n_blocks):
        x_in = x.reshape(n, t, d)
        w = weights.qkv[b]
        wo, w1, w2 = weights.mlp[b]
        q_from = first_row if b == cfg.n_blocks - 1 else 0
        m = n * (t - q_from)  # the rows past this layer's attention
        if q_from:
            rows = x_in[:, q_from:].reshape(m, d)
            kh, vh = (x @ w[d:].T).reshape(n, t, 2, h, hd).transpose(2, 0, 3, 1, 4)
            qh = (rows @ weights.wq_last.T).reshape(n, tq, h, hd).transpose(0, 2, 1, 3)
        else:
            rows = x
            qh, kh, vh = (x @ w.T).reshape(n, t, 3, h, hd).transpose(2, 0, 3, 1, 4)
        for spec, blk, proj in tap_sites:
            if blk == b:
                a, bb = (model.lora[lora_param_key(b, proj, ad)] for ad in ADAPTERS)
                ax = (x_in[:, first_row:] @ a.T).reshape(n * tq, -1)
                tap_out[spec] = (ax @ bb.T).reshape(n, tq, d)
        # Softmax in place, with no temporaries. row_max reduces down the
        # columns of a transposed copy; on a ±0 tie it may pick the other
        # zero, which exp maps to 1.0 all the same.
        attn = qh @ kh.swapaxes(-1, -2)
        attn *= scale
        attn -= row_max(attn)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        x_mid = (attn @ vh).transpose(0, 2, 1, 3).reshape(m, d) @ wo
        x_mid += rows
        t1 = x_mid @ w1
        np.tanh(t1, out=t1)
        x = t1 @ w2
        x += x_mid
        if record:
            cache_b = {"x_in": x_in}
            for proj in PROJECTIONS:
                a = model.lora[lora_param_key(b, proj, "a")]
                cache_b[f"ax_{proj}"] = x_in[:, q_from if proj == "q" else 0:] @ a.T
            cache_b.update(q=qh, k=kh, v=vh, attn=attn, t1=t1.reshape(n, t - q_from, -1))
            block_caches.append(cache_b)
    logits = (x @ model.base["head"].T).reshape(n, tq, -1)
    # A copy: a decode goes on to commit into the array it passed.
    cache = {"tokens": tokens.copy(), "blocks": block_caches} if record else None
    return ForwardResult(logits=logits, taps=tap_out, cache=cache)


def backward_lora(
    model: ToyModel, result: ForwardResult, dlogits: np.ndarray, keys=None
) -> dict[str, np.ndarray]:
    """Reverse pass from a logit gradient to the adapter parameters ``keys``
    (all of them when None).

    The frozen base receives no gradients; the stream gradient is still
    propagated through it so adapters in earlier layers see the full chain.
    It stops in the lowest block holding a requested key, computing there
    only the projection gradients those keys read; each array is bit for bit
    the full pass's. On a block-row pass the last layer's query side keeps
    to the block's rows; the rows before them feed only dropped logits, whose
    gradient is zero, so every key matches the full pass to rounding. As in
    :func:`forward`, the stream gradient is one 2-D ``(rows, d_model)`` array,
    so every GEMM, the adapter-gradient sums over samples and rows included,
    is one 2-D GEMM."""
    if result.cache is None:
        raise NoRecordedGraphError("forward pass was not recorded; rerun with record=True")
    cfg = model.cfg
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != result.logits.shape:
        raise ValueError(
            f"dlogits shape {dlogits.shape} != logits shape {result.logits.shape}"
        )
    scale = 1.0 / math.sqrt(cfg.head_dim)
    d, r, h, hd = cfg.d_model, cfg.lora_rank, cfg.n_heads, cfg.head_dim
    keys = model.lora if keys is None else keys
    if not keys:
        raise EmptyInputError("backward_lora needs at least one adapter key")
    grads = {key: np.zeros_like(model.lora[key]) for key in keys}
    sites = {parse_module_path(key.rpartition(".")[0]) for key in grads}
    lowest = min(b for b, _ in sites)
    n, t = result.cache["tokens"].shape
    first_row = t - result.logits.shape[1]
    dx = dlogits.reshape(-1, dlogits.shape[-1]) @ model.base["head"]
    for b in reversed(range(lowest, cfg.n_blocks)):
        c = result.cache["blocks"][b]
        q_from = first_row if b == cfg.n_blocks - 1 else 0
        w2 = model.base[f"block{b}.w2"]
        w1 = model.base[f"block{b}.w1"]
        # tanh' = 1 - t1², built in one array and multiplied in place.
        dh1 = c["t1"].reshape(dx.shape[0], -1) ** 2
        np.subtract(1.0, dh1, out=dh1)
        dh1 *= dx @ w2
        dx += dh1 @ w1  # gradient at x_mid
        dctx = (dx @ model.base[f"block{b}.wo"]).reshape(n, -1, h, hd).transpose(0, 2, 1, 3)
        needed = [p for p in PROJECTIONS if b > lowest or (b, p) in sites]
        d_full = {}  # per-head (n, h, rows, hd) gradients
        if "v" in needed:
            d_full["v"] = c["attn"].swapaxes(-1, -2) @ dctx
        if "q" in needed or "k" in needed:
            # Softmax backward in place on the fresh dattn, never the cache:
            # attn * (dattn - inner) * scale with each product commuted.
            dattn = dctx @ c["v"].swapaxes(-1, -2)
            dattn -= (dattn * c["attn"]).sum(axis=-1, keepdims=True)
            dattn *= c["attn"]
            dattn *= scale
            if "q" in needed:
                d_full["q"] = dattn @ c["k"]
            if "k" in needed:
                d_full["k"] = dattn.swapaxes(-1, -2) @ c["q"]
        if b > lowest:
            dx_in = np.zeros_like(c["x_in"])
            dx_in[:, q_from:] = dx.reshape(n, -1, d)
        for proj in needed:
            # Heads merged to (rows, d_model); popped, so the split array goes.
            dproj = d_full.pop(proj).transpose(0, 2, 1, 3).reshape(-1, d)
            start = q_from if proj == "q" else 0
            key_a, key_b = (lora_param_key(b, proj, ad) for ad in ADAPTERS)
            if key_b in grads:
                grads[key_b] += dproj.T @ c[f"ax_{proj}"].reshape(-1, r)
            if b == lowest and key_a not in grads:
                continue
            dax = dproj @ model.lora[key_b]
            if key_a in grads:
                grads[key_a] += dax.T @ c["x_in"][:, start:].reshape(-1, d)
            if b > lowest:
                w = model.base[f"block{b}.w{proj}"]
                dx_in[:, start:] += (dproj @ w + dax @ model.lora[key_a]).reshape(n, -1, d)
        if b > lowest:
            dx = dx_in.reshape(-1, d)
    return grads


def masked_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, loss_mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross entropy over the masked positions and its logit gradient.
    Only the masked rows are softmaxed; every other row's gradient is zero."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    if logits.shape[:2] != targets.shape or targets.shape != loss_mask.shape:
        raise ValueError("logits, targets, and loss_mask shapes are inconsistent")
    count = int(loss_mask.sum())
    if count == 0:
        raise ValueError("loss_mask selects no positions")
    n_idx, t_idx = np.nonzero(loss_mask)
    rows = logits[n_idx, t_idx]
    probs = np.exp(rows - row_max(rows))
    probs /= probs.sum(axis=-1, keepdims=True)
    picked = (np.arange(count), targets[n_idx, t_idx])
    loss = float(-np.log(np.maximum(probs[picked], 1e-300)).mean())
    probs[picked] -= 1.0
    dlogits = np.zeros_like(logits)
    dlogits[n_idx, t_idx] = probs
    dlogits /= count
    return loss, dlogits


def predictive_distributions(logits_rows: np.ndarray, vocab_size: int) -> np.ndarray:
    """Per-position distributions over the real (non-mask) token ids.

    One (L, V-1) array: row ``i`` is ``linalg.softmax_rows`` of position
    ``i``'s real logits, column ``t`` the probability of token ``t``.
    """
    return softmax_rows(np.asarray(logits_rows, dtype=np.float64)[:, : vocab_size - 1])


# --- checkpoint persistence ----------------------------------------------

def _pack_array(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    out = struct.pack("<H", len(name_b)) + name_b
    out += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
    return out + checked_payload(arr, "<f8")


def save_checkpoint(model: ToyModel, path) -> bytes:
    """Serialize config and every parameter tensor through
    ``metaformat.write_framed``; returns the bytes."""
    cfg_blob = json.dumps(model.cfg.to_json_dict(), sort_keys=True).encode("utf-8")
    body = struct.pack("<I", len(cfg_blob)) + cfg_blob
    names = [("base/" + k, model.base[k]) for k in sorted(model.base)]
    names += [("lora/" + k, model.lora[k]) for k in sorted(model.lora)]
    body += struct.pack("<H", len(names))
    for name, arr in names:
        body += _pack_array(name, arr)
    return write_framed(path, CKPT_MAGIC, CKPT_VERSION, body)


def load_checkpoint(path) -> ToyModel:
    """Read a ``save_checkpoint`` file. Each namespace must hold exactly
    the arrays, by name and shape, that ``init_model`` builds for the
    stored config; anything else raises ``ArtifactMismatchError``. The
    arrays come back read-only, so ``forward_weights`` builds the loaded
    model's weights once."""
    r = read_framed(path, CKPT_MAGIC, CKPT_VERSION)
    cfg_blob = r.take(r.u32())
    n_arrays = r.u16()
    base: dict[str, np.ndarray] = {}
    lora: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        name = r.name()
        shape = tuple(r.u32() for _ in range(r.u8()))
        payload = r.payload(8 * int(np.prod(shape, dtype=np.int64)), name)
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
        arr.setflags(write=False)
        if name.startswith("base/"):
            base[name[len("base/"):]] = arr
        elif name.startswith("lora/"):
            lora[name[len("lora/"):]] = arr
        else:
            raise BadMagicError(f"unknown parameter namespace in {name!r}")
    r.done()
    # The config's own arrays are built after the stored ones, which so keep
    # the heap places of a load without this check: building them first
    # slowed the bench's decode_three_blocks by about 8% (2-CPU Xeon host).
    try:
        cfg = ModelConfig(**json.loads(cfg_blob.decode("utf-8")))
        expected = init_model(cfg)
    except (TypeError, ValueError) as exc:  # not JSON, not an object, or refused
        raise ArtifactMismatchError(f"checkpoint holds no valid model config: {exc}") from exc
    for namespace, found, wanted in (("base", base, expected.base), ("lora", lora, expected.lora)):
        have = {k: a.shape for k, a in found.items()}
        need = {k: a.shape for k, a in wanted.items()}
        misfits = [
            f"{k} is {have.get(k)}, the config needs {need.get(k)}"
            for k in sorted(have.keys() | need.keys())
            if have.get(k) != need.get(k)
        ]
        if misfits:
            raise ArtifactMismatchError(f"checkpoint {namespace} arrays misfit: {misfits}")
    return ToyModel(cfg=cfg, base=base, lora=lora)
