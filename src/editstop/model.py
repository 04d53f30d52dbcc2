"""Desk-scale masked block-diffusion transformer with low-rank adapters.

The base network is frozen at construction; only the rank-r adapter
pairs on the query/key/value projections train. The forward pass can
record every intermediate needed for a hand-written reverse pass over
the adapter parameters, and can tap the adapter-branch (or full
projection) output of any attention projection as per-position
activation vectors.

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
import hashlib
import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumMismatchError,
    EmptyInputError,
    IoFailureError,
    NoRecordedGraphError,
    TruncatedFileError,
    VersionUnsupportedError,
    VocabOverflowError,
)
from .linalg import PROB_FLOOR

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
    """Where to read per-position activations during a forward pass."""

    module: str
    mode: str = "branch"  # "branch": adapter output only; "full": whole projection

    def __post_init__(self):
        parse_module_path(self.module)
        if self.mode not in ("branch", "full"):
            raise ValueError(f"tap mode must be 'branch' or 'full', got {self.mode!r}")


@dataclass
class ToyModel:
    cfg: ModelConfig
    base: dict[str, np.ndarray]
    lora: dict[str, np.ndarray]
    taps: tuple[TapSpec, ...] = ()

    def default_tap(self) -> TapSpec:
        return TapSpec(module_path(self.cfg.n_blocks - 1, "q"), "branch")

    def base_checksum(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.base):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(self.base[name]).tobytes())
        return h.hexdigest()

    def set_taps(self, taps) -> None:
        self.taps = tuple(taps)


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


def forward(
    model: ToyModel,
    tokens: np.ndarray,
    taps: tuple[TapSpec, ...] | None = None,
    record: bool = False,
    first_row: int = 0,
) -> ForwardResult:
    """Full-sequence forward pass.

    ``tokens`` is (N, T) or (T,); outputs always carry the batch axis.
    With ``record=True`` every intermediate needed by
    :func:`backward_lora` is kept on the result.

    Logits and taps come back for rows ``first_row:`` only: the last
    layer's queries, attention, MLP and head skip the rows before it, while
    every layer's keys and values still cover all rows. The kept rows match
    the full pass to rounding, not bit for bit. ``record=True`` needs the
    full pass (``first_row=0``).
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
    if record and first_row:
        raise ValueError("record=True needs first_row=0")
    if taps is None:
        taps = model.taps
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
                    out = branch if spec.mode == "branch" else full[proj]
                    tap_out[spec] = out[:, first_row - start:]
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


def backward_lora(
    model: ToyModel, result: ForwardResult, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Reverse pass from a logit gradient to every adapter parameter.

    The frozen base receives no gradients; the stream gradient is still
    propagated through it so adapters in earlier layers see the full
    chain."""
    if result.cache is None:
        raise NoRecordedGraphError("forward pass was not recorded; rerun with record=True")
    cfg = model.cfg
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != result.logits.shape:
        raise ValueError(
            f"dlogits shape {dlogits.shape} != logits shape {result.logits.shape}"
        )
    scale = 1.0 / math.sqrt(cfg.head_dim)
    grads = {key: np.zeros_like(val) for key, val in model.lora.items()}
    dx = dlogits @ model.base["head"]
    for b in reversed(range(cfg.n_blocks)):
        c = result.cache["blocks"][b]
        w2 = model.base[f"block{b}.w2"]
        w1 = model.base[f"block{b}.w1"]
        dt1 = dx @ w2
        dh1 = dt1 * (1.0 - c["t1"] ** 2)
        dx = dx + dh1 @ w1  # gradient at x_mid
        dmerged = dx @ model.base[f"block{b}.wo"]
        dctx = _split_heads(dmerged, cfg.n_heads, cfg.head_dim)
        dattn = dctx @ c["v"].swapaxes(-1, -2)
        dv = c["attn"].swapaxes(-1, -2) @ dctx
        inner = (dattn * c["attn"]).sum(axis=-1, keepdims=True)
        dscores = c["attn"] * (dattn - inner) * scale
        dq = dscores @ c["k"]
        dk = dscores.swapaxes(-1, -2) @ c["q"]
        d_full = {
            "q": _merge_heads(dq),
            "k": _merge_heads(dk),
            "v": _merge_heads(dv),
        }
        dx_in = dx.copy()
        for proj in PROJECTIONS:
            dproj = d_full[proj]
            a = model.lora[lora_param_key(b, proj, "a")]
            bb = model.lora[lora_param_key(b, proj, "b")]
            ax = c[f"ax_{proj}"]
            grads[lora_param_key(b, proj, "b")] += np.einsum(
                "ntd,ntr->dr", dproj, ax
            )
            dax = dproj @ bb
            grads[lora_param_key(b, proj, "a")] += np.einsum(
                "ntr,ntd->rd", dax, c["x_in"]
            )
            dx_in += dproj @ model.base[f"block{b}.w{proj}"] + dax @ a
        dx = dx_in
    return grads


def masked_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, loss_mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross entropy over the masked positions and its logit gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    if logits.shape[:2] != targets.shape or targets.shape != loss_mask.shape:
        raise ValueError("logits, targets, and loss_mask shapes are inconsistent")
    count = int(loss_mask.sum())
    if count == 0:
        raise ValueError("loss_mask selects no positions")
    probs = _softmax_last(logits)
    n_idx, t_idx = np.nonzero(loss_mask)
    picked = probs[n_idx, t_idx, targets[n_idx, t_idx]]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = np.zeros_like(logits)
    dlogits[n_idx, t_idx] = probs[n_idx, t_idx]
    dlogits[n_idx, t_idx, targets[n_idx, t_idx]] -= 1.0
    dlogits /= count
    return loss, dlogits


def predictive_distributions(logits_rows: np.ndarray, vocab_size: int) -> np.ndarray:
    """Per-position distributions over the real (non-mask) token ids.

    One (L, V-1) array: row ``i`` is the softmax of position ``i``'s real
    logits, column ``t`` the probability of token ``t``. Entries are
    floored at ``PROB_FLOOR`` the way ``ProbVector`` floors them, and a
    row that is non-finite or does not sum to one within 1e-9 is rejected.
    """
    real = np.asarray(logits_rows, dtype=np.float64)[:, : vocab_size - 1]
    ez = np.exp(real - real.max(axis=1, keepdims=True))
    probs = ez / ez.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(probs)):
        raise EmptyInputError("predictive distributions contain non-finite entries")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > 1e-9:
        raise EmptyInputError(f"a predictive distribution is {worst!r} from summing to 1")
    return np.maximum(probs, PROB_FLOOR)


# --- checkpoint persistence ----------------------------------------------

def _pack_array(name: str, arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    name_b = name.encode("utf-8")
    out = struct.pack("<H", len(name_b)) + name_b
    out += struct.pack("<B", arr.ndim)
    for dim in arr.shape:
        out += struct.pack("<I", dim)
    out += payload
    out += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return out


def save_checkpoint(model: ToyModel, path) -> bytes:
    """Serialize config and every parameter tensor; returns the bytes."""
    body = CKPT_MAGIC + struct.pack("<H", CKPT_VERSION)
    cfg_blob = json.dumps(model.cfg.to_json_dict(), sort_keys=True).encode("utf-8")
    body += struct.pack("<I", len(cfg_blob)) + cfg_blob
    names = [("base/" + k, model.base[k]) for k in sorted(model.base)]
    names += [("lora/" + k, model.lora[k]) for k in sorted(model.lora)]
    body += struct.pack("<H", len(names))
    for name, arr in names:
        body += _pack_array(name, arr)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    if path is not None:
        try:
            with open(path, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            raise IoFailureError(f"cannot write checkpoint {path}: {exc}") from exc
    return blob


def load_checkpoint(path) -> ToyModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(CKPT_MAGIC) + 2 + 4:
        raise TruncatedFileError(f"checkpoint is only {len(blob)} bytes")
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise BadMagicError(f"bad magic {blob[:8]!r}")
    stored = struct.unpack("<I", blob[-4:])[0]
    actual = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumMismatchError(
            f"file checksum {stored:#010x} != computed {actual:#010x}"
        )
    from .metaformat import _Reader

    r = _Reader(blob[:-4])
    r.take(len(CKPT_MAGIC))
    version = r.u16()
    if version != CKPT_VERSION:
        raise VersionUnsupportedError(f"checkpoint version {version} unsupported")
    cfg_blob = r.take(r.u32())
    cfg = ModelConfig(**json.loads(cfg_blob.decode("utf-8")))
    n_arrays = r.u16()
    base: dict[str, np.ndarray] = {}
    lora: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        name = r.take(r.u16()).decode("utf-8")
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        payload = r.take(8 * size)
        crc = r.u32()
        if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
            raise ChecksumMismatchError(f"payload checksum mismatch for {name!r}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
        if name.startswith("base/"):
            base[name[len("base/"):]] = arr
        elif name.startswith("lora/"):
            lora[name[len("lora/"):]] = arr
        else:
            raise BadMagicError(f"unknown parameter namespace in {name!r}")
    if r.pos != len(blob) - 4:
        raise TruncatedFileError(f"{len(blob) - 4 - r.pos} trailing bytes after entries")
    return ToyModel(cfg=cfg, base=base, lora=lora)
