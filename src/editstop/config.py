"""Flat key = value experiment configuration with JSON-literal values.

One file per experiment. Every field has a default; the harness prints
the fully resolved configuration into the output directory so each run
records its own provenance. Values are parsed as JSON where possible
(numbers, booleans, lists) and fall back to bare strings, so
``task = copy_reverse`` and ``task = "copy_reverse"`` both work. Each
value must then fit its field's annotation (``FIELD_TYPES``): a bare
``strict_certificates = no`` is the string ``"no"`` and is refused, not
read as true.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from os import PathLike

from .alignment import SimilarityMode
from .capture import AdamWConfig
from .errors import ConfigError
from .freeze import FreezeConfig
from .generate import POLICY_ALIASES, PolicyConfig
from .model import ModelConfig
from .monitor import StopConfig
from .tasks import TASK_NAMES


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each field annotation takes, and how a refusal names it. A float
# field takes an integer too, so ``delta = 1`` keeps its text.
FIELD_TYPES = {
    "int": (_is_int, "integers only"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "integers only"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _policy_kind(spelling: str) -> str:
    """The policy kind ``spelling`` names; a spelling that names none is a
    ``ConfigError``."""
    if spelling not in POLICY_ALIASES:
        raise ConfigError(f"policy must be one of {sorted(POLICY_ALIASES)}, got {spelling!r}")
    return POLICY_ALIASES[spelling]


@dataclass
class ExperimentConfig:
    task: str = "copy_reverse"
    vocab_size: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_blocks: int = 2
    lora_rank: int = 4
    block_length: int = 16
    max_blocks: int = 4
    model_seed: int = 0
    seq_len: int = 32
    budget: int = 32
    policy: str = "edit"
    delta: float = 0.05
    omega: int = 6
    tau_blk: float = 1.0
    delta_tok: float = 0.05
    omega_tok: int = 6
    tau_sub: float = 1.0
    subspace_k: int = 3
    similarity: str = "vector_cosine"
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    validation_fraction: float = 0.2
    beta: float = 0.1
    train_steps: int = 250
    learning_rate: float = 0.01
    batch_size: int = 16
    eval_instances: int = 50
    trace_retention: int = 20
    strict_certificates: bool = False
    out_dir: str = "runs/default"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            accepts, takes = FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ConfigError(f"{f.name} takes {takes}, got {value!r}")
        if self.task not in TASK_NAMES:
            raise ConfigError(f"task must be one of {TASK_NAMES}, got {self.task!r}")
        self.policy = _policy_kind(self.policy)
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must lie in (0, 1), got {self.validation_fraction}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.seq_len != 2 * self.block_length:
            # Synthetic tasks pair one prompt block with one target block.
            raise ConfigError(
                f"seq_len must equal 2 * block_length = {2 * self.block_length},"
                f" got {self.seq_len}"
            )
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds takes one or more integers >= 0, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            # Each seed names one set of outputs (traces/seed<s>_*, a per_seed entry).
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        for name, minimum in (
            ("train_steps", 1),
            ("batch_size", 1),
            ("eval_instances", 1),
            ("trace_retention", 0),
            ("budget", 1),
        ):
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        try:
            self.model_config()
            self.stop_config()
            self.freeze_config()
            self.adamw_config()
            self.similarity_mode()
        except (ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc
        positions, rank = self.max_blocks * self.block_length, min(self.lora_rank, self.d_model)
        if self.seq_len > positions:
            raise ConfigError(f"seq_len {self.seq_len} exceeds {positions} model positions")
        # The freeze basis spans the default tap's (d_model, lora_rank) adapter B.
        if self.subspace_k > rank:
            raise ConfigError(f"subspace_k {self.subspace_k} exceeds adapter rank {rank}")

    # --- component builders ------------------------------------------

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=self.vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_blocks=self.n_blocks,
            lora_rank=self.lora_rank,
            block_length=self.block_length,
            max_blocks=self.max_blocks,
            seed=self.model_seed,
        )

    def stop_config(self) -> StopConfig:
        return StopConfig(delta=self.delta, omega=self.omega, tau_blk=self.tau_blk)

    def freeze_config(self) -> FreezeConfig:
        return FreezeConfig(
            delta_tok=self.delta_tok,
            omega_tok=self.omega_tok,
            tau_sub=self.tau_sub,
            k=self.subspace_k,
        )

    def adamw_config(self) -> AdamWConfig:
        return AdamWConfig(learning_rate=self.learning_rate)

    def similarity_mode(self) -> SimilarityMode:
        try:
            return SimilarityMode(self.similarity)
        except ValueError as exc:
            raise ConfigError(f"unknown similarity {self.similarity!r}") from exc

    def policy_config(self, kind: str | None = None) -> PolicyConfig:
        return PolicyConfig(
            kind=_policy_kind(kind) if kind is not None else self.policy,
            stop=self.stop_config(),
            freeze=self.freeze_config(),
            strict_certificates=self.strict_certificates,
        )

    # --- serialization -----------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        overrides: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in overrides:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            literal = value.strip()
            try:
                overrides[key] = json.loads(literal)
            except json.JSONDecodeError:
                overrides[key] = literal
        try:
            return cls(**overrides)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | PathLike) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_text(text)

    def to_text(self) -> str:
        lines = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {json.dumps(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"
