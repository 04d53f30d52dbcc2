"""Checks on the program's outputs; each returns a list of problems.

``generate`` results are checked for invariants every call. On the seed
stored in ``digests.json``, a digest of the ``fixed`` and ``edit`` outputs
(tokens and block steps) is also compared with the stored one:
array-level rewrites of the step loop must keep those exact. ``edit_freeze`` outputs and the ablation
values are checked for structure only, because known defects in the
freezer and in the ablation taps will legitimately change them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

CALIBRATION_KEYS = frozenset({
    "beta", "n_validation", "alpha_hat", "alpha_note", "margin_quantile",
    "n_margins", "pac", "pac_note", "utility_table", "utility_chosen",
})
CERTIFICATES_KEYS = frozenset({
    "n_stops", "local_pass_rate", "global_pass_rate", "certified_fraction",
    "alpha_hat", "margin_quantile", "certificates",
})
REPORT_MEAN_KEYS = frozenset({"accuracy", "avg_steps", "reduction_percent", "certified_fraction"})
ABLATION_CELL_KEYS = frozenset({
    "module", "projection", "adapter", "reduction", "mean_divergence", "n_samples",
})
ABLATION_CELLS = 12


def _token_problems(tokens, mask_id: int) -> list[str]:
    bad = [t for t in tokens if not 0 <= t < mask_id]
    return [f"tokens outside [0, {mask_id}): {bad[:5]}"] if bad else []


def generate_problems(result, prompt, seq_len: int, budget: int, block_length: int,
                      mask_id: int, kind: str) -> list[str]:
    """Invariants every ``generate`` result must meet."""
    problems = []
    prompt = [int(t) for t in prompt]
    tokens = list(result.tokens)
    if len(tokens) != seq_len:
        problems.append(f"{len(tokens)} tokens, expected {seq_len}")
    if tokens[: len(prompt)] != prompt:
        problems.append("prompt tokens changed")
    problems += _token_problems(tokens[len(prompt):], mask_id)
    n_blocks = (seq_len - len(prompt)) // block_length
    if len(result.blocks) != n_blocks:
        problems.append(f"{len(result.blocks)} blocks, expected {n_blocks}")
    for block in result.blocks:
        if block.steps_used > budget:
            problems.append(f"block {block.block_index} used {block.steps_used} > {budget} steps")
        if kind == "fixed" and block.steps_used != budget:
            problems.append(f"fixed block {block.block_index} used {block.steps_used} of {budget}")
        if block.stopped_early and block.certificate is None:
            problems.append(f"block {block.block_index} stopped early without a certificate")
    return problems


def decode_record(kind: str, result) -> list:
    """What the digest covers for one call: tokens and block steps."""
    if result is None:
        return [kind, None, None]
    return [kind, list(result.tokens), list(result.block_steps)]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def stored_digests() -> dict:
    """``{"seed": the seed they were taken on, <workload>: <sha256>, ...}``."""
    with open(DIGESTS_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_json(path: str, problems: list[str]):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"cannot read {os.path.basename(path)}: {exc}")
        return None


def _missing(payload, keys, name: str) -> list[str]:
    if not isinstance(payload, dict):
        return [f"{name} is not an object"]
    missing = sorted(keys - payload.keys())
    return [f"{name} lacks {missing}"] if missing else []


def infer_problems(run_dir: str, config) -> list[str]:
    """report.json, generations.jsonl and the stored traces of ``cmd_infer``."""
    problems: list[str] = []
    report = _read_json(os.path.join(run_dir, "report.json"), problems)
    if report is not None:
        problems += _missing(report.get("mean"), REPORT_MEAN_KEYS, "report.json mean")
        seeds = [s.get("seed") for s in report.get("per_seed", [])]
        if seeds != list(config.seeds):
            problems.append(f"report.json seeds {seeds} != {config.seeds}")
    mask_id = config.vocab_size - 1
    lines = generation_lines(run_dir, problems)
    expected = len(config.seeds) * config.eval_instances
    if len(lines) != expected:
        problems.append(f"{len(lines)} generations, expected {expected}")
    for line in lines:
        if len(line["output"]) != config.block_length:
            problems.append(f"output of length {len(line['output'])}")
        problems += _token_problems(line["output"], mask_id)
        if any(s > config.budget for s in line["block_steps"]):
            problems.append(f"block steps {line['block_steps']} exceed {config.budget}")
    traces = os.path.join(run_dir, "traces")
    for name in sorted(os.listdir(traces)) if os.path.isdir(traces) else ():
        if not name.endswith(".json"):
            continue
        payload = _read_json(os.path.join(traces, name), problems) or {}
        for block in payload.get("blocks", []):
            if block.get("stopped_early") and block.get("certificate") is None:
                problems.append(f"{name}: early stop without a certificate")
    return problems


def generation_lines(run_dir: str, problems: list[str]) -> list[dict]:
    try:
        with open(os.path.join(run_dir, "generations.jsonl"), "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"cannot read generations.jsonl: {exc}")
        return []


def _keys_problems(run_dir: str, name: str, keys) -> list[str]:
    problems: list[str] = []
    payload = _read_json(os.path.join(run_dir, name), problems)
    if payload is not None:
        problems += _missing(payload, keys, name)
    return problems


def ablation_problems(run_dir: str) -> list[str]:
    """Structure only: twelve cells, each finite and non-empty."""
    problems: list[str] = []
    payload = _read_json(os.path.join(run_dir, "ablation.json"), problems)
    if payload is None:
        return problems
    cells = payload.get("cells", [])
    if len(cells) != ABLATION_CELLS:
        problems.append(f"{len(cells)} ablation cells, expected {ABLATION_CELLS}")
    for cell in cells:
        missing = _missing(cell, ABLATION_CELL_KEYS, "ablation cell")
        if missing:
            problems += missing
            continue
        if not math.isfinite(cell["mean_divergence"]) or cell["n_samples"] < 1:
            problems.append(f"ablation cell {cell['module']}/{cell['adapter']} is empty")
    return problems


def command_problems(name: str, run_dir: str, config) -> list[str]:
    """Checks on what one pipeline command wrote. calibration.json must hold
    every documented key, also when calibration found no admissible pair."""
    if name == "infer":
        return infer_problems(run_dir, config)
    if name == "calibrate":
        return _keys_problems(run_dir, "calibration.json", CALIBRATION_KEYS)
    if name == "certify":
        return _keys_problems(run_dir, "certificates.json", CERTIFICATES_KEYS)
    return ablation_problems(run_dir)
