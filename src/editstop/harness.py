"""Experiment orchestration: train, infer, calibrate, certify, ablate, report.

Each command reads an ``ExperimentConfig``, writes every derived artifact
into the run directory, and is reproducible byte-for-byte from (config,
seeds, input artifacts). Evaluation instances run one after another, in
instance order. ``calibrate`` and ``ablate`` decode each prompt once under
``fixed`` and score the recorded tap rows offline (``_alignment_trace``),
with no monitor; their (delta, omega) cells replay that one decode.

Run directory layout::

    config.txt            fully resolved configuration (provenance)
    checkpoint.editckpt   trained model parameters
    metadata.editmeta     update summaries: energy and mean row summaries of the
                          last block's six q/k/v adapters, and the default
                          tap's subspace basis
    band.json             training gradient-magnitude band
    report.json           per-seed and mean evaluation results
    generations.jsonl     one line per evaluated instance
    traces/               per-instance JSON + CSV detail (first N only)
    calibration.json      contraction + threshold calibration; ``fallback``
                          names the configured (delta, omega) kept when no
                          pair is admissible; ``samples_used`` and
                          ``skipped_small_denominators`` count alpha_hat's ratios
    certificates.json     batch re-evaluation of stopping certificates
    ablation.json/.csv    capture-site sweep over the stored summaries
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import product
from os import PathLike
from typing import Optional, Sequence

import numpy as np

from .alignment import SimilarityMode, score_alignment
from .capture import EvolutionVector, SubspaceBasis, build_subspace
from .certify import (
    DELTA_GRID,
    OMEGA_GRID,
    MarginReport,
    build_certificate,
    calibrate_pac,
    contractive,
    estimate_contraction,
    margin_quantile,
)
from .config import ExperimentConfig
from .errors import (
    ArtifactMismatchError,
    ConfigError,
    NoAdmissiblePairError,
    NoValidSamplesError,
    TooFewSamplesError,
)
from .generate import BlockResult, DenoiseTrajectory, PolicyConfig, generate, stop_fill
from .linalg import ProbVector, top2_margin
from .metaformat import csv_text, io_failure
from .model import (
    ADAPTERS,
    PROJECTIONS,
    TapSpec,
    ToyModel,
    load_checkpoint,
    module_path,
    save_checkpoint,
)
from .monitor import StabilityMonitor, StopConfig, StopReason, alignment_step, trace_to_csv
from .pseudograd import SftBand, analyze_trajectory, pseudograd_to_csv, sft_band
from .tasks import SyntheticTask, make_task
from .train import REDUCTIONS, CaptureSpec, sft_train

CONFIG_FILE = "config.txt"
CHECKPOINT_FILE = "checkpoint.editckpt"
METADATA_FILE = "metadata.editmeta"
BAND_FILE = "band.json"
REPORT_FILE = "report.json"
GENERATIONS_FILE = "generations.jsonl"
TRACES_DIR = "traces"
CALIBRATION_FILE = "calibration.json"
CERTIFICATES_FILE = "certificates.json"
ABLATION_JSON = "ablation.json"
ABLATION_CSV = "ablation.csv"
CONSOLIDATED_JSON = "consolidated.json"
CONSOLIDATED_CSV = "consolidated.csv"

# Ablation cells: every (projection, adapter, reduction) of the last
# block's q/k/v adapters, each captured by cmd_train in this order.
ABLATION_SITES = tuple(product(PROJECTIONS, ADAPTERS, REDUCTIONS))


# --- small shared utilities ----------------------------------------------

def _make_dir(path: str) -> None:
    with io_failure("create", path):
        os.makedirs(path, exist_ok=True)


def _write_text(path: str, text: str) -> None:
    with io_failure("write", path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path: str):
    with io_failure("read", path), open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ArtifactMismatchError(f"malformed JSON in {path!r}: {exc}") from exc


@contextmanager
def _parsing(path: str):
    """Report an entry of ``path`` that is missing or of the wrong kind or
    value as ``ArtifactMismatchError``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, TooFewSamplesError) as exc:
        raise ArtifactMismatchError(f"malformed {path!r}: {exc!r}") from exc


def _json_float(value) -> float:
    """A JSON number as a float; a string or a bool raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def _json_int(value) -> int:
    """A JSON integer; any other value, ``2.0`` and ``true`` included, raises
    ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _json_int_in(entry: dict, key: str, lo: int, hi: int) -> int:
    """``entry[key]`` as a JSON integer in ``[lo, hi)``; out of range raises
    ``ValueError``."""
    value = _json_int(entry[key])
    if not lo <= value < hi:
        raise ValueError(f"{key} {value} outside [{lo}, {hi})")
    return value


def _json_real(value) -> float:
    """A real written as text (``fmt_real``) or as a JSON number; a bool
    raises ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError(f"expected a real, got {value!r}")
    return float(value)


def _sample_instances(
    task: SyntheticTask, seed_key: Sequence[int], count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(list(seed_key))
    return [task.sample(rng) for _ in range(count)]


# --- artifact loading -----------------------------------------------------

@dataclass
class Artifacts:
    model: ToyModel
    vector: EvolutionVector
    basis: SubspaceBasis
    band: Optional[SftBand]
    # Every stored row summary by module id: the default tap's vector
    # plus the ablation sites that ``cmd_train`` captures.
    summaries: dict[str, EvolutionVector]


def _summary(summaries: dict[str, EvolutionVector], module_id: str) -> EvolutionVector:
    if module_id not in summaries:
        raise ArtifactMismatchError(
            f"metadata has no summary for {module_id!r}; found {list(summaries)}"
        )
    return summaries[module_id]


def load_artifacts(config: ExperimentConfig, run_dir: str) -> Artifacts:
    """Load and cross-check the training outputs needed for inference."""
    from .metaformat import load_metadata

    ckpt_path = os.path.join(run_dir, CHECKPOINT_FILE)
    meta_path = os.path.join(run_dir, METADATA_FILE)
    if not os.path.exists(ckpt_path):
        raise ArtifactMismatchError(f"missing checkpoint {ckpt_path!r}")
    if not os.path.exists(meta_path):
        raise ArtifactMismatchError(f"missing metadata {meta_path!r}")
    model = load_checkpoint(ckpt_path)
    if model.cfg != config.model_config():
        raise ArtifactMismatchError(
            f"checkpoint architecture {model.cfg.to_json_dict()} does not match"
            f" the configured model {config.model_config().to_json_dict()}"
        )
    vectors, bases = load_metadata(meta_path)
    summaries = {v.module_id: v for v in vectors}
    default = CaptureSpec(model.default_tap().module)
    vector = _summary(summaries, default.metadata_id)
    for entry in [*vectors, *bases]:
        if entry.d_out != config.d_model:
            raise ArtifactMismatchError(
                f"metadata dimension {entry.d_out} does not match d_model {config.d_model}"
            )
    basis = next((b for b in bases if b.source_module == default.basis_id), None)
    if basis is None:
        raise ArtifactMismatchError(f"metadata has no subspace basis for {default.metadata_id!r}")
    if basis.k != config.subspace_k:
        raise ArtifactMismatchError(
            f"metadata basis has k={basis.k}, but the config sets subspace_k={config.subspace_k}"
        )
    band = None
    band_path = os.path.join(run_dir, BAND_FILE)
    if os.path.exists(band_path):
        payload = _read_json(band_path)
        with _parsing(band_path):
            if (stored := payload.get("band")) is not None:
                band = SftBand(
                    mu=_json_float(stored["mu"]),
                    sigma=_json_float(stored["sigma"]),
                    n_steps=_json_int(stored["n_steps"]),
                )
    return Artifacts(model=model, vector=vector, basis=basis, band=band, summaries=summaries)


def _load_setup(config: ExperimentConfig, artifacts_dir: str):
    """The artifacts, task, similarity mode and reasoning map (the stored
    basis under a subspace mode, else the default tap's summary)."""
    artifacts = load_artifacts(config, artifacts_dir)
    task = make_task(config.task, config.vocab_size, config.block_length)
    mode = config.similarity_mode()
    reasoning_map = artifacts.basis if mode.value.startswith("subspace") else artifacts.vector
    return artifacts, task, mode, reasoning_map


# --- cmd_train ------------------------------------------------------------

def cmd_train(config: ExperimentConfig, run_dir: str | None = None) -> dict:
    """Fine-tune the adapters once and persist every downstream artifact."""
    from .metaformat import persist_metadata

    run_dir = run_dir if run_dir is not None else config.out_dir
    _make_dir(run_dir)
    _write_text(os.path.join(run_dir, CONFIG_FILE), config.to_text())

    model_cfg = config.model_config()
    from .model import init_model

    model = init_model(model_cfg)
    task = make_task(config.task, config.vocab_size, config.block_length)
    # The default tap's summary goes first: sft_train traces its
    # gradient RMS for the band. The ablation sites share its run.
    default = CaptureSpec(model.default_tap().module, "b", "energy")
    ablation = [_ablation_capture(config, site) for site in ABLATION_SITES]
    result = sft_train(
        model,
        task,
        steps=config.train_steps,
        adamw_cfg=config.adamw_config(),
        captures=(default, *(spec for spec in ablation if spec != default)),
        rng=np.random.default_rng(model_cfg.seed + 1),
        batch_size=config.batch_size,
    )

    ckpt_path = os.path.join(run_dir, CHECKPOINT_FILE)
    save_checkpoint(result.model, ckpt_path)

    basis = build_subspace(
        result.evolution_tensors[default.param_key], config.subspace_k, default.basis_id
    )
    # An adapter A that never moved (one step from B = 0) has an all-zero
    # summary, which the metadata format refuses; ablate reports it missing.
    vector = result.evolution[default.metadata_id]
    vectors = [v for v in result.evolution.values() if v is vector or v.norm() > 0.0]
    meta_path = os.path.join(run_dir, METADATA_FILE)
    meta_bytes = persist_metadata(vectors, [basis], meta_path)

    band = sft_band(result.rms_trace) if len(result.rms_trace) >= 2 else None
    _write_json(
        os.path.join(run_dir, BAND_FILE),
        {
            "band": None
            if band is None
            else {"mu": band.mu, "sigma": band.sigma, "n_steps": band.n_steps},
            "final_loss": result.loss_trace[-1],
        },
    )
    return {
        "run_dir": run_dir,
        "checkpoint": ckpt_path,
        "metadata": meta_path,
        "metadata_bytes": meta_bytes,
        "band": os.path.join(run_dir, BAND_FILE),
        "final_loss": result.loss_trace[-1],
    }


# --- cmd_infer ------------------------------------------------------------

def _read_calibration(path: str | None) -> tuple[Optional[float], Optional[float]]:
    """``(alpha_hat, margin_quantile)`` of a calibration file; ``alpha_hat`` is
    None unless it lies in [0, 1), which stderr names, and both are None
    without a file."""
    if path is None:
        return None, None
    calibration = _read_json(path)
    with _parsing(path):
        alpha_hat = calibration.get("alpha_hat")
        if alpha_hat is not None and not contractive(_json_float(alpha_hat)):
            msg = f"{path}: alpha_hat {alpha_hat!r} is outside [0, 1); no global verdicts"
            print(msg, file=sys.stderr)
            alpha_hat = None
        quantile = calibration.get("margin_quantile")
        return (
            None if alpha_hat is None else _json_float(alpha_hat),
            None if quantile is None else _json_float(quantile),
        )


def _block_trace(block: BlockResult, csv_name: Optional[str], pseudo_name: Optional[str]) -> dict:
    """One block's entry in an instance trace: its stop, certificate and
    freeze events, and the names of its trace CSVs."""
    cert, decision = block.certificate, block.stop_decision
    return {
        "block_index": block.block_index,
        "steps_used": block.steps_used,
        "forward_passes": block.forward_passes,
        "stopped_early": block.stopped_early,
        "stop_reason": decision and decision.reason.value,
        "final_counter": decision and decision.final_counter,
        "rejected_stops": list(block.rejected_stops),
        "freeze_events": [
            {"step": st.frozen_at, "token": st.token, "epsilon": st.epsilon_s}
            for st in block.freeze_events
        ],
        "certificate": None if cert is None else cert.to_json_dict(),
        "divergence_csv": csv_name,
        "pseudograd_csv": pseudo_name,
    }


def cmd_infer(
    config: ExperimentConfig,
    artifacts_dir: str | None = None,
    run_dir: str | None = None,
    policy_kind: str | None = None,
    calibration_path: str | None = None,
) -> dict:
    """Evaluate the chosen stop policy across seeds and write the report:
    each seed's results and the mean of its headline figures.

    A seed's counters cover every instance, not only the traced ones:
    ``stop_step_histogram`` lists ``[steps, blocks]`` pairs in increasing
    step order, ``max_step_divergence`` is the largest step divergence any
    monitor recorded, and ``vacuity_ratio`` is that divergence over delta.
    Both are None without a monitor (``fixed``), and the ratio is also None
    at delta 0. ``stop_reasons`` counts blocks per stop reason (None under
    ``fixed``); ``rejected_stops`` and ``freeze_events`` are totals over all
    blocks. ``min_margin`` and ``beta_quantile_margin`` (``margin_quantile``
    at the config's beta) read every early-stopped block's certificate
    margin; None without stops.
    """
    policy = config.policy_config(policy_kind)
    run_dir = run_dir if run_dir is not None else config.out_dir
    artifacts_dir = artifacts_dir if artifacts_dir is not None else run_dir
    traces_dir = os.path.join(run_dir, TRACES_DIR)
    _make_dir(traces_dir)

    artifacts, task, mode, reasoning_map = _load_setup(config, artifacts_dir)

    alpha_hat, quantile = _read_calibration(calibration_path)
    stop_cfg = config.stop_config()
    seed_reports: list[dict] = []
    generation_lines: list[str] = []

    for seed in config.seeds:
        instances = _sample_instances(task, (seed, 101), config.eval_instances)
        blocks: list[BlockResult] = []
        exacts: list[bool] = []
        trace_files: list[str] = []
        for index, (prompt, target) in enumerate(instances):
            traced = index < config.trace_retention
            # A traced decode keeps its forwards for the pseudo-gradient,
            # which reads them before the next instance decodes. The config's
            # seq_len leaves one block after the prompt.
            (block,) = generate(
                artifacts.model,
                prompt,
                config.seq_len,
                policy,
                budget=config.budget,
                reasoning_map=reasoning_map,
                mode=mode,
                freeze_basis=artifacts.basis,
                alpha_hat=alpha_hat,
                record=traced,
            ).blocks
            blocks.append(block)
            output_block = np.asarray(block.trajectory.tokens)
            exact = task.exact_match(output_block, target)
            exacts.append(exact)
            if block.stopped_early:
                # The decode certified the stop under the same stop config
                # and alpha_hat; only the calibrated quantile is added here.
                block.certificate = replace(block.certificate, margin_quantile=quantile)
            # The instance's one record, which its generations line and its
            # trace both carry.
            instance = {
                "seed": seed,
                "instance": index,
                "prompt": [int(t) for t in prompt],
                "target": [int(t) for t in target],
                "output": [int(t) for t in output_block],
                "exact_match": bool(exact),
            }
            generation_lines.append(
                json.dumps(
                    {**instance, "block_steps": [block.steps_used], "policy": policy.kind},
                    sort_keys=True,
                )
            )
            if traced:
                stem = f"seed{seed}_inst{index:03d}_block{block.block_index}"
                csv_name = None
                if block.monitor is not None:
                    csv_name = stem + "_divergence.csv"
                    _write_text(os.path.join(traces_dir, csv_name), trace_to_csv(block.monitor))
                pseudo_name = None
                if artifacts.band is not None and block.steps_used >= 2:
                    pseudo_name = stem + "_pseudograd.csv"
                    trace = analyze_trajectory(artifacts.model, block.trajectory, artifacts.band)
                    _write_text(os.path.join(traces_dir, pseudo_name), pseudograd_to_csv(trace))
                block.trajectory.forwards = ()  # held for one instance only
                trace_name = f"seed{seed}_inst{index:03d}.json"
                _write_json(
                    os.path.join(traces_dir, trace_name),
                    {**instance, "blocks": [_block_trace(block, csv_name, pseudo_name)]},
                )
                trace_files.append(os.path.join(TRACES_DIR, trace_name))

        avg_steps = float(np.mean([b.steps_used for b in blocks]))
        baseline = float(config.budget)
        stop_steps = Counter(b.steps_used for b in blocks)
        certificates = [b.certificate for b in blocks if b.stopped_early]
        margins = [cert.margin_report.margin for cert in certificates]
        n_pac = sum(cert.pac_pass is True for cert in certificates)
        divergences = [
            row.divergence
            for b in blocks
            if b.monitor is not None
            for row in b.monitor.divergence_trace
        ]
        max_divergence = max(divergences) if divergences else None
        vacuity = (
            max_divergence / stop_cfg.delta
            if max_divergence is not None and stop_cfg.delta > 0.0
            else None
        )
        reasons = (
            {r.value: sum(b.stop_decision.reason is r for b in blocks) for r in StopReason}
            if policy.monitored
            else None
        )
        certified = n_pac / len(margins) if margins else 0.0
        seed_reports.append(
            {
                "seed": seed,
                "accuracy": float(np.mean(exacts)),
                "avg_steps": avg_steps,
                "baseline_steps": baseline,
                "reduction_percent": 100.0 * (1.0 - avg_steps / baseline),
                "certified_fraction": certified,
                "n_instances": len(instances),
                "n_early_stops": len(margins),
                "forward_passes": sum(b.forward_passes for b in blocks),
                "stop_step_histogram": sorted([k, n] for k, n in stop_steps.items()),
                "max_step_divergence": max_divergence,
                "vacuity_ratio": vacuity,
                "min_margin": min(margins) if margins else None,
                "beta_quantile_margin": margin_quantile(margins, config.beta) if margins else None,
                "stop_reasons": reasons,
                "rejected_stops": sum(len(b.rejected_stops) for b in blocks),
                "freeze_events": sum(len(b.freeze_events) for b in blocks),
                "trace_files": trace_files,
            }
        )

    means = ("accuracy", "avg_steps", "reduction_percent", "certified_fraction")
    report = {
        "policy": policy.kind,
        "budget": config.budget,
        "per_seed": seed_reports,
        "mean": {k: float(np.mean([s[k] for s in seed_reports])) for k in means},
    }
    _write_json(os.path.join(run_dir, REPORT_FILE), report)
    _write_text(os.path.join(run_dir, GENERATIONS_FILE), "\n".join(generation_lines) + "\n")
    return report


# --- cmd_calibrate --------------------------------------------------------

def replay_stop(
    trajectory: DenoiseTrajectory,
    divergences: Sequence[float],
    delta: float,
    omega: int,
    mask_id: int,
) -> tuple[tuple[int, ...], int]:
    """Tokens and step count of a run had it stopped under (delta, omega).

    ``trajectory`` must come from a run whose stop rule never changed what
    got committed: a ``fixed`` decode, or a monitored one at threshold zero
    without strict certificates. ``divergences`` are its step divergences
    for steps 2, 3, ... A run that stops at step t then equals the recorded
    one up to step t and fills every slot still masked with step t's row
    argmax. Without a stop the run is the recorded one, all budgeted steps
    included. The stop is the first one that a fresh
    ``StabilityMonitor``'s ``advance`` fires over ``divergences``; its
    tokens and row argmax are the stop step's row.
    """
    replay = StabilityMonitor(StopConfig(delta=delta, omega=omega))
    for step, divergence in enumerate(divergences, start=2):
        if replay.advance(divergence, step).stop:
            break
    stop = replay.stopped_at
    if stop is None:
        return trajectory.tokens, trajectory.steps_used
    r = trajectory.row(stop)
    return tuple(stop_fill(trajectory.token_rows[r], trajectory.choice[r], mask_id).tolist()), stop


def _alignment_trace(
    trajectory: DenoiseTrajectory,
    groups: Sequence[tuple[int, Sequence[EvolutionVector | SubspaceBasis]]],
    mode: SimilarityMode,
    tau_blk: float,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Offline, what a monitor scoring each map would have recorded.

    Each group pairs a tap's index in ``trajectory.tap_rows`` with the maps
    its rows are scored against; maps are numbered across groups in order.
    Each map scores its tap's rows of every distinct forward, stacked, in
    one ``score_alignment`` call. At each distinct forward all maps' scores
    take one ``alignment_step``, the one the live decode takes: the
    alignment softmax at ``tau_blk`` and the step divergence against the
    previous forward, row by row, bit for bit those of a live monitor. A
    step that repeats the last forward diverges by 0.0.

    Returns each distinct forward's ``(n_maps, n_visible)`` softmax, whose
    columns are the slots visible at that forward, and the
    ``(steps_used - 1, n_maps)`` step divergences of steps 2, 3, ...
    """
    cell_scores = []
    for tap, maps in groups:
        stacked = np.concatenate(trajectory.tap_rows[tap])  # one tap's stack held at a time
        cell_scores += [score_alignment(stacked, m, mode) for m in maps]
    scores = np.stack(cell_scores)
    members = [seen.nonzero()[0].tolist() for seen in trajectory.visible]
    bounds = [0, *trajectory.visible.sum(axis=1).cumsum().tolist()]
    probs: list[np.ndarray] = []
    divergences = np.zeros((trajectory.steps_used - 1, len(scores)))
    for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
        prev, prev_members = (probs[-1], members[r - 1]) if r else (None, None)
        row, kl = alignment_step(scores[:, a:b], members[r], tau_blk, prev, prev_members)
        probs.append(row)
        if r:
            divergences[r - 1] = kl
    return probs, divergences


def cmd_calibrate(
    config: ExperimentConfig,
    artifacts_dir: str | None = None,
    run_dir: str | None = None,
) -> dict:
    """Estimate contraction, calibrate (delta, omega), and tune by utility.

    Each validation prompt is decoded once under ``fixed``, which commits
    what a run under any (delta, omega) commits up to its stop. Its
    alignment softmaxes and step divergences are scored offline
    (``_alignment_trace``), bit for bit what a never-stopping monitor would
    record; no monitor runs. Both the margin calibration and the utility
    sweep replay these decodes: each (delta, omega) cell reads its stop off
    the divergences and its tokens off the stop step's row
    (``replay_stop``), which is exactly what a live run under that cell
    commits. ``ExperimentConfig`` fixes one target block per prompt, so
    each decode covers a whole run.
    """
    run_dir = run_dir if run_dir is not None else config.out_dir
    artifacts_dir = artifacts_dir if artifacts_dir is not None else run_dir
    _make_dir(run_dir)
    artifacts, task, mode, reasoning_map = _load_setup(config, artifacts_dir)

    n_val = max(1, int(round(config.validation_fraction * config.eval_instances)))
    instances = _sample_instances(task, (config.model_seed, 707), n_val)

    mask_id = artifacts.model.cfg.mask_id
    probes: list[tuple[DenoiseTrajectory, np.ndarray]] = []
    margins: list[float] = []
    contraction_traces: list[list] = []
    for prompt, _ in instances:
        (block,) = generate(
            artifacts.model, prompt, config.seq_len, PolicyConfig("fixed"), budget=config.budget
        ).blocks
        trajectory = block.trajectory
        probs, divergences = _alignment_trace(
            trajectory, ((0, (reasoning_map,)),), mode, config.tau_blk
        )
        divergences = divergences[:, 0]
        probes.append((trajectory, divergences))
        _, stop_step = replay_stop(trajectory, divergences, config.delta, config.omega, mask_id)
        margins.append(top2_margin(probs[trajectory.row(stop_step)][0]))
        # The steps from the first one that sees the whole block.
        full = trajectory.visible.all(axis=1)
        if full.any() and trajectory.steps_used - full.argmax() >= 3:
            rows = [trajectory.row(s) for s in range(full.argmax() + 1, trajectory.steps_used + 1)]
            dists = {r: ProbVector(probs[r][0]) for r in set(rows)}
            contraction_traces.append([dists[r] for r in rows])

    alpha_note = estimate = None
    try:
        if not contraction_traces:
            raise NoValidSamplesError("no validation block runs 3 steps after it fills")
        estimate = estimate_contraction(contraction_traces)
        alpha_hat = estimate.alpha_hat
    except NoValidSamplesError as exc:
        # Fully settled distributions, or too few steps after the block
        # fills, leave no measurable ratio; report the most favorable
        # contraction rather than refusing to run.
        alpha_hat = 0.0
        alpha_note = str(exc)

    quantile = margin_quantile(margins, config.beta)

    pac_result = None
    pac_note = None
    fallback = None
    try:
        pac = calibrate_pac(margins, config.beta, alpha_hat, DELTA_GRID, OMEGA_GRID)
        pac_result = pac.to_json_dict()
    except NoAdmissiblePairError as exc:
        fallback = {"delta": config.delta, "omega": config.omega}
        pac_note = (
            f"{exc}; falling back to the configured"
            f" (delta={config.delta}, omega={config.omega})"
        )

    # Utility sweep: accuracy per step, each cell replayed from the probes.
    utility_rows = []
    best = None
    for delta, omega in product(DELTA_GRID, OMEGA_GRID):
        outcomes = []
        for (_, target), (trajectory, divergences) in zip(instances, probes):
            tokens, steps = replay_stop(trajectory, divergences, delta, omega, mask_id)
            outcomes.append((task.exact_match(tokens, target), float(steps)))
        accuracy = float(np.mean([e for e, _ in outcomes]))
        avg_steps = float(np.mean([s for _, s in outcomes]))
        utility = accuracy / avg_steps
        row = {
            "delta": delta,
            "omega": omega,
            "accuracy": accuracy,
            "avg_steps": avg_steps,
            "utility": utility,
        }
        utility_rows.append(row)
        key = (utility, -avg_steps, -delta, -omega)
        if best is None or key > best[0]:
            best = (key, row)

    payload = {
        "beta": config.beta,
        "n_validation": n_val,
        "alpha_hat": alpha_hat,
        "alpha_note": alpha_note,
        "samples_used": estimate and estimate.samples_used,
        "skipped_small_denominators": estimate and estimate.skipped_small_denominators,
        "margin_quantile": quantile,
        "n_margins": len(margins),
        "pac": pac_result,
        "pac_note": pac_note,
        "fallback": fallback,
        "utility_table": utility_rows,
        "utility_chosen": best[1],
    }
    _write_json(os.path.join(run_dir, CALIBRATION_FILE), payload)
    if pac_result is None:
        raise NoAdmissiblePairError(pac_note)
    return payload


# --- cmd_certify ----------------------------------------------------------

def cmd_certify(
    config: ExperimentConfig,
    run_dir: str | None = None,
    calibration_path: str | None = None,
) -> dict:
    """Re-evaluate stopping certificates from the stored instance traces."""
    run_dir = run_dir if run_dir is not None else config.out_dir
    traces_dir = os.path.join(run_dir, TRACES_DIR)
    if not os.path.isdir(traces_dir):
        raise ArtifactMismatchError(f"no trace directory at {traces_dir!r}")
    names = sorted(n for n in os.listdir(traces_dir) if n.endswith(".json"))
    if not names:
        raise ArtifactMismatchError(f"no instance traces in {traces_dir!r}")

    if calibration_path is None:
        default_cal = os.path.join(run_dir, CALIBRATION_FILE)
        calibration_path = default_cal if os.path.exists(default_cal) else None
    alpha_hat, quantile = _read_calibration(calibration_path)
    stop_cfg = config.stop_config()
    L = config.block_length
    entries = []
    for name in names:
        path = os.path.join(traces_dir, name)
        payload = _read_json(path)
        with _parsing(path):
            for block in payload.get("blocks", []):
                if not block.get("stopped_early"):
                    continue
                stored = block.get("certificate")
                if stored is None:
                    continue
                block_index = _json_int_in(block, "block_index", 0, config.max_blocks)
                lo = block_index * L
                margin = MarginReport(
                    argmax_index=_json_int_in(stored, "argmax_index", lo, lo + L),
                    margin=_json_real(stored["margin"]),
                    step=_json_int_in(stored, "margin_step", 1, config.budget + 1),
                    support_size=_json_int_in(stored, "support_size", 1, L + 1),
                )
                stop_step = _json_int_in(stored, "stop_step", 1, config.budget + 1)
                cert = build_certificate(
                    stop_step, margin, stop_cfg, alpha_hat=alpha_hat, margin_quantile=quantile
                )
                entries.append(
                    {"trace": name, "block_index": block_index, "certificate": cert.to_json_dict()}
                )
    n_stops = len(entries)

    def rate(verdict: str) -> float:
        passed = sum(e["certificate"][verdict] is True for e in entries)
        return passed / n_stops if n_stops else 0.0

    report = {
        "n_stops": n_stops,
        "local_pass_rate": rate("local_pass"),
        "global_pass_rate": rate("global_pass"),
        "certified_fraction": rate("pac_pass"),
        "alpha_hat": alpha_hat,
        "margin_quantile": quantile,
        "certificates": entries,
    }
    _write_json(os.path.join(run_dir, CERTIFICATES_FILE), report)
    return report


# --- cmd_ablate -----------------------------------------------------------

def _ablation_capture(config: ExperimentConfig, site: tuple[str, str, str]) -> CaptureSpec:
    proj, adapter, reduction = site
    return CaptureSpec(module_path(config.n_blocks - 1, proj), adapter, reduction)


def cmd_ablate(config: ExperimentConfig, run_dir: str | None = None) -> dict:
    """Sweep capture sites and reductions; report mean step divergence.

    Reads the trained run in ``run_dir``, training it first if the
    directory holds no checkpoint. Each (projection, adapter, reduction)
    cell scores the chosen projection's own activations against the row
    summary that ``cmd_train`` stored for that site, and averages the step
    divergences a never-stopping monitor would record between distinct
    forwards: a step that repeats the last forward diverges by 0.0 by
    construction and is left out, so ``n_samples`` is the sum over prompts
    of ``forward_passes - 1``. The summaries are ``EvolutionVector``s, so
    the cells are scored under ``vector_cosine`` whatever the config's
    ``similarity``. A budget below 2 has no step divergence to average and
    raises ``ConfigError`` before any work.

    Such a monitor never changes what gets committed, and freezing is
    off, so the frames a cell scores are those of a fixed-budget run that
    taps its projection. Each evaluation prompt is therefore decoded once
    under ``fixed``, tapping all three projections off each step's one
    forward, and its 12 cells are scored offline in one
    ``_alignment_trace``, one (tap, maps) group per projection.
    """
    if config.budget < 2:
        raise ConfigError(
            f"ablate needs budget >= 2, got {config.budget}: one step has no step divergence"
        )
    run_dir = run_dir if run_dir is not None else config.out_dir
    if not os.path.exists(os.path.join(run_dir, CHECKPOINT_FILE)):
        cmd_train(config, run_dir)
    artifacts, task, _, _ = _load_setup(config, run_dir)
    vectors = {
        site: _summary(artifacts.summaries, _ablation_capture(config, site).metadata_id)
        for site in ABLATION_SITES
    }
    last = config.n_blocks - 1
    taps = tuple(TapSpec(module_path(last, proj)) for proj in PROJECTIONS)
    # ABLATION_SITES runs projection by projection, so the cells come out in its order.
    groups = [
        (k, [vectors[site] for site in ABLATION_SITES if site[0] == proj])
        for k, proj in enumerate(PROJECTIONS)
    ]

    n_eval = min(config.eval_instances, 16)
    instances = _sample_instances(task, (config.model_seed, 505), n_eval)

    # One prompt at a time, so only one run's frames are held.
    divergences: dict[tuple[str, str, str], list[float]] = {site: [] for site in ABLATION_SITES}
    forward_passes = 0
    for prompt, _ in instances:
        (block,) = generate(
            artifacts.model,
            prompt,
            config.seq_len,
            PolicyConfig("fixed"),
            budget=config.budget,
            taps=taps,
        ).blocks
        forward_passes += block.forward_passes
        _, rows = _alignment_trace(
            block.trajectory, groups, SimilarityMode.VECTOR_COSINE, config.tau_blk
        )
        # Steps after the last forward repeat it and diverge by 0.0 by construction.
        for site, column in zip(ABLATION_SITES, rows[: block.forward_passes - 1].T):
            divergences[site].extend(column.tolist())

    cells = [
        {
            "module": module_path(last, proj),
            "projection": proj,
            "adapter": adapter,
            "reduction": reduction,
            "mean_divergence": float(np.mean(divergences[proj, adapter, reduction])),
            "n_samples": len(divergences[proj, adapter, reduction]),
        }
        for proj, adapter, reduction in ABLATION_SITES
    ]
    cells.sort(key=lambda c: (c["projection"], c["adapter"], c["reduction"]))
    payload = {"cells": cells, "n_eval_instances": n_eval, "forward_passes": forward_passes}
    _write_json(os.path.join(run_dir, ABLATION_JSON), payload)
    columns = ["module", "projection", "adapter", "reduction", "mean_divergence", "n_samples"]
    table = csv_text(
        columns,
        ([repr(c[k]) if k == "mean_divergence" else c[k] for k in columns] for c in cells),
    )
    _write_text(os.path.join(run_dir, ABLATION_CSV), table)
    return payload


# --- cmd_report -----------------------------------------------------------

def cmd_report(run_dirs: Sequence[str | PathLike], out_dir: str) -> dict:
    """Merge the reports of several run directories into one bundle."""
    _make_dir(out_dir)
    runs = []
    skipped = []
    rows = []
    bundle: dict[str, list[str]] = {"divergence_csv": [], "pseudograd_csv": []}
    for raw in run_dirs:
        d = os.fspath(raw)
        report_path = os.path.join(d, REPORT_FILE)
        if not os.path.exists(report_path):
            skipped.append(d)
            continue
        report = _read_json(report_path)
        runs.append({"run_dir": d, "report": report})
        with _parsing(report_path):
            for seed_entry in report.get("per_seed", []):
                rows.append(
                    [
                        d,
                        report.get("policy"),
                        seed_entry["seed"],
                        seed_entry["accuracy"],
                        seed_entry["avg_steps"],
                        seed_entry["reduction_percent"],
                        seed_entry["certified_fraction"],
                    ]
                )
        traces_dir = os.path.join(d, TRACES_DIR)
        if os.path.isdir(traces_dir):
            for name in sorted(os.listdir(traces_dir)):
                if name.endswith("_divergence.csv"):
                    bundle["divergence_csv"].append(os.path.join(traces_dir, name))
                elif name.endswith("_pseudograd.csv"):
                    bundle["pseudograd_csv"].append(os.path.join(traces_dir, name))
    payload = {"runs": runs, "skipped": skipped, "figure_data": bundle}
    _write_json(os.path.join(out_dir, CONSOLIDATED_JSON), payload)
    header = ["run_dir", "policy", "seed", "accuracy", "avg_steps", "reduction_percent",
              "certified_fraction"]
    _write_text(os.path.join(out_dir, CONSOLIDATED_CSV), csv_text(header, rows))
    return payload
