"""Experiment orchestration: train, infer, calibrate, certify, ablate, report.

Each command reads an ``ExperimentConfig``, writes every derived artifact
into the run directory, and is reproducible byte-for-byte from (config,
seeds, input artifacts). Evaluation instances run one after another, in
instance order.

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
                          pair is admissible
    certificates.json     batch re-evaluation of stopping certificates
    ablation.json/.csv    capture-site sweep over the stored summaries
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import product
from os import PathLike
from typing import Optional, Sequence

import numpy as np

from .alignment import score_frame
from .capture import AdamWConfig, EvolutionVector, SubspaceBasis, build_subspace
from .certify import (
    DELTA_GRID,
    OMEGA_GRID,
    MarginReport,
    build_certificate,
    calibrate_pac,
    estimate_contraction,
    margin_quantile,
)
from .config import ExperimentConfig
from .errors import (
    ArtifactMismatchError,
    NoAdmissiblePairError,
    NoValidSamplesError,
)
from .generate import BlockResult, GenerateResult, PolicyConfig, generate, repeats_previous
from .model import TapSpec, ToyModel, load_checkpoint, save_checkpoint
from .monitor import StabilityMonitor, StopConfig, StopReason, trace_to_csv
from .pseudograd import SftBand, analyze_trajectory, pseudograd_to_csv, sft_band
from .tasks import SyntheticTask, make_task
from .train import CaptureSpec, sft_train

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

# The basis entry shares the captured module's name; the suffix keeps
# module ids unique inside one metadata file.
SUBSPACE_SUFFIX = "#subspace"

# Ablation cells: every (projection, adapter, reduction) of the last
# block's q/k/v adapters, each captured by cmd_train.
ABLATION_PROJECTIONS = ("q", "k", "v")
ABLATION_ADAPTERS = ("a", "b")
ABLATION_REDUCTIONS = ("energy", "mean")
ABLATION_SITES = tuple(product(ABLATION_PROJECTIONS, ABLATION_ADAPTERS, ABLATION_REDUCTIONS))


# --- small shared utilities ----------------------------------------------

def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ArtifactMismatchError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactMismatchError(f"malformed JSON in {path!r}: {exc}") from exc


def simulate_stop(
    divergences: Sequence[tuple[int, float]], delta: float, omega: int
) -> Optional[int]:
    """Replay the run-length rule over a recorded divergence sequence.

    Mirrors the online counter: strictly-below-threshold steps increment,
    anything else resets, non-finite rows are skipped. Returns the stop
    step or None if the counter never fills.
    """
    counter = 0
    for step, d in divergences:
        if not math.isfinite(d):
            continue
        counter = counter + 1 if d < delta else 0
        if counter >= omega:
            return int(step)
    return None


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
    basis: Optional[SubspaceBasis]
    band: Optional[SftBand]
    rms_trace: list[float]
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
    wanted = CaptureSpec(model.default_tap().module).metadata_id
    vector = _summary(summaries, wanted)
    for entry in [*vectors, *bases]:
        if entry.d_out != config.d_model:
            raise ArtifactMismatchError(
                f"metadata dimension {entry.d_out} does not match d_model {config.d_model}"
            )
    basis = next((b for b in bases if b.source_module == wanted + SUBSPACE_SUFFIX), None)
    band = None
    rms_trace: list[float] = []
    band_path = os.path.join(run_dir, BAND_FILE)
    if os.path.exists(band_path):
        payload = _read_json(band_path)
        rms_trace = [float(v) for v in payload.get("rms_trace", [])]
        if payload.get("band") is not None:
            band = SftBand(
                mu=float(payload["band"]["mu"]),
                sigma=float(payload["band"]["sigma"]),
                n_steps=int(payload["band"]["n_steps"]),
            )
    return Artifacts(
        model=model, vector=vector, basis=basis, band=band, rms_trace=rms_trace,
        summaries=summaries,
    )


# --- cmd_train ------------------------------------------------------------

def cmd_train(config: ExperimentConfig, run_dir: str | None = None) -> dict:
    """Fine-tune the adapters once and persist every downstream artifact."""
    from .metaformat import persist_metadata

    run_dir = run_dir if run_dir is not None else config.out_dir
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, CONFIG_FILE), "w", encoding="utf-8") as fh:
        fh.write(config.to_text())

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
        adamw_cfg=AdamWConfig(learning_rate=config.learning_rate),
        captures=(default, *(spec for spec in ablation if spec != default)),
        rng=np.random.default_rng(model_cfg.seed + 1),
        batch_size=config.batch_size,
    )

    ckpt_path = os.path.join(run_dir, CHECKPOINT_FILE)
    save_checkpoint(result.model, ckpt_path)

    basis = build_subspace(
        result.evolution_tensors[default.param_key],
        config.subspace_k,
        default.metadata_id + SUBSPACE_SUFFIX,
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
            "rms_trace": result.rms_trace,
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

@dataclass
class SeedReport:
    """One seed's results. The counters cover every instance, not only the
    traced ones: ``stop_step_histogram`` lists ``[steps, blocks]`` pairs in
    increasing step order, ``max_step_divergence`` is the largest finite
    step divergence any monitor recorded, and ``vacuity_ratio`` is that
    divergence over delta. Both are None without a monitor (``fixed``), and
    the ratio is also None at delta 0. ``stop_reasons`` counts blocks per
    stop reason (None under ``fixed``); ``rejected_stops`` and
    ``freeze_events`` are totals over all blocks."""

    seed: int
    accuracy: float
    avg_steps: float
    baseline_steps: float
    reduction_percent: float
    certified_fraction: float
    n_instances: int
    n_early_stops: int
    forward_passes: int
    stop_step_histogram: list[list[int]]
    max_step_divergence: Optional[float]
    vacuity_ratio: Optional[float]
    stop_reasons: Optional[dict[str, int]]
    rejected_stops: int
    freeze_events: int
    trace_files: list[str]


@dataclass
class RunReport:
    policy: str
    budget: int
    per_seed: list[SeedReport]

    def mean(self, attr: str) -> float:
        return float(np.mean([getattr(s, attr) for s in self.per_seed]))

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "budget": self.budget,
            "per_seed": [asdict(s) for s in self.per_seed],
            "mean": {
                "accuracy": self.mean("accuracy"),
                "avg_steps": self.mean("avg_steps"),
                "reduction_percent": self.mean("reduction_percent"),
                "certified_fraction": self.mean("certified_fraction"),
            },
        }


def _usable_alpha(alpha_hat: Optional[float]) -> Optional[float]:
    if alpha_hat is None:
        return None
    if not 0.0 <= alpha_hat < 1.0:
        return None
    return float(alpha_hat)


def _recertify_block(
    block: BlockResult,
    stop_cfg: StopConfig,
    alpha_hat: Optional[float],
    quantile: Optional[float],
):
    """Attach tail and calibration verdicts to a block's stop certificate."""
    if block.certificate is None:
        return None
    cert = block.certificate
    pac_pass = None if quantile is None else bool(cert.margin_report.margin >= quantile)
    return build_certificate(
        cert.stop_step,
        cert.margin_report,
        stop_cfg.for_block(block.block_index),
        alpha_hat=alpha_hat,
        pac_pass=pac_pass,
    )


def _instance_trace_payload(
    index: int,
    seed: int,
    prompt: np.ndarray,
    target: np.ndarray,
    result: GenerateResult,
    certs: list,
    exact: bool,
    csv_names: list[Optional[str]],
    pseudo_names: list[Optional[str]],
) -> dict:
    blocks = []
    for which, block in enumerate(result.blocks):
        cert = certs[which]
        entry = {
            "block_index": block.block_index,
            "steps_used": block.steps_used,
            "forward_passes": block.forward_passes,
            "stopped_early": block.stopped_early,
            "stop_reason": None
            if block.stop_decision is None
            else block.stop_decision.reason.value,
            "final_counter": None
            if block.stop_decision is None
            else block.stop_decision.final_counter,
            "rejected_stops": list(block.rejected_stops),
            "freeze_events": [
                {"step": e.step, "token": e.token, "epsilon": e.epsilon_s}
                for e in block.freeze_events
            ],
            "certificate": None if cert is None else cert.to_json_dict(),
            "divergence_csv": csv_names[which],
            "pseudograd_csv": pseudo_names[which],
        }
        blocks.append(entry)
    return {
        "instance": index,
        "seed": seed,
        "prompt": [int(t) for t in prompt],
        "target": [int(t) for t in target],
        "output": [int(t) for t in result.tokens[prompt.size :]],
        "exact_match": bool(exact),
        "blocks": blocks,
    }


def cmd_infer(
    config: ExperimentConfig,
    artifacts_dir: str | None = None,
    run_dir: str | None = None,
    policy_kind: str | None = None,
    calibration_path: str | None = None,
) -> dict:
    """Evaluate the chosen stop policy across seeds and write a RunReport."""
    run_dir = run_dir if run_dir is not None else config.out_dir
    artifacts_dir = artifacts_dir if artifacts_dir is not None else run_dir
    os.makedirs(run_dir, exist_ok=True)
    traces_dir = os.path.join(run_dir, TRACES_DIR)
    os.makedirs(traces_dir, exist_ok=True)

    artifacts = load_artifacts(config, artifacts_dir)
    policy = config.policy_config(policy_kind)
    if policy.freezing and artifacts.basis is None:
        raise ArtifactMismatchError(
            "policy 'edit_freeze' needs a subspace entry in the metadata file"
        )
    task = make_task(config.task, config.vocab_size, config.block_length)
    mode = config.similarity_mode()
    reasoning_map = artifacts.basis if mode.variant.value.startswith("subspace") else artifacts.vector

    alpha_hat: Optional[float] = None
    quantile: Optional[float] = None
    if calibration_path is not None:
        calibration = _read_json(calibration_path)
        alpha_hat = _usable_alpha(calibration.get("alpha_hat"))
        if calibration.get("margin_quantile") is not None:
            quantile = float(calibration["margin_quantile"])

    stop_cfg = config.stop_config()
    seed_reports: list[SeedReport] = []
    generation_lines: list[str] = []

    for seed in config.seeds:
        instances = _sample_instances(task, (seed, 101), config.eval_instances)

        def run_one(item):
            prompt, target = item
            return generate(
                artifacts.model,
                prompt,
                config.seq_len,
                policy,
                budget=config.budget,
                reasoning_map=reasoning_map,
                mode=mode,
                freeze_basis=artifacts.basis,
                alpha_hat=alpha_hat,
            )

        results = [run_one(item) for item in instances]

        exacts: list[bool] = []
        steps: list[float] = []
        certs_all: list = []
        n_early = 0
        trace_files: list[str] = []
        for index, ((prompt, target), result) in enumerate(zip(instances, results)):
            output_block = np.asarray(result.tokens[prompt.size :])
            exact = task.exact_match(output_block, target)
            exacts.append(exact)
            steps.append(result.avg_steps)
            certs = [
                _recertify_block(b, stop_cfg, alpha_hat, quantile) for b in result.blocks
            ]
            for block, cert in zip(result.blocks, certs):
                if block.stopped_early:
                    n_early += 1
                    if cert is not None:
                        certs_all.append(cert)
            generation_lines.append(
                json.dumps(
                    {
                        "seed": seed,
                        "instance": index,
                        "prompt": [int(t) for t in prompt],
                        "target": [int(t) for t in target],
                        "output": [int(t) for t in output_block],
                        "exact_match": bool(exact),
                        "block_steps": list(result.block_steps),
                        "policy": policy.kind,
                    },
                    sort_keys=True,
                )
            )
            if index < config.trace_retention:
                csv_names: list[Optional[str]] = []
                pseudo_names: list[Optional[str]] = []
                for block in result.blocks:
                    stem = f"seed{seed}_inst{index:03d}_block{block.block_index}"
                    csv_name = None
                    if block.monitor_state is not None:
                        csv_name = stem + "_divergence.csv"
                        with open(
                            os.path.join(traces_dir, csv_name), "w", encoding="utf-8"
                        ) as fh:
                            fh.write(trace_to_csv(block.monitor_state))
                    pseudo_name = None
                    if artifacts.band is not None and len(block.trajectory.records) >= 2:
                        pseudo_name = stem + "_pseudograd.csv"
                        trace = analyze_trajectory(
                            artifacts.model, block.trajectory, artifacts.band
                        )
                        with open(
                            os.path.join(traces_dir, pseudo_name), "w", encoding="utf-8"
                        ) as fh:
                            fh.write(pseudograd_to_csv(trace))
                    csv_names.append(csv_name)
                    pseudo_names.append(pseudo_name)
                payload = _instance_trace_payload(
                    index, seed, prompt, target, result, certs, exact,
                    csv_names, pseudo_names,
                )
                trace_name = f"seed{seed}_inst{index:03d}.json"
                _write_json(os.path.join(traces_dir, trace_name), payload)
                trace_files.append(os.path.join(TRACES_DIR, trace_name))

        avg_steps = float(np.mean(steps))
        baseline = float(config.budget)
        blocks = [b for r in results for b in r.blocks]
        stop_steps = Counter(b.steps_used for b in blocks)
        finite = [
            row.divergence
            for b in blocks
            if b.monitor_state is not None
            for row in b.monitor_state.divergence_trace
            if math.isfinite(row.divergence)
        ]
        max_divergence = max(finite) if finite else None
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
        certified = (
            sum(1 for c in certs_all if c.pac_pass is True) / len(certs_all)
            if certs_all
            else 0.0
        )
        seed_reports.append(
            SeedReport(
                seed=seed,
                accuracy=float(np.mean(exacts)),
                avg_steps=avg_steps,
                baseline_steps=baseline,
                reduction_percent=100.0 * (1.0 - avg_steps / baseline),
                certified_fraction=certified,
                n_instances=len(instances),
                n_early_stops=n_early,
                forward_passes=sum(b.forward_passes for b in blocks),
                stop_step_histogram=sorted([k, n] for k, n in stop_steps.items()),
                max_step_divergence=max_divergence,
                vacuity_ratio=vacuity,
                stop_reasons=reasons,
                rejected_stops=sum(len(b.rejected_stops) for b in blocks),
                freeze_events=sum(len(b.freeze_events) for b in blocks),
                trace_files=trace_files,
            )
        )

    report = RunReport(policy=policy.kind, budget=config.budget, per_seed=seed_reports)
    _write_json(os.path.join(run_dir, REPORT_FILE), report.to_json_dict())
    with open(os.path.join(run_dir, GENERATIONS_FILE), "w", encoding="utf-8") as fh:
        fh.write("\n".join(generation_lines) + "\n")
    return report.to_json_dict()


# --- cmd_calibrate --------------------------------------------------------

def _full_visibility_index(block: BlockResult) -> Optional[int]:
    block_len = len(block.trajectory.tokens)
    for i, rec in enumerate(block.trajectory.records):
        if len(rec.frame.visible) == block_len:
            return i
    return None


def replay_stop(
    block: BlockResult, delta: float, omega: int, mask_id: int
) -> tuple[tuple[int, ...], int]:
    """Tokens and step count of ``block`` had it stopped under (delta, omega).

    ``block`` must come from a never-stopping monitored run (threshold
    zero) without freezing or strict certificates. The stop rule then
    never changes what gets committed, so a run that stops at step t
    equals the recorded one up to step t and then fills every slot still
    masked with step t's row argmax. Without a stop the run is the
    recorded one, all budgeted steps included.
    """
    rows = [(r.step, r.divergence) for r in block.monitor_state.divergence_trace]
    stop = simulate_stop(rows, delta, omega)
    if stop is None:
        return block.trajectory.tokens, block.steps_used
    rec = block.trajectory.records[stop - 1]
    tokens = tuple(c if t == mask_id else t for t, c in zip(rec.tokens, rec.choice))
    return tokens, stop


def cmd_calibrate(
    config: ExperimentConfig,
    artifacts_dir: str | None = None,
    run_dir: str | None = None,
) -> dict:
    """Estimate contraction, calibrate (delta, omega), and tune by utility.

    Validation trajectories are recorded once, under a never-stopping
    monitor (threshold zero), which makes them identical to fixed-budget
    runs while still logging every step divergence and row argmax. Both
    the margin calibration and the utility sweep replay those records:
    each (delta, omega) cell reads its stop off the divergence trace and
    its tokens off the stop step's record (``replay_stop``), which is
    exactly what a live run under that cell commits. ``ExperimentConfig``
    fixes one target block per prompt, so each record covers a whole run.
    """
    run_dir = run_dir if run_dir is not None else config.out_dir
    artifacts_dir = artifacts_dir if artifacts_dir is not None else run_dir
    os.makedirs(run_dir, exist_ok=True)
    artifacts = load_artifacts(config, artifacts_dir)
    task = make_task(config.task, config.vocab_size, config.block_length)
    mode = config.similarity_mode()
    reasoning_map = artifacts.basis if mode.variant.value.startswith("subspace") else artifacts.vector

    n_val = max(1, int(round(config.validation_fraction * config.eval_instances)))
    instances = _sample_instances(task, (config.model_seed, 707), n_val)

    probe_policy = PolicyConfig(
        "edit",
        stop=StopConfig(delta=0.0, omega=config.omega, tau_blk=config.tau_blk),
        freeze=config.freeze_config(),
    )
    probe_blocks: list[BlockResult] = []
    for prompt, _ in instances:
        (block,) = generate(
            artifacts.model,
            prompt,
            config.seq_len,
            probe_policy,
            budget=config.budget,
            reasoning_map=reasoning_map,
            mode=mode,
        ).blocks
        probe_blocks.append(block)

    mask_id = artifacts.model.cfg.mask_id
    margins: list[float] = []
    contraction_traces: list[list] = []
    for block in probe_blocks:
        _, stop_step = replay_stop(block, config.delta, config.omega, mask_id)
        record = block.trajectory.records[stop_step - 1]
        margins.append(
            MarginReport.from_distribution(record.alignment.dist, stop_step).margin
        )
        full = _full_visibility_index(block)
        if full is not None:
            tail = [r.alignment.dist for r in block.trajectory.records[full:]]
            if len(tail) >= 3:
                contraction_traces.append(tail)

    alpha_note = None
    try:
        estimate = estimate_contraction(contraction_traces)
        alpha_hat = estimate.alpha_hat
    except NoValidSamplesError as exc:
        # Fully settled distributions leave no measurable ratio; report
        # the most favorable contraction rather than refusing to run.
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
        for (_, target), block in zip(instances, probe_blocks):
            tokens, steps = replay_stop(block, delta, omega, mask_id)
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

    alpha_hat = None
    quantile = None
    if calibration_path is None:
        default_cal = os.path.join(run_dir, CALIBRATION_FILE)
        calibration_path = default_cal if os.path.exists(default_cal) else None
    if calibration_path is not None:
        calibration = _read_json(calibration_path)
        alpha_hat = _usable_alpha(calibration.get("alpha_hat"))
        if calibration.get("margin_quantile") is not None:
            quantile = float(calibration["margin_quantile"])

    stop_cfg = config.stop_config()
    entries = []
    n_local = n_global = n_pac = 0
    n_stops = 0
    for name in names:
        payload = _read_json(os.path.join(traces_dir, name))
        for block in payload.get("blocks", []):
            if not block.get("stopped_early"):
                continue
            stored = block.get("certificate")
            if stored is None:
                continue
            n_stops += 1
            margin = MarginReport(
                argmax_index=int(stored["argmax_index"]),
                margin=float(stored["margin"]),
                step=int(stored["margin_step"]),
                support_size=int(stored["support_size"]),
            )
            pac_pass = None if quantile is None else bool(margin.margin >= quantile)
            cert = build_certificate(
                int(stored["stop_step"]),
                margin,
                stop_cfg.for_block(int(block["block_index"])),
                alpha_hat=alpha_hat,
                pac_pass=pac_pass,
            )
            n_local += int(cert.local_pass)
            n_global += int(cert.global_pass is True)
            n_pac += int(cert.pac_pass is True)
            entries.append(
                {
                    "trace": name,
                    "block_index": block["block_index"],
                    "certificate": cert.to_json_dict(),
                }
            )
    report = {
        "n_stops": n_stops,
        "local_pass_rate": n_local / n_stops if n_stops else 0.0,
        "global_pass_rate": n_global / n_stops if n_stops else 0.0,
        "certified_fraction": n_pac / n_stops if n_stops else 0.0,
        "alpha_hat": alpha_hat,
        "margin_quantile": quantile,
        "certificates": entries,
    }
    _write_json(os.path.join(run_dir, CERTIFICATES_FILE), report)
    return report


# --- cmd_ablate -----------------------------------------------------------

def _ablation_capture(config: ExperimentConfig, site: tuple[str, str, str]) -> CaptureSpec:
    proj, adapter, reduction = site
    return CaptureSpec(f"block{config.n_blocks - 1}.{proj}", adapter, reduction)


def cmd_ablate(config: ExperimentConfig, run_dir: str | None = None) -> dict:
    """Sweep capture sites and reductions; report mean step divergence.

    Reads the trained run in ``run_dir``, training it first if the
    directory holds no checkpoint. Each (projection, adapter, reduction)
    cell scores the chosen projection's own activations against the row
    summary that ``cmd_train`` stored for that site, under a
    never-stopping monitor (threshold zero), so the recorded per-step
    divergences describe alignment stability.

    Such a monitor never changes what gets committed, and freezing is
    off, so the frames a cell scores are those of a fixed-budget run that
    taps its projection. Each evaluation prompt is therefore decoded once
    per projection, and that projection's four cells replay the recorded
    frames through a fresh monitor each. A frame that repeats the one
    before (``repeats_previous``) reuses its score.
    """
    run_dir = run_dir if run_dir is not None else config.out_dir
    if not os.path.exists(os.path.join(run_dir, CHECKPOINT_FILE)):
        cmd_train(config, run_dir)
    artifacts = load_artifacts(config, run_dir)
    vectors = {
        site: _summary(artifacts.summaries, _ablation_capture(config, site).metadata_id)
        for site in ABLATION_SITES
    }
    task = make_task(config.task, config.vocab_size, config.block_length)
    last = config.n_blocks - 1

    n_eval = min(config.eval_instances, 16)
    instances = _sample_instances(task, (config.model_seed, 505), n_eval)
    probe_stop = StopConfig(delta=0.0, omega=config.omega, tau_blk=config.tau_blk)
    mode = config.similarity_mode()

    # One prompt at a time, so only one run's frames are held.
    divergences: dict[tuple[str, str, str], list[float]] = {site: [] for site in ABLATION_SITES}
    for prompt, _ in instances:
        for proj in ABLATION_PROJECTIONS:
            (block,) = generate(
                artifacts.model,
                prompt,
                config.seq_len,
                PolicyConfig("fixed"),
                budget=config.budget,
                tap=TapSpec(f"block{last}.{proj}"),
            ).blocks
            records = block.trajectory.records
            repeats = [
                repeats_previous(records[i - 1] if i else None, rec.committed)
                for i, rec in enumerate(records)
            ]
            for adapter, reduction in product(ABLATION_ADAPTERS, ABLATION_REDUCTIONS):
                site = (proj, adapter, reduction)
                monitor = StabilityMonitor(probe_stop, block.block_index)
                for rec, repeat in zip(records, repeats):
                    # The monitor needs each step to advance, so a repeated
                    # frame's distribution takes its own step.
                    dist = (
                        replace(dist, step=rec.step)
                        if repeat
                        else score_frame(rec.frame, vectors[site], mode, config.tau_blk)
                    )
                    monitor.observe(dist)
                divergences[site] += [
                    row.divergence
                    for row in monitor.state.divergence_trace
                    if math.isfinite(row.divergence)
                ]

    cells = [
        {
            "module": f"block{last}.{proj}",
            "projection": proj,
            "adapter": adapter,
            "reduction": reduction,
            "mean_divergence": float(np.mean(divergences[proj, adapter, reduction])),
            "n_samples": len(divergences[proj, adapter, reduction]),
        }
        for proj, adapter, reduction in ABLATION_SITES
    ]
    cells.sort(key=lambda c: (c["projection"], c["adapter"], c["reduction"]))
    payload = {"cells": cells, "n_eval_instances": n_eval}
    _write_json(os.path.join(run_dir, ABLATION_JSON), payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["module", "projection", "adapter", "reduction", "mean_divergence", "n_samples"]
    )
    for c in cells:
        writer.writerow(
            [
                c["module"],
                c["projection"],
                c["adapter"],
                c["reduction"],
                repr(c["mean_divergence"]),
                c["n_samples"],
            ]
        )
    with open(os.path.join(run_dir, ABLATION_CSV), "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return payload


# --- cmd_report -----------------------------------------------------------

def cmd_report(run_dirs: Sequence[str | PathLike], out_dir: str) -> dict:
    """Merge RunReports from several run directories into one bundle."""
    os.makedirs(out_dir, exist_ok=True)
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "run_dir",
            "policy",
            "seed",
            "accuracy",
            "avg_steps",
            "reduction_percent",
            "certified_fraction",
        ]
    )
    for row in rows:
        writer.writerow(row)
    with open(os.path.join(out_dir, CONSOLIDATED_CSV), "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return payload
