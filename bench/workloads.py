"""The three workloads: one closed-loop client in one process.

``decode_one_block`` and ``decode_three_blocks`` call the public
``generate`` API one prompt at a time, running each prompt under every
policy in turn so that machine drift hits all policies alike. A run draws
a set of PROMPT_SET prompts once from its seed and decodes the whole set
pass after pass, until the run's seconds have passed and each policy has
made at least MIN_CALLS calls.
``experiment_pipeline`` runs the infer, calibrate, certify and ablate
commands on the default configuration, each pass in a fresh copy of the
trained run directory.

A round is one prompt under every policy, or one pass of the pipeline's
commands. After every round the reference kernel is timed, and each
round is also recorded in units of its pass's median reference time,
which takes out the drift of the shared host's speed. Every pass repeats
the same rounds, so a round's median repeat is its cost with transient
slowdowns filtered out, and the mean over rounds keeps every round's work
in the figure. A round in which a call failed did less work than a
complete one and is not timed.

Every workload sets up the same way: train the default configuration
with ``cmd_train`` and load the artifacts, several times, so that set-up
time is a median. For the pipeline that set-up is its train command.

Every call into the program goes through a module attribute looked up at
call time, so the traced run sees the calls its wrappers replaced.
"""

from __future__ import annotations

import importlib
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from editstop.config import ExperimentConfig
from editstop.errors import NoAdmissiblePairError
from editstop.tasks import make_task

import outputs
from measure import Ledger, reference_seconds
from tracing import Installed, Recorder

# The package re-exports the function ``generate`` under the submodule's
# name, so the submodule is taken from the import system.
gen = importlib.import_module("editstop.generate")
harness = importlib.import_module("editstop.harness")

SETUP_REPEATS = 3
# Every prompt costs about the same work, so a small set repeated over
# many passes is as representative as a large one and gives each prompt
# more repeats to take its median from.
PROMPT_SET = 20
MIN_CALLS = 100  # per policy, so that p90 has ten samples beyond it
TRACE_PROMPTS = 40
# A pass takes 25 to 40 s, so a run makes one: with the set-up it keeps a
# run under a minute.
PIPELINE_PASSES = 1
# A pass has only four commands, so the reference kernel is timed several
# times after each to give the pass's median reference time enough samples.
# The commands run generate on a pool of four worker threads, and so does
# their reference kernel.
PIPELINE_REFS = 5
PIPELINE_REF_THREADS = 4

# name -> (sequence length, policies run on every prompt)
DECODE = {
    "decode_one_block": (32, ("fixed", "edit", "edit_freeze")),
    "decode_three_blocks": (64, ("fixed", "edit")),
}
PIPELINE = "experiment_pipeline"
WORKLOADS = (*DECODE, PIPELINE)


@dataclass
class Context:
    workload: str
    seed: int
    workspace: str
    ledger: Ledger
    config: ExperimentConfig
    recorder: Optional[Recorder] = None

    def request(self, request_id: str) -> None:
        if self.recorder is not None:
            self.recorder.begin_request(request_id)


@dataclass
class Phase:
    """What one measured phase saw; times are wall seconds."""

    times: dict[str, list[float]] = field(default_factory=dict)
    # round index -> wall seconds of each complete repeat of that round
    rounds: dict[int, list[float]] = field(default_factory=dict)
    # the same, in units of the median reference time of the repeat's pass
    ref_rounds: dict[int, list[float]] = field(default_factory=dict)
    refs: list[float] = field(default_factory=list)
    edit_steps: int = 0
    edit_blocks: int = 0
    agreed: int = 0
    compared: int = 0
    digest_records: list = field(default_factory=list)
    wall: float = 0.0

    def add_time(self, kind: str, seconds: float) -> None:
        self.times.setdefault(kind, []).append(seconds)

    def add_pass(self, rounds: list[tuple[int, float]], refs: list[float]) -> None:
        """Record one pass: its complete rounds as (index, wall seconds) and
        the reference times taken during it."""
        speed = statistics.median(refs)
        self.refs.extend(refs)
        for index, seconds in rounds:
            self.rounds.setdefault(index, []).append(seconds)
            self.ref_rounds.setdefault(index, []).append(seconds / speed)

    def repeats(self) -> list[float]:
        """The wall seconds of every complete repeat of every round."""
        return [seconds for repeats in self.rounds.values() for seconds in repeats]


def round_cost(rounds: dict[int, list[float]]) -> float:
    """The mean over rounds of each round's median complete repeat."""
    if not rounds:
        return float("nan")
    return statistics.fmean(statistics.median(repeats) for repeats in rounds.values())


def config_for(workload: str, seed: int) -> ExperimentConfig:
    """Default configuration; the pipeline draws its evaluation seeds from
    ``seed`` (seed 0 gives the default seeds 1, 2, 3)."""
    if workload == PIPELINE:
        return ExperimentConfig(seeds=[3 * seed + 1, 3 * seed + 2, 3 * seed + 3])
    return ExperimentConfig()


def setup(ctx: Context, repeats: int):
    """Train and load artifacts ``repeats`` times.

    Returns the last run directory, its artifacts, the seconds each set-up
    took and the seconds each ``cmd_train`` took.
    """
    totals, trains = [], []
    run_dir = artifacts = None
    for i in range(repeats):
        run_dir = os.path.join(ctx.workspace, f"setup{i}")
        ctx.request(f"setup{i}")
        start = perf_counter()
        info, train_s = ctx.ledger.call("cmd_train", harness.cmd_train, ctx.config, run_dir)
        if info is None:
            raise RuntimeError("cmd_train failed during set-up; nothing to measure")
        artifacts = harness.load_artifacts(ctx.config, run_dir)
        totals.append(perf_counter() - start)
        trains.append(train_s)
    return run_dir, artifacts, totals, trains


# --- decode workloads -----------------------------------------------------

def decode(ctx: Context, artifacts, seconds: float, prompts: int = PROMPT_SET,
           passes: Optional[int] = None) -> Phase:
    """Decode a set of ``prompts`` prompts, pass after pass, until ``seconds``
    have passed and each policy made MIN_CALLS calls, or ``passes`` times."""
    seq_len, kinds = DECODE[ctx.workload]
    cfg = ctx.config
    policies = {kind: cfg.policy_config(kind) for kind in kinds}
    mode = cfg.similarity_mode()
    task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
    rng = np.random.default_rng(ctx.seed)
    prompt_set = [task.sample(rng)[0] for _ in range(prompts)]

    def call(kind, prompt):
        return gen.generate(
            artifacts.model, prompt, seq_len, policies[kind], budget=cfg.budget,
            reasoning_map=artifacts.vector, mode=mode, freeze_basis=artifacts.basis,
        )

    phase = Phase()
    start = perf_counter()
    k = 0
    least = -(-MIN_CALLS // prompts)
    while more_passes(k, least, passes, start, seconds):
        rounds, refs = [], []
        for n, prompt in enumerate(prompt_set):
            results = {}
            round_s = 0.0
            for kind in kinds:
                label = f"pass {k} prompt {n} {kind}"
                ctx.request(label)
                result, elapsed = ctx.ledger.call(label, call, kind, prompt)
                round_s += elapsed
                results[kind] = result
                if result is None:
                    continue
                phase.add_time(kind, elapsed)
                ctx.ledger.check(label, outputs.generate_problems(
                    result, prompt, seq_len, cfg.budget, cfg.block_length,
                    cfg.vocab_size - 1, kind,
                ))
            if all(result is not None for result in results.values()):
                rounds.append((n, round_s))
            refs.append(reference_seconds())
            tally_decode(phase, results, first_pass=k == 0)
        phase.add_pass(rounds, refs)
        k += 1
    phase.wall = perf_counter() - start
    return phase


def more_passes(k: int, least: int, passes: Optional[int], start: float,
                seconds: float) -> bool:
    if passes is not None:
        return k < passes
    return k < least or perf_counter() - start < seconds


def tally_decode(phase: Phase, results: dict, first_pass: bool) -> None:
    edit, fixed = results.get("edit"), results.get("fixed")
    if edit is not None:
        phase.edit_steps += sum(edit.block_steps)
        phase.edit_blocks += len(edit.block_steps)
        if fixed is not None:
            phase.compared += 1
            phase.agreed += int(edit.tokens == fixed.tokens)
    if first_pass:
        phase.digest_records.append(
            [outputs.decode_record(kind, results.get(kind)) for kind in ("fixed", "edit")]
        )


# --- experiment pipeline --------------------------------------------------

PIPELINE_COMMANDS = ("infer", "calibrate", "certify", "ablate")


def run_command(name: str, config, run_dir: str):
    try:
        return getattr(harness, f"cmd_{name}")(config, run_dir=run_dir)
    except NoAdmissiblePairError:
        if name != "calibrate":
            raise
        # Documented outcome of calibrate under the default grids (CLI exit
        # 4); a success only if calibration.json is complete, checked later.
        return "no admissible pair"


def pipeline(ctx: Context, setup_dir: str, seconds: float,
             passes: Optional[int] = None) -> Phase:
    """Run the commands on a copy of the trained run directory, pass after
    pass, until ``seconds`` have passed and PIPELINE_PASSES passes ran, or
    ``passes`` times. Every pass is a repeat of one round."""
    phase = Phase()
    start = perf_counter()
    k = 0
    while more_passes(k, PIPELINE_PASSES, passes, start, seconds):
        run_dir = os.path.join(ctx.workspace, f"pass{k}")
        shutil.copytree(setup_dir, run_dir)
        round_s, refs = 0.0, []
        complete = True
        for name in PIPELINE_COMMANDS:
            label = f"pass {k} cmd_{name}"
            ctx.request(label)
            result, elapsed = ctx.ledger.call(label, run_command, name, ctx.config, run_dir)
            round_s += elapsed
            refs.extend(reference_seconds(PIPELINE_REF_THREADS) for _ in range(PIPELINE_REFS))
            if result is None:
                complete = False
                continue
            phase.add_time(name, elapsed)
            ctx.ledger.check(label, outputs.command_problems(name, run_dir, ctx.config))
        phase.add_pass([(0, round_s)] if complete else [], refs)
        lines = outputs.generation_lines(run_dir, [])
        for line in lines:
            phase.edit_steps += sum(line["block_steps"])
            phase.edit_blocks += len(line["block_steps"])
        if k == 0:
            phase.digest_records = [[line["output"], line["block_steps"]] for line in lines]
        shutil.rmtree(run_dir, ignore_errors=True)
        k += 1
    phase.wall = perf_counter() - start
    return phase


def measure(ctx: Context, setup_dir: str, artifacts, seconds: float,
            trace_size: bool = False) -> Phase:
    """The workload's measured phase; ``trace_size`` runs the fixed amount
    of work the traced run uses, so its counts repeat exactly."""
    if ctx.workload == PIPELINE:
        return pipeline(ctx, setup_dir, seconds, passes=1 if trace_size else None)
    if trace_size:
        return decode(ctx, artifacts, seconds, prompts=TRACE_PROMPTS, passes=1)
    return decode(ctx, artifacts, seconds)


def traced_run(ctx: Context, seconds: float):
    """Set up once under tracing, then run the fixed-size phase untraced and
    traced. Returns (recorder, untraced phase, traced phase)."""
    recorder = Recorder()
    ctx.recorder = recorder
    with Installed(recorder):
        setup_dir, artifacts, _, _ = setup(ctx, 1)
    ctx.recorder = None
    plain = measure(ctx, setup_dir, artifacts, seconds, trace_size=True)
    ctx.recorder = recorder
    with Installed(recorder):
        traced = measure(ctx, setup_dir, artifacts, seconds, trace_size=True)
    ctx.recorder = None
    return recorder, plain, traced


def median(values):
    return statistics.median(values) if values else float("nan")
