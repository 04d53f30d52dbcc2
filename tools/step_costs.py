"""Median decode time per policy, with and without the cost of ``forward``.

Trains the default configuration once into a temporary directory, loads
its checkpoint and draws ``PROMPTS`` prompts of the default task. Each
prompt is decoded ``REPEATS`` times under every policy (the policies in
turn, so drift hits them alike) in two modes:

- ``full``: the decode as it runs;
- ``no forward``: ``generate.forward`` memoized on its inputs, with every
  distinct forward computed once beforehand, so what is left is the work
  around the forwards: ranking, commits, frames, scoring, the monitor and
  the freezer.

A prompt's figure is its median repeat; the printed figure of a policy
is the mean of those medians over the prompts, in ms per decode, with
the ``no forward`` share of ``full``. The memoized decodes must give the
same tokens and block steps as the full ones, or the script exits 1.

Usage::

    python3 tools/step_costs.py
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from editstop.config import ExperimentConfig  # noqa: E402
from editstop.harness import cmd_train, load_artifacts  # noqa: E402
from editstop.tasks import make_task  # noqa: E402

# The package re-exports the function ``generate`` under the submodule's
# name, so the submodule is taken from the import system.
gen = importlib.import_module("editstop.generate")

POLICIES = ("fixed", "edit", "edit_freeze")
PROMPTS = 50
REPEATS = 7
SEQ_LEN = 32
PROMPT_SEED = 0


def memoized(real):
    """``real`` with its results kept per (tokens, taps, record, first_row)."""
    cache = {}

    def forward(model, tokens, taps=(), record=False, first_row=0, weights=None):
        tokens = np.asarray(tokens)
        key = (tokens.tobytes(), tokens.shape, tuple(taps), record, first_row)
        if key not in cache:
            cache[key] = real(model, tokens, taps=taps, record=record, first_row=first_row,
                              weights=weights)
        return cache[key]

    return forward


def main() -> int:
    with tempfile.TemporaryDirectory() as run_dir:
        cfg = ExperimentConfig(out_dir=run_dir)
        cmd_train(cfg)
        artifacts = load_artifacts(cfg, run_dir)
    task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
    rng = np.random.default_rng(PROMPT_SEED)
    prompts = [task.sample(rng)[0] for _ in range(PROMPTS)]
    policies = {kind: cfg.policy_config(kind) for kind in POLICIES}

    def decode(kind, prompt):
        return gen.generate(
            artifacts.model, prompt, SEQ_LEN, policies[kind], budget=cfg.budget,
            reasoning_map=artifacts.vector, mode=cfg.similarity_mode(),
            freeze_basis=artifacts.basis,
        )

    def timed_pass():
        """Per policy, per prompt: the repeats' wall seconds; and the outputs."""
        times = {kind: [[] for _ in prompts] for kind in POLICIES}
        outputs = {}
        for _ in range(REPEATS):
            for n, prompt in enumerate(prompts):
                for kind in POLICIES:
                    start = perf_counter()
                    result = decode(kind, prompt)
                    times[kind][n].append(perf_counter() - start)
                    outputs[kind, n] = (result.tokens, result.block_steps)
        return times, outputs

    real = gen.forward
    full, want = timed_pass()
    gen.forward = memoized(real)
    try:
        for n, prompt in enumerate(prompts):  # fill the cache untimed
            for kind in POLICIES:
                decode(kind, prompt)
        bare, got = timed_pass()
    finally:
        gen.forward = real
    if got != want:
        print("step_costs: memoized decodes changed an output", file=sys.stderr)
        return 1

    def cost(times):
        return 1e3 * statistics.fmean(statistics.median(t) for t in times)

    print(f"{PROMPTS} prompts, seq_len {SEQ_LEN}, median of {REPEATS} repeats;"
          " ms per decode")
    print(f"{'policy':<12} {'full':>8} {'no forward':>11} {'share':>7}")
    for kind in POLICIES:
        f, b = cost(full[kind]), cost(bare[kind])
        print(f"{kind:<12} {f:8.3f} {b:11.3f} {b / f:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
