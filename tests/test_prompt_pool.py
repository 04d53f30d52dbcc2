"""Evaluation prompts decode on a fork pool (``harness._map_prompts``).

The pooled path is a fast path for the in-process one: the run directories
of ``infer``, ``calibrate`` and ``ablate`` must be the same bytes whichever
runs. ``pin_workers`` fixes the worker count, so a pool of two forks on
any host. A worker's typed error must reach the caller, and the CLI's exit
code, with its type, and no worker may outlive a command.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import shutil
import time
from functools import partial

import numpy as np
import pytest
from helpers import dir_bytes, pin_workers, small_config

from editstop import harness
from editstop.cli import EXIT_CONFIG, main
from editstop.config import ExperimentConfig
from editstop.errors import ConfigError, NoAdmissiblePairError
from editstop.harness import cmd_ablate, cmd_calibrate, cmd_infer, cmd_train
from editstop.tasks import make_task


@pytest.fixture(
    scope="module",
    params=[(0, "vector_cosine"), (0, "subspace_norm"), (1, "vector_cosine"), (1, "subspace_norm")],
    ids=lambda p: f"seed{p[0]}-{p[1]}",
)
def trained(request, tmp_path_factory):
    """Two seeds of 8 instances, 3 traced each: infer maps 16 prompts,
    calibrate 2 and ablate 8."""
    model_seed, similarity = request.param
    cfg = small_config(
        str(tmp_path_factory.mktemp("trained")),
        train_steps=60,
        seeds=[1, 2],
        model_seed=model_seed,
        similarity=similarity,
    )
    cmd_train(cfg)
    return cfg


def run_commands(cfg: ExperimentConfig, run_dir: str) -> dict[str, bytes]:
    """infer under edit and fixed, calibrate and ablate on a copy of the
    trained run; every file of the copy afterwards."""
    shutil.copytree(cfg.out_dir, run_dir)
    for kind in ("edit", "fixed"):
        cmd_infer(cfg, artifacts_dir=run_dir, run_dir=os.path.join(run_dir, kind), policy_kind=kind)
    with contextlib.suppress(NoAdmissiblePairError):
        cmd_calibrate(cfg, artifacts_dir=run_dir, run_dir=run_dir)
    cmd_ablate(cfg, run_dir)
    return dir_bytes(run_dir)


def test_pooled_run_directories_equal_in_process_ones(trained, tmp_path):
    pools = []
    with pytest.MonkeyPatch.context() as mp:
        pin_workers(mp, 1)
        alone = run_commands(trained, str(tmp_path / "alone"))
    with pytest.MonkeyPatch.context() as mp:
        pin_workers(mp, 2)
        get_context = multiprocessing.get_context
        mp.setattr(multiprocessing, "get_context", lambda *a: pools.append(a) or get_context(*a))
        pooled = run_commands(trained, str(tmp_path / "pooled"))
    assert pools == [("fork",)] * 4  # one pool per command
    assert sorted(pooled) == sorted(alone)
    for name, data in alone.items():
        assert pooled[name] == data, name
    # Traced instances and their trace CSVs are among the files compared.
    for kind in ("edit", "fixed"):
        traces = [n for n in alone if n.startswith(os.path.join(kind, "traces"))]
        assert sum(n.endswith("_pseudograd.csv") for n in traces) == 6
        assert sum(n.endswith("_divergence.csv") for n in traces) == (6 if kind == "edit" else 0)
    assert {"calibration.json", "ablation.json", "ablation.csv"} <= set(alone)


def slow_first(n: int, i: int) -> int:
    # Each prompt takes longer than the next, so later ones finish first.
    time.sleep(0.1 * (n - i))
    return i


def test_results_keep_the_input_order(monkeypatch):
    pin_workers(monkeypatch, 2)
    assert harness._map_prompts(partial(slow_first, 4), 4) == [0, 1, 2, 3]
    assert multiprocessing.active_children() == []


class TestWorkerCount:
    def test_one_per_cpu_at_most_one_per_prompt(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [harness._prompt_workers(n) for n in (1, 2, 3, 150)] == [1, 2, 3, 3]

    def test_in_process_without_affinity_or_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert harness._prompt_workers(8) == 2
        with monkeypatch.context() as mp:
            mp.delattr(os, "sched_getaffinity")
            assert harness._prompt_workers(8) == 1
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert harness._prompt_workers(8) == 1

    def test_one_worker_runs_in_process(self, monkeypatch):
        pin_workers(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "get_context", None)  # any pool would fail
        assert harness._map_prompts(lambda i: i * i, 3) == [0, 1, 4]


class TestWorkerFailure:
    """A ConfigError raised by one instance's decode in a worker."""

    @pytest.fixture
    def failing(self, tmp_path, monkeypatch):
        cfg = small_config(str(tmp_path / "trained"), train_steps=60)
        cmd_train(cfg)
        task = make_task(cfg.task, cfg.vocab_size, cfg.block_length)
        bad = harness._sample_instances(task, (1, 101), cfg.eval_instances)[5][0]
        generate = harness.generate

        def decode(model, prompt, *args, **kwargs):
            if np.array_equal(prompt, bad):
                raise ConfigError("instance 5 refused")
            return generate(model, prompt, *args, **kwargs)

        pin_workers(monkeypatch, 2)
        cmd_infer(cfg, artifacts_dir=cfg.out_dir, run_dir=str(tmp_path / "normal"))
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(harness, "generate", decode)
        return cfg

    def test_reaches_the_caller_with_its_type(self, failing, tmp_path):
        with pytest.raises(ConfigError, match="instance 5 refused"):
            cmd_infer(failing, artifacts_dir=failing.out_dir, run_dir=str(tmp_path / "run"))
        assert multiprocessing.active_children() == []
        assert not os.path.exists(os.path.join(str(tmp_path / "run"), harness.REPORT_FILE))

    def test_cli_exits_with_its_documented_code(self, failing, tmp_path, capsys):
        path = tmp_path / "exp.txt"
        path.write_text(failing.to_text())
        argv = ["infer", "--config", str(path), "--artifacts", failing.out_dir]
        assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert "instance 5 refused" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
