"""Tests for the command-line interface and its exit codes."""

from __future__ import annotations

import json
import os
import shutil
import struct

import pytest
from helpers import dir_bytes

from editstop import harness
from editstop.cli import EXIT_ARTIFACT, EXIT_CONFIG, EXIT_NO_PAIR, EXIT_OK, main
from editstop.generate import POLICY_KINDS
from editstop.harness import (
    BAND_FILE,
    CHECKPOINT_FILE,
    METADATA_FILE,
    REPORT_FILE,
    TRACES_DIR,
)
from editstop.metaformat import load_metadata, persist_metadata, read_framed, write_framed
from editstop.model import CKPT_MAGIC, CKPT_VERSION, load_checkpoint, save_checkpoint

SMALL = """\
vocab_size = 12
d_model = 16
n_heads = 2
n_blocks = 2
lora_rank = 3
block_length = 4
max_blocks = 2
seq_len = 8
budget = 12
train_steps = 120
eval_instances = 6
seeds = [1]
subspace_k = 2
trace_retention = 2
"""


@pytest.fixture(scope="module")
def trained_cli(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    run_dir = str(root / "run")
    cfg_path = str(root / "exp.txt")
    with open(cfg_path, "w") as fh:
        fh.write(SMALL + f'out_dir = "{run_dir}"\n')
    assert main(["train", "--config", cfg_path]) == EXIT_OK
    return cfg_path, run_dir


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.txt")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("policy = oracle\n")
        assert main(["infer", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["delta_tok = 0.05", "omega_tok = 6", "tau_sub = 1.0"])
    def test_freezer_threshold_key_exits_two(self, tmp_path, capsys, line):
        p = tmp_path / "exp.txt"
        p.write_text(SMALL + line + "\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")

    def test_missing_artifacts(self, tmp_path, trained_cli, capsys):
        cfg_path, _ = trained_cli
        empty = str(tmp_path / "nothing")
        code = main(["infer", "--config", cfg_path, "--artifacts", empty, "--out", empty])
        assert code == EXIT_ARTIFACT
        assert "artifact error" in capsys.readouterr().err

    def test_calibrate_default_grids_exit_four(self, trained_cli, tmp_path, capsys):
        cfg_path, run_dir = trained_cli
        out = str(tmp_path / "cal")
        code = main(
            ["calibrate", "--config", cfg_path, "--artifacts", run_dir, "--out", out]
        )
        assert code == EXIT_NO_PAIR
        assert "calibration failed" in capsys.readouterr().err
        assert os.path.exists(os.path.join(out, "calibration.json"))

    def test_ablate_without_its_summaries_exits_three(self, trained_cli, tmp_path, capsys):
        cfg_path, run_dir = trained_cli
        out = str(tmp_path / "old")
        os.makedirs(out)
        shutil.copy(os.path.join(run_dir, CHECKPOINT_FILE), out)
        vectors, bases = load_metadata(os.path.join(run_dir, METADATA_FILE))
        persist_metadata(vectors[:1], bases, os.path.join(out, METADATA_FILE))
        assert main(["ablate", "--config", cfg_path, "--out", out]) == EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert "artifact error" in err
        assert "block1.q.lora_a" in err

    @pytest.mark.parametrize("policy", ["fixed", "edit", "edit_freeze"])
    @pytest.mark.parametrize("similarity", ["vector_cosine", "subspace_norm"])
    def test_basis_k_other_than_subspace_k_exits_three(
        self, trained_cli, tmp_path, capsys, policy, similarity
    ):
        # The run was trained at subspace_k = 2.
        _, run_dir = trained_cli
        cfg_path = tmp_path / "k3.txt"
        cfg_path.write_text(
            SMALL.replace("subspace_k = 2", "subspace_k = 3") + f"similarity = {similarity}\n"
        )
        out = str(tmp_path / "infer")
        code = main(
            ["infer", "--config", str(cfg_path), "--artifacts", run_dir, "--out", out,
             "--policy", policy]
        )
        assert code == EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert "artifact error" in err
        assert "subspace_k=3" in err


class TestBudgetLimits:
    def test_calibrate_with_no_step_after_a_full_block_writes_its_file(self, tmp_path, capsys):
        # At budget 16 each 16-slot block of the default config fills at
        # the last step, so no block leaves 3 steps to measure contraction
        # on: alpha_hat falls back to 0.0 with a note, as for settled runs.
        run_dir = tmp_path / "run"
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(f'budget = 16\ntrain_steps = 20\nout_dir = "{run_dir}"\n')
        assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["calibrate", "--config", str(cfg_path)]) in (EXIT_NO_PAIR, EXIT_OK)
        payload = json.loads((run_dir / "calibration.json").read_text())
        assert payload["alpha_hat"] == 0.0
        assert "3 steps" in payload["alpha_note"]
        assert payload["samples_used"] is None
        assert payload["skipped_small_denominators"] is None
        assert len(payload["utility_table"]) == 24

    def test_ablate_at_budget_one_exits_two_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL.replace("budget = 12", "budget = 1"))
        code = main(["ablate", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "no step divergence" in capsys.readouterr().err
        assert not out.exists()


def artifacts_with(run_dir: str, dest: str, band) -> str:
    """A copy of ``run_dir``'s checkpoint and metadata with ``band`` as the
    stored band file."""
    os.makedirs(dest)
    for name in (CHECKPOINT_FILE, METADATA_FILE):
        shutil.copy(os.path.join(run_dir, name), dest)
    with open(os.path.join(dest, BAND_FILE), "w") as fh:
        json.dump(band, fh)
    return dest


class TestMalformedArtifacts:
    @pytest.mark.parametrize(
        "band",
        [
            {"band": {"mu": 1.0}},
            {"band": {"mu": 1.0, "sigma": -1, "n_steps": 5}},
            {"band": {"mu": 1.0, "sigma": 0.5, "n_steps": 1}},
            [1.0, 0.5, 5],
            # Strings, bools and fractional step counts are not coerced.
            {"band": {"mu": "0.01", "sigma": True, "n_steps": 2.9}},
        ],
        ids=["missing_sigma", "negative_sigma", "one_step", "list", "non_numbers"],
    )
    def test_malformed_band_exits_three(self, trained_cli, tmp_path, capsys, band):
        cfg_path, run_dir = trained_cli
        artifacts = artifacts_with(run_dir, str(tmp_path / "art"), band)
        code = main(
            ["infer", "--config", cfg_path, "--artifacts", artifacts,
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_ARTIFACT
        assert os.path.join(artifacts, BAND_FILE) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "calibration",
        [
            {"alpha_hat": "x"},
            {"margin_quantile": "abc"},
            [0.5, 0.1],
            # A quoted quantile and a bool contraction are not coerced.
            {"margin_quantile": "0.5", "alpha_hat": False},
        ],
        ids=["text_alpha_hat", "text_margin_quantile", "list", "non_numbers"],
    )
    def test_malformed_calibration_exits_three(
        self, trained_cli, tmp_path, capsys, calibration
    ):
        cfg_path, run_dir = trained_cli
        path = str(tmp_path / "calibration.json")
        with open(path, "w") as fh:
            json.dump(calibration, fh)
        code = main(
            ["infer", "--config", cfg_path, "--artifacts", run_dir,
             "--out", str(tmp_path / "out"), "--calibration", path]
        )
        assert code == EXIT_ARTIFACT
        assert path in capsys.readouterr().err

    def test_certificate_without_margin_exits_three(self, trained_cli, tmp_path, capsys):
        cfg_path, _ = trained_cli
        traces = tmp_path / "run" / TRACES_DIR
        traces.mkdir(parents=True)
        certificate = {"argmax_index": 0, "margin_step": 7, "support_size": 4, "stop_step": 7}
        (traces / "seed1_inst000.json").write_text(
            json.dumps({"blocks": [{"stopped_early": True, "certificate": certificate}]})
        )
        code = main(["certify", "--config", cfg_path, "--out", str(tmp_path / "run")])
        assert code == EXIT_ARTIFACT
        assert "seed1_inst000.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report",
        [
            [{"seed": 1, "accuracy": 0.5}],
            {"policy": "edit", "per_seed": [{"seed": 1, "avg_steps": 7.0}]},
        ],
        ids=["list", "seed_without_accuracy"],
    )
    def test_malformed_report_exits_three(self, tmp_path, capsys, report):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / REPORT_FILE).write_text(json.dumps(report))
        code = main(["report", "--out", str(tmp_path / "merged"), str(run_dir)])
        assert code == EXIT_ARTIFACT
        assert os.path.join(str(run_dir), REPORT_FILE) in capsys.readouterr().err

    # Block 1 of the SMALL config: positions 4..7, block_length 4, budget 12.
    GOOD_CERTIFICATE = {
        "argmax_index": 5, "margin": "0.5", "margin_step": 7, "support_size": 4, "stop_step": 7
    }

    def certify_trace(self, cfg_path, tmp_path, certificate, block_index=1) -> int:
        traces = tmp_path / "run" / TRACES_DIR
        traces.mkdir(parents=True)
        block = {"block_index": block_index, "stopped_early": True, "certificate": certificate}
        (traces / "seed1_inst000.json").write_text(json.dumps({"blocks": [block]}))
        return main(["certify", "--config", cfg_path, "--out", str(tmp_path / "run")])

    def test_well_formed_certificate_is_read(self, trained_cli, tmp_path):
        # The margin is stored as text (``fmt_real``) and read as such.
        assert self.certify_trace(trained_cli[0], tmp_path, self.GOOD_CERTIFICATE) == EXIT_OK

    @pytest.mark.parametrize(
        "changes",
        [
            {"argmax_index": True},
            {"margin_step": 7.9},
            {"support_size": "4"},
            {"stop_step": 7.0},
            {"margin": True},
            {"block_index": "1"},
        ],
        ids=["bool_argmax_index", "fractional_margin_step",
             "text_support_size", "float_stop_step", "bool_margin", "text_block_index"],
    )
    def test_mistyped_certificate_exits_three(self, trained_cli, tmp_path, capsys, changes):
        certificate = {**self.GOOD_CERTIFICATE, **changes}
        block_index = certificate.pop("block_index", 1)
        code = self.certify_trace(trained_cli[0], tmp_path, certificate, block_index)
        assert code == EXIT_ARTIFACT
        assert "seed1_inst000.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes",
        [
            {"block_index": -1},
            {"block_index": 2},
            {"stop_step": 0},
            {"stop_step": 13},
            {"margin_step": 0},
            {"margin_step": 13},
            {"support_size": 0},
            {"support_size": 5},
            {"argmax_index": 3},
            {"argmax_index": 8},
            {"block_index": -4, "argmax_index": 99, "margin_step": -2, "stop_step": -3},
        ],
        ids=["negative_block", "block_past_max_blocks", "stop_step_zero", "stop_step_past_budget",
             "margin_step_zero", "margin_step_past_budget", "empty_support",
             "support_past_block_length", "argmax_before_block", "argmax_after_block",
             "all_out_of_range"],
    )
    def test_out_of_range_certificate_exits_three(self, trained_cli, tmp_path, capsys, changes):
        certificate = {**self.GOOD_CERTIFICATE, **changes}
        block_index = certificate.pop("block_index", 1)
        code = self.certify_trace(trained_cli[0], tmp_path, certificate, block_index)
        assert code == EXIT_ARTIFACT
        assert "seed1_inst000.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes",
        [
            {"block_index": 0, "argmax_index": 0},
            {"argmax_index": 7, "stop_step": 12, "margin_step": 12},
            {"argmax_index": 4, "stop_step": 1, "margin_step": 1, "support_size": 1, "margin": "1"},
        ],
        ids=["first_block", "last_position_and_step", "first_position_and_step"],
    )
    def test_range_edges_are_read(self, trained_cli, tmp_path, changes):
        certificate = {**self.GOOD_CERTIFICATE, **changes}
        block_index = certificate.pop("block_index", 1)
        assert self.certify_trace(trained_cli[0], tmp_path, certificate, block_index) == EXIT_OK


class TestUnusableArtifacts:
    """On-disk state that the harness cannot create, write or use exits 3
    with an artifact error, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--config", "{cfg}", "--out", "{file}"],
            ["train", "--config", "{cfg}", "--out", "{dir_with_config_dir}"],
            ["infer", "--config", "{cfg}", "--artifacts", "{run}", "--out", "{file}/x"],
            ["calibrate", "--config", "{cfg}", "--artifacts", "{run}", "--out", "{file}"],
            ["report", "--out", "{file}", "{run}"],
        ],
        ids=["train_out_is_a_file", "train_config_txt_is_a_directory", "infer_out_under_a_file",
             "calibrate_out_is_a_file", "report_out_is_a_file"],
    )
    def test_run_directory_that_cannot_be_written_exits_three(
        self, trained_cli, tmp_path, capsys, argv
    ):
        cfg_path, run_dir = trained_cli
        regular = tmp_path / "regular"
        regular.write_text("")
        (tmp_path / "blocked" / "config.txt").mkdir(parents=True)
        paths = {"cfg": cfg_path, "run": run_dir, "file": str(regular),
                 "dir_with_config_dir": str(tmp_path / "blocked")}
        code = main([arg.format(**paths) for arg in argv])
        assert code == EXIT_ARTIFACT
        assert "artifact error: cannot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob",
        [
            lambda cfg: {**cfg, "dropout": 0.1},
            lambda cfg: {**cfg, "vocab_size": 2},
            lambda cfg: {**cfg, "seed": -1},
            lambda cfg: list(cfg),
            lambda cfg: "not json",
        ],
        ids=["extra_key", "refused_value", "negative_seed", "not_an_object", "not_json"],
    )
    def test_checkpoint_with_a_config_the_model_refuses_exits_three(
        self, trained_cli, tmp_path, capsys, blob
    ):
        # A validly framed checkpoint whose config blob is rewritten.
        cfg_path, run_dir = trained_cli
        art = tmp_path / "art"
        art.mkdir()
        shutil.copy(os.path.join(run_dir, METADATA_FILE), art)
        body = read_framed(os.path.join(run_dir, CHECKPOINT_FILE), CKPT_MAGIC, CKPT_VERSION)
        old = json.loads(body.take(body.u32()))
        new = blob(old)
        new = (new if isinstance(new, str) else json.dumps(new)).encode()
        rest = body.data[body.pos :]
        write_framed(str(art / CHECKPOINT_FILE), CKPT_MAGIC, CKPT_VERSION,
                     struct.pack("<I", len(new)) + new + rest)
        code = main(["infer", "--config", cfg_path, "--artifacts", str(art),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ARTIFACT
        assert "checkpoint holds no valid model config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, similarity, policy",
        [
            ("infer", "subspace_norm", "edit"),
            ("calibrate", "subspace_norm", None),
            ("infer", "vector_cosine", "edit_freeze"),
        ],
        ids=["infer_subspace_norm", "calibrate_subspace_norm", "infer_edit_freeze"],
    )
    def test_metadata_without_a_basis_exits_three(
        self, trained_cli, tmp_path, capsys, command, similarity, policy
    ):
        _, run_dir = trained_cli
        art = tmp_path / "art"
        art.mkdir()
        shutil.copy(os.path.join(run_dir, CHECKPOINT_FILE), art)
        vectors, _ = load_metadata(os.path.join(run_dir, METADATA_FILE))
        persist_metadata(vectors, [], str(art / METADATA_FILE))
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL + f"similarity = {similarity}\n")
        argv = [command, "--config", str(cfg_path), "--artifacts", str(art),
                "--out", str(tmp_path / "out")]
        code = main(argv + (["--policy", policy] if policy else []))
        assert code == EXIT_ARTIFACT
        assert "metadata has no subspace basis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, misfit",
        [
            (lambda m: m.lora.pop("block0.k.lora_a"), "lora arrays misfit: ['block0.k.lora_a"),
            (lambda m: m.lora.update({"block0.k.lora_c": m.lora["block0.k.lora_a"]}),
             "lora arrays misfit: ['block0.k.lora_c"),
            (lambda m: m.base.update({"block1.w1": m.base["block1.w1"][:, :-1]}),
             "base arrays misfit: ['block1.w1"),
        ],
        ids=["missing_array", "extra_array", "narrowed_array"],
    )
    def test_checkpoint_arrays_that_misfit_its_config_exit_three(
        self, trained_cli, tmp_path, capsys, change, misfit
    ):
        # A checkpoint re-saved with one array missing, added or narrowed:
        # its own config needs other arrays than the ones it holds.
        cfg_path, run_dir = trained_cli
        art = tmp_path / "art"
        art.mkdir()
        shutil.copy(os.path.join(run_dir, METADATA_FILE), art)
        model = load_checkpoint(os.path.join(run_dir, CHECKPOINT_FILE))
        change(model)
        save_checkpoint(model, str(art / CHECKPOINT_FILE))
        code = main(["infer", "--config", cfg_path, "--artifacts", str(art),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_ARTIFACT
        assert f"artifact error: checkpoint {misfit}" in capsys.readouterr().err

    def test_json_artifact_that_is_not_utf8_exits_three(self, trained_cli, tmp_path, capsys):
        cfg_path, _ = trained_cli
        traces = tmp_path / "run" / TRACES_DIR
        traces.mkdir(parents=True)
        (traces / "seed1_inst000.json").write_bytes(b"\xff\xfe{")
        code = main(["certify", "--config", cfg_path, "--out", str(tmp_path / "run")])
        assert code == EXIT_ARTIFACT
        assert "malformed JSON" in capsys.readouterr().err


class TestNonIntegerConfig:
    @pytest.mark.parametrize(
        "old, new",
        [
            ("train_steps = 120", "train_steps = 1.5"),
            ("eval_instances = 6", "eval_instances = 6\nbatch_size = 2.5"),
            ("block_length = 4", "block_length = 4.0"),
            ("seeds = [1]", "seeds = [1.7]"),
            ("eval_instances = 6", "eval_instances = 6\nomega = 2.5"),
        ],
        ids=["train_steps", "batch_size", "block_length", "seeds", "omega"],
    )
    def test_non_integer_value_exits_two(self, tmp_path, capsys, old, new):
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL.replace(old, new))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "takes integers only" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")


class TestMistypedConfig:
    """A value that does not fit its key's annotation, or a learning rate
    that is not positive, exits 2 before anything is written."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("strict_certificates = no", "strict_certificates takes true or false"),
            ('strict_certificates = "false"', "strict_certificates takes true or false"),
            ("delta = true", "delta takes a number"),
            ("out_dir = 5", "out_dir takes a string"),
            ("learning_rate = 0", "learning_rate must be positive"),
            ("learning_rate = -1", "learning_rate must be positive"),
            ('learning_rate = "x"', "learning_rate takes a number"),
        ],
        ids=[
            "strict_bare_no",
            "strict_quoted_false",
            "delta_true",
            "out_dir_number",
            "learning_rate_zero",
            "learning_rate_negative",
            "learning_rate_string",
        ],
    )
    def test_mistyped_value_exits_two(self, tmp_path, capsys, line, message):
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL + line + "\n")
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")


class TestOversizedConfig:
    """A config whose decode or freeze basis does not fit its model exits 2
    before anything is written, rather than failing after training."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("lora_rank = 3", "lora_rank = 1", "subspace_k 2 exceeds adapter rank 1"),
            ("subspace_k = 2", "subspace_k = 4", "subspace_k 4 exceeds adapter rank 3"),
            ("max_blocks = 2", "max_blocks = 1", "seq_len 8 exceeds 4 model positions"),
        ],
        ids=["lora_rank_below_subspace_k", "subspace_k_above_lora_rank", "one_block"],
    )
    def test_oversized_value_exits_two(self, tmp_path, capsys, old, new, message):
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL.replace(old, new))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")


class TestNegativeSeeds:
    """A negative seed is a configuration error (exit 2), whether the
    config file or ``--seed`` gives it, not a numpy traceback; so is an
    evaluation seed given twice, before any output is written."""

    def test_negative_model_seed_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL + "model_seed = -1\n")
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds, flags",
        [("[-1]", []), ("[1]", ["--seed", "-1"]), ("[1]", ["--seed", "2", "--seed", "-3"])],
        ids=["config_seeds", "seed_flag", "second_seed_flag"],
    )
    def test_negative_evaluation_seed_exits_two(self, trained_cli, tmp_path, capsys, seeds, flags):
        _, run_dir = trained_cli
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL.replace("seeds = [1]", f"seeds = {seeds}"))
        code = main(["infer", "--config", str(cfg_path), "--artifacts", run_dir,
                     "--out", str(tmp_path / "out"), *flags])
        assert code == EXIT_CONFIG
        assert "seeds takes one or more integers >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds, flags",
        [("[1, 1, 2]", []), ("[1]", ["--seed", "1", "--seed", "1"]),
         ("[1]", ["--seed", "2", "--seed", "3", "--seed", "2"])],
        ids=["config_seeds", "seed_flag", "third_seed_flag"],
    )
    def test_repeated_evaluation_seed_exits_two(self, trained_cli, tmp_path, capsys, seeds, flags):
        _, run_dir = trained_cli
        cfg_path = tmp_path / "exp.txt"
        cfg_path.write_text(SMALL.replace("seeds = [1]", f"seeds = {seeds}"))
        out = tmp_path / "out"
        code = main(["infer", "--config", str(cfg_path), "--artifacts", run_dir,
                     "--out", str(out), *flags])
        assert code == EXIT_CONFIG
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not out.exists()


class TestCommands:
    def test_train_prints_loss(self, trained_cli, capsys):
        cfg_path, run_dir = trained_cli
        assert os.path.exists(os.path.join(run_dir, "checkpoint.editckpt"))

    def test_infer_default_policy(self, trained_cli, capsys):
        cfg_path, run_dir = trained_cli
        assert main(["infer", "--config", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "policy edit" in out
        assert os.path.exists(os.path.join(run_dir, REPORT_FILE))

    def test_infer_policy_and_seed_overrides(self, trained_cli, tmp_path, capsys):
        cfg_path, run_dir = trained_cli
        out = str(tmp_path / "fixed")
        code = main(
            [
                "infer",
                "--config",
                cfg_path,
                "--artifacts",
                run_dir,
                "--out",
                out,
                "--policy",
                "fixed",
                "--seed",
                "7",
                "--seed",
                "8",
            ]
        )
        assert code == EXIT_OK
        report = json.load(open(os.path.join(out, REPORT_FILE)))
        assert report["policy"] == "fixed"
        assert [s["seed"] for s in report["per_seed"]] == [7, 8]
        assert report["mean"]["avg_steps"] == 12.0

    def test_policy_spellings_write_the_same_report(self, trained_cli, tmp_path):
        # ``--policy`` takes every kind a config file's ``policy`` takes, and
        # either way of naming a kind writes the same report.
        cfg_path, run_dir = trained_cli
        with open(cfg_path) as fh:
            base = fh.read()
        for policy in POLICY_KINDS:
            named = tmp_path / f"{policy}.txt"
            named.write_text(base + f"policy = {policy}\n")
            reports = []
            for config, flag in ((cfg_path, ["--policy", policy]), (str(named), [])):
                out = str(tmp_path / policy / ("flag" if flag else "config"))
                argv = ["infer", "--config", config, "--artifacts", run_dir, "--out", out]
                assert main(argv + flag) == EXIT_OK
                with open(os.path.join(out, REPORT_FILE), "rb") as fh:
                    reports.append(fh.read())
            assert reports[0] == reports[1]
            assert json.loads(reports[0])["policy"] == policy

    def test_hyphenated_policy_exits_two(self, trained_cli, tmp_path, capsys):
        # ``edit_freeze`` has one spelling, as a flag and as a config value.
        cfg_path, run_dir = trained_cli
        out = str(tmp_path / "out")
        argv = ["infer", "--config", cfg_path, "--artifacts", run_dir, "--out", out]
        with pytest.raises(SystemExit) as caught:
            main(argv + ["--policy", "edit-freeze"])
        assert caught.value.code == EXIT_CONFIG
        assert "invalid choice: 'edit-freeze'" in capsys.readouterr().err
        named = tmp_path / "named.txt"
        named.write_text(SMALL + "policy = edit-freeze\n")
        assert main(["infer", "--config", str(named), "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(repr(kind) in err for kind in POLICY_KINDS)
        assert not os.path.exists(out)

    def test_ablate_reads_trained_run(self, trained_cli, capsys, monkeypatch):
        cfg_path, run_dir = trained_cli

        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained again")

        monkeypatch.setattr(harness, "sft_train", no_training)
        assert main(["ablate", "--config", cfg_path]) == EXIT_OK
        assert "12 cells" in capsys.readouterr().out
        assert os.path.exists(os.path.join(run_dir, "ablation.json"))

    @pytest.mark.parametrize("similarity", ["subspace_norm", "subspace_cosine"])
    def test_ablate_under_subspace_similarity(self, trained_cli, tmp_path, similarity):
        # The cells score row summaries, which are EvolutionVectors, so the
        # configured similarity does not change them.
        _, run_dir = trained_cli
        ablated = {}
        for name, extra in (("default", ""), (similarity, f"similarity = {similarity}\n")):
            out = tmp_path / name
            out.mkdir()
            for artifact in (CHECKPOINT_FILE, METADATA_FILE, BAND_FILE):
                shutil.copy(os.path.join(run_dir, artifact), out)
            cfg_path = tmp_path / f"{name}.txt"
            cfg_path.write_text(SMALL + extra)
            assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            ablated[name] = (out / "ablation.json").read_bytes()
        assert ablated[similarity] == ablated["default"]

    def test_certify_after_infer(self, trained_cli, capsys):
        cfg_path, run_dir = trained_cli
        main(["infer", "--config", cfg_path])
        capsys.readouterr()
        assert main(["certify", "--config", cfg_path]) == EXIT_OK
        assert "stops" in capsys.readouterr().out
        assert os.path.exists(os.path.join(run_dir, "certificates.json"))

    @pytest.mark.parametrize("alpha_hat", [1.0, 0.5])
    def test_refused_alpha_hat_is_named_on_stderr(self, trained_cli, tmp_path, capsys, alpha_hat):
        # infer and certify refuse an alpha_hat outside [0, 1) as a file
        # without one, and each says so in one stderr line naming the file
        # and the value; they still exit 0 and write what they write
        # without the file, byte for byte.
        cfg_path, run_dir = trained_cli
        cal_path = str(tmp_path / "cal.json")
        with open(cal_path, "w") as fh:
            json.dump({"alpha_hat": alpha_hat}, fh)
        runs = {}
        for name, calibration in (("plain", []), ("calibrated", ["--calibration", cal_path])):
            out = str(tmp_path / name)
            common = ["--config", cfg_path, "--out", out, *calibration]
            assert main(["infer", *common, "--artifacts", run_dir]) == EXIT_OK
            infer_err = capsys.readouterr().err
            assert main(["certify", *common]) == EXIT_OK
            runs[name] = (infer_err, capsys.readouterr().err, dir_bytes(out))
        line = f"{cal_path}: alpha_hat {alpha_hat!r} is outside [0, 1);"
        infer_err, certify_err, files = runs["calibrated"]
        assert runs["plain"][:2] == ("", "")
        if alpha_hat < 1.0:
            assert (infer_err, certify_err) == ("", "")
            assert files != runs["plain"][2]
        else:
            for err in (infer_err, certify_err):
                assert len(err.splitlines()) == 1 and err.startswith(line)
            assert files == runs["plain"][2]
            certs = json.loads(files["certificates.json"])["certificates"]
            assert certs and {c["certificate"]["global_pass"] for c in certs} == {None}

    def test_report_merges(self, trained_cli, tmp_path, capsys):
        cfg_path, run_dir = trained_cli
        main(["infer", "--config", cfg_path])
        out = str(tmp_path / "merged")
        assert main(["report", "--out", out, run_dir]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "consolidated.csv"))

    def test_strict_flag_accepted(self, trained_cli, tmp_path):
        cfg_path, run_dir = trained_cli
        out = str(tmp_path / "strict")
        code = main(
            [
                "infer",
                "--config",
                cfg_path,
                "--artifacts",
                run_dir,
                "--out",
                out,
                "--strict-certificates",
            ]
        )
        assert code == EXIT_OK
