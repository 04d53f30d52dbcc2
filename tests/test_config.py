"""Tests for the flat key = value experiment configuration."""

from __future__ import annotations

import dataclasses

import pytest

from editstop.alignment import SimilarityMode
from editstop.config import ExperimentConfig
from editstop.errors import ConfigError
from editstop.generate import POLICY_KINDS
from editstop.harness import cmd_infer


class TestDefaults:
    def test_default_construction(self):
        cfg = ExperimentConfig()
        assert cfg.task == "copy_reverse"
        assert cfg.policy == "edit"
        assert cfg.seeds == [1, 2, 3]
        assert cfg.seq_len == 2 * cfg.block_length

    def test_component_builders_agree_with_fields(self):
        cfg = ExperimentConfig(delta=0.1, omega=9, tau_blk=2.0, subspace_k=2)
        stop = cfg.stop_config()
        assert (stop.delta, stop.omega, stop.tau_blk) == (0.1, 9, 2.0)
        freeze = cfg.policy_config().freeze
        assert (freeze.delta_tok, freeze.omega_tok) == (0.05, 6)
        assert freeze.k == 2
        model = cfg.model_config()
        assert model.vocab_size == cfg.vocab_size
        assert model.seed == cfg.model_seed

    def test_policy_config_kind_override(self):
        cfg = ExperimentConfig(policy="edit")
        assert cfg.policy_config("fixed").kind == "fixed"
        assert cfg.policy_config("edit_freeze").kind == "edit_freeze"

    def test_similarity_mode_variants(self):
        assert (
            ExperimentConfig(similarity="vector_cosine").similarity_mode()
            is SimilarityMode.VECTOR_COSINE
        )
        sub = ExperimentConfig(similarity="subspace_cosine", subspace_k=2)
        assert sub.similarity_mode() is SimilarityMode.SUBSPACE_COSINE

    def test_strict_flag_reaches_policy(self):
        cfg = ExperimentConfig(strict_certificates=True)
        assert cfg.policy_config().strict_certificates is True


class TestValidation:
    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="translate")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(policy="oracle")

    def test_hyphenated_policy_refused(self):
        # ``edit_freeze`` has one spelling, and the refusal names every kind.
        for call in (lambda: ExperimentConfig(policy="edit-freeze"),
                     lambda: ExperimentConfig.from_text("policy = edit-freeze\n"),
                     lambda: ExperimentConfig().policy_config("edit-freeze")):
            with pytest.raises(ConfigError, match="'edit-freeze'") as caught:
                call()
            assert all(repr(kind) in str(caught.value) for kind in POLICY_KINDS)

    def test_unknown_policy_override(self, tmp_path):
        # An override that names no policy is a config error that names every
        # spelling, also through cmd_infer, which refuses it before it writes
        # or reads a file.
        cfg = ExperimentConfig(out_dir=str(tmp_path / "run"))
        for call in (lambda: cfg.policy_config("bogus"),
                     lambda: cmd_infer(cfg, policy_kind="bogus")):
            with pytest.raises(ConfigError, match="bogus") as caught:
                call()
            assert all(repr(kind) in str(caught.value) for kind in POLICY_KINDS)
        assert not (tmp_path / "run").exists()

    def test_seq_len_must_be_two_blocks(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seq_len=48, block_length=16)

    def test_seq_len_fits_the_model_positions(self):
        # seq_len 32 takes two blocks of 16 positions.
        with pytest.raises(ConfigError, match="seq_len 32 exceeds 16 model positions"):
            ExperimentConfig(max_blocks=1)
        assert ExperimentConfig(max_blocks=2).model_config().max_positions == 32

    @pytest.mark.parametrize("lora_rank, subspace_k", [(2, 3), (4, 5)])
    def test_subspace_k_fits_the_adapter(self, lora_rank, subspace_k):
        # The freeze basis is built from the default tap's
        # (d_model, lora_rank) adapter B, so its rank is at most lora_rank.
        with pytest.raises(ConfigError, match=f"subspace_k {subspace_k} exceeds adapter rank"):
            ExperimentConfig(lora_rank=lora_rank, subspace_k=subspace_k)
        cfg = ExperimentConfig(lora_rank=subspace_k, subspace_k=subspace_k)
        assert cfg.policy_config().freeze.k == subspace_k

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(validation_fraction=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(beta=1.0)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=[])

    @pytest.mark.parametrize("seeds", [[1, 1, 2], [2, 1, 2], [0, 0]])
    def test_repeated_seed_refused(self, seeds):
        # A repeated seed would write its traces twice over and count it
        # twice in the mean.
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            ExperimentConfig(seeds=seeds)
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            ExperimentConfig.from_text(f"seeds = {seeds}\n")
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            dataclasses.replace(ExperimentConfig(), seeds=seeds)

    def test_minimums(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(train_steps=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(budget=0)

    def test_component_validation_propagates(self):
        # d_model not divisible by n_heads fails inside the model config.
        with pytest.raises(ConfigError):
            ExperimentConfig(d_model=30, n_heads=4)

    def test_bad_similarity(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(similarity="dot_product")

    @pytest.mark.parametrize(
        "line",
        [
            "train_steps = 1.5",
            "batch_size = 2.5",
            "block_length = 16.0",
            "seeds = [1.7]",
            "omega = 2.5",
            "budget = true",
            "seeds = [1, false]",
        ],
    )
    def test_integer_keys_take_integers_only(self, line):
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"{key} takes integers only"):
            ExperimentConfig.from_text(line + "\n")

    @pytest.mark.parametrize(
        "line, takes",
        [
            ("strict_certificates = no", "true or false"),
            ('strict_certificates = "false"', "true or false"),
            ("strict_certificates = 1", "true or false"),
            ("delta = true", "a number"),
            ('learning_rate = "x"', "a number"),
            ("beta = [0.1]", "a number"),
            ("out_dir = 5", "a string"),
            ("task = [1]", "a string"),
        ],
    )
    def test_keys_take_their_annotated_type(self, line, takes):
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"{key} takes {takes}"):
            ExperimentConfig.from_text(line + "\n")

    @pytest.mark.parametrize("value", ["0", "-1", "0.0", "NaN"])
    def test_learning_rate_must_be_positive(self, value):
        with pytest.raises(ConfigError, match="learning_rate must be positive"):
            ExperimentConfig.from_text(f"learning_rate = {value}\n")

    def test_float_keys_still_take_integers(self):
        cfg = ExperimentConfig.from_text("delta = 1\ntau_blk = 2\n")
        assert (cfg.delta, cfg.tau_blk) == (1, 2)


class TestTextFormat:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            task="sort_small",
            policy="edit_freeze",
            seeds=[5, 7],
            delta=0.1,
            out_dir="/tmp/x",
        )
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_bare_and_quoted_strings_equivalent(self):
        a = ExperimentConfig.from_text("task = copy_reverse\n")
        b = ExperimentConfig.from_text('task = "copy_reverse"\n')
        assert a == b

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\ntask = sort_small\n# trailing\n"
        assert ExperimentConfig.from_text(text).task == "sort_small"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            ExperimentConfig.from_text("task = copy_reverse\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_text("budget = 8\nbudget = 16\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            ExperimentConfig.from_text("just some words\n")

    def test_wrong_value_type_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("seeds = notalist\n")

    def test_from_file(self, tmp_path):
        p = tmp_path / "exp.txt"
        p.write_text("budget = 8\nseeds = [4]\n")
        cfg = ExperimentConfig.from_file(p)
        assert cfg.budget == 8
        assert cfg.seeds == [4]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ExperimentConfig.from_file(tmp_path / "absent.txt")

    def test_replace_revalidates(self):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, policy="bogus")
