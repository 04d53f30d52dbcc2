"""Re-runnable mutation checks for the tests that guard fast paths and rules.

Each entry of ``MUTANTS`` names a file, an exact text that occurs once in
it, the text that replaces it, and the pytest ids that must fail once it is
replaced. For each mutant the script copies this checkout's ``src/``,
``tests/``, ``bench/`` and ``pyproject.toml`` to a temporary directory,
applies the one edit there, and runs the named tests. The checkout itself
is never edited.

A named id fails when at least one test collected under it fails or
errors. A mutant is killed when every named id fails. The script exits 1
when a mutant survives (some named id passes), when an old text no longer
occurs exactly once, or when a named id collects no test.

Usage::

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named mutants
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # --- fast paths whose bits the tests pin ---
    Mutant(
        "recorded_ax_on_a_2d_view",
        "src/editstop/model.py",
        'cache_b[f"ax_{proj}"] = x_in[:, q_from if proj == "q" else 0:] @ a.T',
        'cache_b[f"ax_{proj}"] = (x_in[:, q_from if proj == "q" else 0:].reshape(-1, d)'
        " @ a.T).reshape(n, -1, a.shape[0])",
        ("tests/test_model.py::TestInPlaceForward::test_matches_the_out_of_place_pass",),
    ),
    Mutant(
        "q_gemm_on_the_column_major_slice",
        "src/editstop/model.py",
        "qh = (rows @ weights.wq_last.T)",
        "qh = (rows @ w[:d].T)",
        ("tests/test_model.py::TestTwoDimensionalForward::test_decode_forward_keeps_the_batched_bits",),
    ),
    Mutant(
        "row_major_copies_in_the_last_block",
        "src/editstop/model.py",
        "(np.asarray if b == last else np.ascontiguousarray)(",
        "np.ascontiguousarray(",
        ("tests/test_model.py::TestTwoDimensionalForward::test_decode_forward_keeps_the_batched_bits",),
    ),
    Mutant(
        "cache_keeps_aliased_tokens",
        "src/editstop/model.py",
        'cache = {"tokens": tokens.copy(), "blocks": block_caches}',
        'cache = {"tokens": tokens, "blocks": block_caches}',
        ("tests/test_generate.py::TestDecodeForwardBits::test_shared_weights_keep_every_bit",),
    ),
    Mutant(
        "unstable_commit_argsort",
        "src/editstop/generate.py",
        'ranked = np.argsort(-np.fmax.reduce(probs, axis=1)[open_slots], kind="stable")',
        'ranked = np.argsort(-np.fmax.reduce(probs, axis=1)[open_slots], kind="quicksort")',
        ("tests/test_generate.py::TestCommitRanking::test_ties_commit_lowest_index_first_at_quota_4",),
    ),
    Mutant(
        "extra_forward_per_block",
        "src/editstop/generate.py",
        "        if not repeat:\n            result = forward(\n",
        "        if step == 1:\n"
        "            forward(model, tokens[None, :], first_row=lo, weights=weights)\n"
        "        if not repeat:\n            result = forward(\n",
        ("tests/test_bench_bindings.py::test_a_traced_decode_counts_every_forward_and_probvector",),
    ),
    Mutant(
        "capture_keeps_every_step",
        "src/editstop/train.py",
        "                totals[key] += update\n",
        "                totals[key] += update\n"
        '                model.__dict__.setdefault("kept", []).append(update.copy())\n',
        ("tests/test_train.py::TestCaptureMemory::test_peak_does_not_grow_with_the_step_count",),
    ),
    Mutant(
        "transposed_lora_a_reshape",
        "src/editstop/model.py",
        'grads[key_a] += dax.T @ c["x_in"][:, start:].reshape(-1, d)',
        'grads[key_a] += dax.T @ c["x_in"][:, start:].transpose(1, 0, 2).reshape(-1, d)',
        ("tests/test_model.py::TestTwoDimensionalGemms::test_training_batch_matches_per_sample_full_passes",),
    ),
    Mutant(
        "weights_cache_ignores_a_replaced_array",
        "src/editstop/model.py",
        "        if len(built_from) == len(params) and all(map(operator.is_, built_from, params)):\n",
        "        if True:\n",
        ("tests/test_model.py::TestLoadedWeightsCache::test_replacing_an_array_rebuilds",),
    ),
    Mutant(
        "weights_cache_serves_writable_models",
        "src/editstop/model.py",
        "    frozen = not any(a.flags.writeable for a in params)\n",
        "    frozen = True\n",
        ("tests/test_model.py::TestLoadedWeightsCache::test_changed_in_place_model_gets_fresh_weights",),
    ),
    Mutant(
        "row_max_reduces_the_wrong_axis",
        "src/editstop/linalg.py",
        "        return np.maximum.reduce(z, axis=-1, keepdims=True)\n",
        "        return np.maximum.reduce(z, axis=0, keepdims=True)\n",
        ("tests/test_linalg.py::TestRowMax::test_random_rows",),
    ),
    Mutant(
        "row_max_reshapes_instead_of_transposing",
        "src/editstop/linalg.py",
        "z.reshape(-1, k).T.copy()",
        "z.reshape(k, -1).copy()",
        ("tests/test_linalg.py::TestRowMax::test_random_rows",),
    ),
    Mutant(
        "softmax_check_passes_a_nan_normalizer",
        "src/editstop/linalg.py",
        "    if not np.isfinite(worst):\n",
        "    if np.isinf(worst):\n",
        ("tests/test_linalg.py::TestRowHelpers::test_normalizer_check_matches_the_row_sum_check",
         "tests/test_softmax_normalizer.py::test_verdict_and_bits_match_the_row_sum_check"),
    ),
    # --- one owner per rule ---
    Mutant(
        "alignment_softmax_ignores_tau_blk",
        "src/editstop/alignment.py",
        "softmax_rows(scores / tau_blk)",
        "softmax_rows(scores)",
        ("tests/test_alignment.py::TestScoreFrame::test_composition_matches_manual_pipeline",),
    ),
    Mutant(
        "offline_softmax_ignores_tau_blk",
        "src/editstop/monitor.py",
        "    probs = softmax_rows(scores / tau_blk)\n",
        "    probs = softmax_rows(scores)\n",
        ("tests/test_harness.py::TestAlignmentTrace::test_offline_trace_equals_the_live_monitor",
         "tests/test_equivalence.py::test_array_step_matches_the_object_path"),
    ),
    Mutant(
        "offline_repeated_step_keeps_the_last_divergence",
        "src/editstop/harness.py",
        "divergences[r - 1] = kl",
        "divergences[r - 1 :] = kl",
        ("tests/test_harness.py::TestAlignmentTrace::test_offline_trace_equals_the_live_monitor",),
    ),
    Mutant(
        "io_failure_outside_the_exit_3_family",
        "src/editstop/errors.py",
        "class IoFailureError(ArtifactMismatchError):",
        "class IoFailureError(EditStopError):",
        ("tests/test_cli.py::TestUnusableArtifacts::test_run_directory_that_cannot_be_written_exits_three",),
    ),
    Mutant(
        "metadata_without_a_basis_loads",
        "src/editstop/harness.py",
        "    if basis is None:\n",
        "    if basis is None and False:\n",
        ("tests/test_cli.py::TestUnusableArtifacts::test_metadata_without_a_basis_exits_three",),
    ),
    Mutant(
        "ablate_averages_repeated_steps",
        "src/editstop/harness.py",
        "rows[: block.forward_passes - 1].T",
        "rows.T",
        ("tests/test_harness.py::TestAblate::test_cells_average_distinct_forwards_only",),
    ),
    Mutant(
        "trace_record_differs_from_generations_line",
        "src/editstop/harness.py",
        '{**instance, "blocks": [_block_trace(block, csv_name, pseudo_name)]}',
        '{**instance, "output": instance["prompt"],'
        ' "blocks": [_block_trace(block, csv_name, pseudo_name)]}',
        ("tests/test_harness.py::TestInfer::test_trace_and_generations_line_share_the_record",),
    ),
    Mutant(
        "freeze_events_out_of_freeze_order",
        "src/editstop/generate.py",
        "tuple(freezer.states.values())",
        "tuple(sorted(freezer.states.values(), key=lambda st: -st.token))",
        ("tests/test_equivalence.py::test_policies_match_reference",),
    ),
    Mutant(
        "stop_rule_counts_the_threshold_as_stable",
        "src/editstop/monitor.py",
        "d_t < self.cfg.delta",
        "d_t <= self.cfg.delta",
        ("tests/test_harness.py::TestReplayStop::test_threshold_is_strict",
         "tests/test_monitor.py::TestUpdateCounter::test_exact_threshold_resets"),
    ),
    Mutant(
        "repeat_rule_ignores_committed",
        "src/editstop/generate.py",
        "        repeat = step > 1 and not newly.size\n",
        "        repeat = step > 1\n",
        ("tests/test_generate.py::TestSkippedStepWork::test_repeats_previous",
         "tests/test_generate.py::TestSkippedStepWork::test_repeated_steps_reuse_the_previous_distribution"),
    ),
    Mutant(
        "monitor_moves_prev_on_a_refused_support",
        "src/editstop/monitor.py",
        "            # Refuses a support that dropped a member of prev's.\n",
        "            self.prev_probs, self.prev_members = probs, p.support\n"
        "            # Refuses a support that dropped a member of prev's.\n",
        ("tests/test_monitor.py::TestStabilityMonitor::test_support_dropping_a_member_is_rejected",),
    ),
    Mutant(
        "live_step_skips_the_kl_on_an_unchanged_support",
        "src/editstop/generate.py",
        "                d_t = None if kl is None else float(kl[0])\n",
        "                d_t = None if kl is None else (\n"
        "                    0.0 if members == monitor.prev_members else float(kl[0])\n"
        "                )\n",
        ("tests/test_equivalence.py::test_array_step_matches_the_object_path",),
    ),
    Mutant(
        "fixed_reports_only_the_steps_it_ran",
        "src/editstop/generate.py",
        "        steps_used=step if monitor is not None else budget,\n",
        "        steps_used=step,\n",
        ("tests/test_generate.py::TestSkippedStepWork::test_fixed_ends_at_the_first_repeated_step",),
    ),
    Mutant(
        "forward_count_counts_every_step",
        "src/editstop/generate.py",
        "        return len(self.trajectory.token_rows)\n",
        "        return self.steps_used\n",
        ("tests/test_generate.py::TestForwardReuse",),
    ),
    # --- the array-shaped trajectory's indexing ---
    Mutant(
        "repeated_step_reads_the_first_row",
        "src/editstop/generate.py",
        "        return min(step, len(self.token_rows)) - 1\n",
        "        return step - 1 if step <= len(self.token_rows) else 0\n",
        ("tests/test_generate.py::TestCommitRanking::test_full_block_reuses_step_17",
         "tests/test_generate.py::TestSkippedStepWork::test_repeats_previous"),
    ),
    Mutant(
        "frame_includes_open_slots",
        "src/editstop/generate.py",
        "seen = np.not_equal(block, mask_id, out=visible[r])",
        "seen = np.not_equal(block, -1, out=visible[r])",
        ("tests/test_generate.py::TestSchedule::test_one_per_step_growth",
         "tests/test_equivalence.py::test_policies_match_reference"),
    ),
    Mutant(
        "prefix_aliases_the_token_buffer",
        "src/editstop/generate.py",
        "        prefix=prefix,\n",
        "        prefix=tokens[:lo],\n",
        ("tests/test_generate.py::TestSchedule::test_prefix_is_the_trajectorys_own_copy",),
    ),
    Mutant(
        "contractive_accepts_one",
        "src/editstop/certify.py",
        "    return 0.0 <= alpha_hat < 1.0\n",
        "    return 0.0 <= alpha_hat <= 1.0\n",
        ("tests/test_certify.py::TestTailBudget::test_noncontractive_rejected",
         "tests/test_certify.py::TestGlobalArgmaxCertificate::test_noncontractive_rejected",
         "tests/test_certify.py::TestCalibratePac::test_validation",
         "tests/test_freeze.py::TestFreezeSafety::test_noncontractive_rejected",
         "tests/test_harness.py::TestCertify::test_noncontractive_alpha_hat_gives_no_global_verdict[1.0]"),
    ),
    Mutant(
        "checkpoint_layout_unchecked",
        "src/editstop/model.py",
        "        if misfits:\n",
        "        if misfits and False:\n",
        ("tests/test_cli.py::TestUnusableArtifacts::test_checkpoint_arrays_that_misfit_its_config_exit_three",),
    ),
    Mutant(
        "negative_evaluation_seed_accepted",
        "src/editstop/config.py",
        "if not self.seeds or min(self.seeds) < 0:",
        "if not self.seeds:",
        ("tests/test_cli.py::TestNegativeSeeds::test_negative_evaluation_seed_exits_two",),
    ),
    Mutant(
        "seq_len_beyond_the_model_positions_accepted",
        "src/editstop/config.py",
        "        if self.seq_len > positions:\n",
        "        if False:\n",
        ("tests/test_config.py::TestValidation::test_seq_len_fits_the_model_positions",
         "tests/test_cli.py::TestOversizedConfig::test_oversized_value_exits_two[one_block]"),
    ),
    Mutant(
        "subspace_k_beyond_the_adapter_rank_accepted",
        "src/editstop/config.py",
        "        if self.subspace_k > rank:\n",
        "        if False:\n",
        ("tests/test_config.py::TestValidation::test_subspace_k_fits_the_adapter",
         "tests/test_cli.py::TestOversizedConfig::test_oversized_value_exits_two"
         "[lora_rank_below_subspace_k]",
         "tests/test_cli.py::TestOversizedConfig::test_oversized_value_exits_two"
         "[subspace_k_above_lora_rank]"),
    ),
    Mutant(
        "negative_model_seed_accepted",
        "src/editstop/model.py",
        "        if self.seed < 0:\n",
        "        if self.seed < 0 and False:\n",
        ("tests/test_cli.py::TestNegativeSeeds::test_negative_model_seed_exits_two",),
    ),
    Mutant(
        "policy_flag_takes_fewer_spellings",
        "src/editstop/cli.py",
        "        choices=tuple(POLICY_ALIASES),\n",
        '        choices=("fixed", "edit", "edit-freeze"),\n',
        ("tests/test_cli.py::TestCommands::test_policy_spellings_write_the_same_report",),
    ),
    Mutant(
        "cmd_train_batch_size_fixed",
        "src/editstop/harness.py",
        "        batch_size=config.batch_size,\n",
        "        batch_size=16,\n",
        ("tests/test_harness.py::TestTrain::test_matches_sft_train_with_the_config",),
    ),
)


def apply(mutant: Mutant, root: str) -> None:
    """Replace the mutant's old text, which must occur exactly once, under ``root``."""
    with open(os.path.join(root, mutant.path), encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    with open(os.path.join(root, mutant.path), "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def outcomes(report: str, test_id: str) -> list[str]:
    """Outcomes (PASSED, FAILED, ERROR) of the tests under ``test_id`` in a
    ``pytest -rA`` report."""
    found = []
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        node = rest.split(" - ")[0]
        if word in ("PASSED", "FAILED", "ERROR") and (
            node == test_id or node.startswith((test_id + "::", test_id + "["))
        ):
            found.append(word)
    return found


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply ``mutant`` to a temporary copy and run its tests; returns
    ``(verdict, detail)``, the verdict one of ``killed``, ``SURVIVED`` and
    ``STALE`` (the old text does not occur once, or a named id collects no
    test)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tmp)
        try:
            apply(mutant, tmp)
        except ValueError as exc:
            return "STALE", str(exc)
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    details = []
    verdict = "killed"
    for test_id in mutant.tests:
        seen = outcomes(proc.stdout, test_id)
        failed = sum(w != "PASSED" for w in seen)
        details.append(f"{test_id}: {failed} of {len(seen)} failed")
        if not seen:
            verdict = "STALE"
        elif not failed and verdict == "killed":
            verdict = "SURVIVED"
    return verdict, "; ".join(details)


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else list(MUTANTS)
    killed = 0
    for mutant in chosen:
        verdict, detail = run(mutant)
        killed += verdict == "killed"
        print(f"{verdict:8} {mutant.name}: {detail}", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
