"""Benchmark for editstop: one workload per invocation.

Run from the root of a checkout:

    python3 bench/run.py --workload decode_one_block --seed 0 --seconds 15 --trace 0

Workloads: ``decode_one_block``, ``decode_three_blocks`` and
``experiment_pipeline`` (see ``workloads.py``). The program is imported
from ``src/`` of the same checkout; the benchmark exits with an error,
printing no result, when it is not there.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
installed in the program. With ``--trace 1`` it sets up once under
tracing, runs a fixed amount of the workload untraced and then traced,
and reports per-layer metrics and deterministic counters.

Every line but the last is for people. The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, raw samples and, for traced runs, the spans, the per-layer table
and the counters are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

from measure import Ledger, rank_percentile, timing_summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

# End-to-end metrics, reported by every workload with --trace 0. A round
# is one prompt of the run's fixed prompt set under every policy of a
# decode workload, or one pass of the pipeline's commands, and every pass
# repeats each round (see workloads.py). The shared host's speed drifts by
# a quarter from one minute to the next, and a round's wall time with it,
# so wall times of runs a few minutes apart differ by more than any useful
# bound. The gate is the round cost in reference units: each complete
# repeat of a round divided by the median time of the reference kernel
# timed between the rounds of its pass, the median repeat taken for each
# round and the mean over rounds, so every prompt's work is kept. The same
# figure in ms, the median and 90th percentile of all complete repeats and
# the reference time are printed too.
END_TO_END = {
    "setup_s": "s",
    "round_cost_ref": "ref",
    "peak_rss_mb": "MB",
    "edit.steps_per_block": "steps",
}

# Per-layer metrics, reported by every workload with --trace 1. They cover
# the traced set-up and the traced phase. Layers that some workload never
# enters (the freezer, calibration, the pseudo-gradient, the infer,
# calibrate, certify and ablate commands) are printed but not listed here.
# Spans on the harness pool's workers overlap, so there summed self times
# include waiting for the interpreter lock and can exceed wall time.
PER_LAYER = {
    "model.forward.calls": "count",
    "model.forward.rows": "count",
    "model.forward.self_ms": "ms",
    "model.predictive_distributions.self_ms": "ms",
    "model.backward_lora.self_ms": "ms",
    "model.save_checkpoint.self_ms": "ms",
    "model.load_checkpoint.self_ms": "ms",
    "linalg.ProbVector.built": "count",
    "generate.denoise_block.self_ms": "ms",
    "generate.steps": "count",
    "generate.blocks": "count",
    "generate.early_stop_ratio": "ratio",
    "alignment.score_frame.self_ms": "ms",
    "alignment.tokens_scored": "count",
    "monitor.observe.self_ms": "ms",
    "monitor.observe.calls": "count",
    "certify.build_certificate.self_ms": "ms",
    "train.sft_train.self_ms": "ms",
    "capture.adamw_step.self_ms": "ms",
    "metaformat.persist_metadata.self_ms": "ms",
    "metaformat.load_metadata.self_ms": "ms",
    "metaformat.bytes": "count",
    "harness.cmd_train.self_ms": "ms",
    # Summed generate span time over the traced phase's wall time: above 1
    # when the harness pool overlaps calls, about 1 for a single client.
    "harness.pool.concurrency": "ratio",
}

PRINTED_ONLY_LAYERS = (
    "freeze.process", "certify.calibrate_pac", "certify.estimate_contraction",
    "pseudograd.analyze_trajectory", "harness.load_artifacts", "harness.cmd_infer",
    "harness.cmd_calibrate", "harness.cmd_certify", "harness.cmd_ablate",
)
SPAN_FIELDS = ("id", "parent", "name", "via", "request", "thread", "start_ns", "end_ns")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import editstop from this checkout's src/; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "editstop", "__init__.py")):
        raise SystemExit(f"bench: no editstop sources in {SRC}; nothing to measure")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    package = importlib.import_module("editstop")
    importlib.import_module("editstop.harness")
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "editstop"):
        raise SystemExit(f"bench: editstop was imported from {package.__file__}, not {SRC}")
    return elapsed


def show(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42} {text:>14} {unit}{('  ' + note) if note else ''}")


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    import_s = import_program()

    import machine
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")
    host = machine.record(loadavg)
    print(f"editstop benchmark: workload {args.workload}, seed {args.seed},"
          f" {args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in host.items()))

    os.makedirs(TMP_DIR, exist_ok=True)
    workspace = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    ledger = Ledger()
    ctx = wl.Context(args.workload, args.seed, workspace, ledger,
                     wl.config_for(args.workload, args.seed))
    try:
        if args.trace:
            metrics, printed, extra = run_traced(ctx, args.seconds, wl)
        else:
            metrics, printed, extra = run_untraced(ctx, args.seconds, wl, import_s)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run still uses it

    report_outputs(ledger)
    write_results(args, host, ledger, printed, extra)
    print(json.dumps({
        "correct": not ledger.mismatches,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def report_outputs(ledger: Ledger) -> None:
    print("outputs:")
    show("failed_fraction", ledger.failed_fraction, "fraction",
         f"{ledger.failed} of {ledger.attempted} operations")
    for error, n in sorted(ledger.errors.items()):
        print(f"  exception {error}: {n}")
    for line in ledger.mismatches[:20]:
        print(f"  mismatch {line}")
    if len(ledger.mismatches) > 20:
        print(f"  ... {len(ledger.mismatches) - 20} more mismatches")
    print("output checks: " + ("pass" if not ledger.mismatches else "FAIL"))


def write_results(args, host, ledger: Ledger, printed: dict, extra: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "machine": host, "metrics": printed, "exceptions": dict(ledger.errors),
            "mismatches": ledger.mismatches, "attempted": ledger.attempted,
            "failed": ledger.failed,
        }, fh, indent=1, sort_keys=True)
    for suffix, payload in extra.items():
        with open(f"{stem}-{suffix}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"), sort_keys=True)


# --- untraced run -----------------------------------------------------------

def run_untraced(ctx, seconds: float, wl, import_s: float):
    setup_dir, artifacts, setups, trains = wl.setup(ctx, wl.SETUP_REPEATS)
    phase = wl.measure(ctx, setup_dir, artifacts, seconds)
    check_digest(ctx, phase, wl)

    repeats = phase.repeats()
    values = {
        "setup_s": import_s + wl.median(setups),
        "round_cost_ref": wl.round_cost(phase.ref_rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "edit.steps_per_block": phase.edit_steps / phase.edit_blocks
        if phase.edit_blocks else float("nan"),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    printed = {
        "round_cost_ms": (wl.round_cost(phase.rounds) * 1e3, "ms"),
        "ref_ms_p50": (wl.median(phase.refs) * 1e3, "ms"),
        "round_ms_p50": (wl.median(repeats) * 1e3, "ms"),
        "round_ms_p90": (rank_percentile(repeats, 90.0) * 1e3 if repeats else float("nan"),
                         "ms"),
        "rounds_timed": (len(phase.rounds), "count"),
        "round_repeats": (len(repeats), "count"),
        "import_s": (import_s, "s"),
        "train_s": (wl.median(trains), "s"),
    }
    if ctx.workload == wl.PIPELINE:
        for name, samples in phase.times.items():
            printed[f"{name}_s"] = (wl.median(samples), "s")
    else:
        for kind, samples in phase.times.items():
            printed.update(timing_summary(kind, samples))
        printed["edit.fixed_agreement"] = (
            phase.agreed / phase.compared if phase.compared else float("nan"), "fraction")
        printed["edit.fixed_compared"] = (phase.compared, "count")

    print("end-to-end metrics:")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    print(f"{ctx.workload} metrics:")
    for name, (value, unit) in printed.items():
        show(name, value, unit)
    printed.update(metrics)
    samples = {"rounds": {str(i): times for i, times in phase.rounds.items()},
               "refs": phase.refs, **phase.times}
    return metrics, printed, {"samples": samples}


def check_digest(ctx, phase, wl) -> None:
    """On the stored seed, compare the fixed/edit outputs with the stored digest."""
    import outputs

    got = outputs.digest(phase.digest_records)
    stored = outputs.stored_digests()
    if ctx.seed != stored["seed"]:
        print(f"digest: {got} (stored only for seed {stored['seed']})")
        return
    want = stored.get(ctx.workload)
    print(f"digest: {got} (stored {want})")
    if got != want:
        ctx.ledger.check(f"seed {ctx.seed} outputs", ["digest differs from digests.json"])


# --- traced run -------------------------------------------------------------

def run_traced(ctx, seconds: float, wl):
    from tracing import layer_table

    recorder, plain, phase = wl.traced_run(ctx, seconds)
    table = layer_table(recorder.spans)
    counts = recorder.counts

    def self_ms(name):
        return table.get(name, {}).get("self_ms", 0.0)

    blocks = counts["generate.blocks"]
    certificates = counts["certify.certificates"]
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            values[name] = self_ms(name[: -len(".self_ms")])
        elif name == "generate.early_stop_ratio":
            values[name] = counts["generate.early_stops"] / blocks if blocks else 0.0
        elif name == "harness.pool.concurrency":
            generate_ms = table.get("generate.generate", {}).get("total_ms", 0.0)
            values[name] = generate_ms / (phase.wall * 1e3)
        else:
            values[name] = counts[name]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}

    counters = {key: counts[key] for key in sorted(counts)}
    counters["harness.generate.calls"] = sum(
        1 for s in recorder.spans if s.name == "generate.generate" and s.via == "harness"
    )
    counters["stop_step_histogram"] = {
        kind: {str(k): v for k, v in sorted(h.items())}
        for kind, h in sorted(recorder.histogram.items())
    }
    overhead_s = phase.wall - plain.wall

    print("per-layer metrics (traced set-up and traced phase):")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    for name in PRINTED_ONLY_LAYERS:
        show(f"{name}.self_ms", self_ms(name), "ms",
             f"{int(table.get(name, {}).get('calls', 0))} calls")
    if ctx.workload == wl.PIPELINE:
        for span in recorder.spans:
            if span.name.startswith("harness.cmd_") and span.name != "harness.cmd_train":
                busy = sum(s.duration_ns for s in recorder.spans
                           if s.name == "generate.generate" and s.parent == span.id)
                show(f"{span.name}.concurrency", busy / span.duration_ns, "ratio")
    print("counters (repeat exactly for one seed):")
    for name, value in counters.items():
        if name != "stop_step_histogram":
            show(name, value, "count")
    show("certify.local_pass_ratio",
         counts["certify.local_passes"] / certificates if certificates else 0.0,
         "ratio", f"base {certificates} certificates")
    show("generate.early_stop_ratio", values["generate.early_stop_ratio"], "ratio",
         f"base {blocks} blocks")
    for kind, hist in counters["stop_step_histogram"].items():
        print(f"  stop steps under {kind}: " + ", ".join(f"{k}:{v}" for k, v in hist.items()))
    print("tracing overhead (same work, untraced then traced):")
    show("trace.untraced_s", plain.wall, "s")
    show("trace.traced_s", phase.wall, "s")
    show("trace.overhead_s", overhead_s, "s",
         f"{100.0 * overhead_s / plain.wall:.1f}% of untraced" if plain.wall else "")

    printed = dict(metrics)
    printed["trace.overhead_s"] = (overhead_s, "s")
    extra = {
        "layers": table,
        "counters": counters,
        "spans": {"fields": SPAN_FIELDS,
                  "spans": [[getattr(s, f) for f in SPAN_FIELDS] for s in recorder.spans]},
    }
    return metrics, printed, extra


if __name__ == "__main__":
    sys.exit(main())
