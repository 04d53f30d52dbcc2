"""Run the benchmark in alternating parent/change pairs and compare them.

Two checkouts are made in a work directory outside the repository, one of
the parent revision and one of the change (a revision, or by default the
repository's working tree: tracked and untracked files that git does not
ignore). Both sit at paths of the same length, so neither side runs from a
directory the other does not. For each seed, ``bench/run.py`` runs
``--pairs`` times in each checkout, pair by pair, the parent first in even
pairs and the change first in odd ones.

For every end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median and quartiles over its runs and the change's wins: the pairs
in which the change read better, ties counting for neither side. The
verdict follows the benchmark's rules:

- ``gain``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the distance between the
  parent's quartiles;
- ``worse beyond bound``: the change's median is worse than the parent's
  by more than the metric's bound, read as a fraction of the parent's
  median;
- ``unresolved``: neither, and one side's quartile distance exceeds the
  bound, unless every change run reads better than every parent run;
- ``within bound``: otherwise.

Metrics outside the end-to-end list (the traced run's per-layer rows and
counters, the printed timings) get their medians, and a note when every run
of both sides read the same value.

The results, every run's metrics and the machine record go to ``--out`` as
JSON. An existing file is updated: the entries of the workloads and seeds
just run replace their old ones, and the others are kept.

Usage::

    python3 tools/bench_pairs.py --parent HEAD~1 --workload decode_one_block \\
        --seed 0 --seed 1 --pairs 10 --seconds 15 --trace 0 --out BENCH.json
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")  # equal lengths: both checkouts' paths match in length


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def checkout_revision(rev: str, dest: str) -> str:
    """Extract the tree of ``rev`` into ``dest``; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit)), mode="r:") as tar:
        tar.extractall(dest, filter="data")
    return commit


def checkout_worktree(dest: str) -> str:
    """Copy the working tree's files that git tracks or does not ignore."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the tree is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=normal").strip())
    return f"{head} + working tree" if dirty else head


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last-line result, the
    metrics it wrote under ``.bench_out/`` and, when traced, its counters."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:"
                         f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    stem = os.path.join(checkout, ".bench_out", f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", encoding="utf-8") as fh:
        written = json.load(fh)
    run = {
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "machine": written["machine"],
        "metrics": {name: entry[0] for name, entry in written["metrics"].items()},
    }
    if trace:
        with open(stem + "-counters.json", encoding="utf-8") as fh:
            run["counters"] = json.load(fh)
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs: list[dict], name: str, better: str, bound: float | None) -> dict:
    """Medians, quartiles, wins and verdict of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is a win
    values = {side: [p[side]["metrics"].get(name) for p in pairs] for side in SIDES}
    if any(v is None or not math.isfinite(v) for vs in values.values() for v in vs):
        return {"values": values, "verdict": "missing"}
    stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side]))) for side in SIDES}
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    wins = sum(d < 0 for d in diffs)
    parent, change = stats["parent"], stats["change"]
    gap = sign * (change["median"] - parent["median"])  # < 0: the change is better
    parent_iqr = parent["q3"] - parent["q1"]
    out = {"values": values, **{f"{side}_{k}": v for side in SIDES for k, v in stats[side].items()},
           "wins": wins, "losses": sum(d > 0 for d in diffs), "pairs": len(pairs),
           "parent_iqr": parent_iqr, "ratio": change["median"] / parent["median"]
           if parent["median"] else None}
    if wins >= math.ceil(0.9 * len(pairs)) and -gap > parent_iqr:
        out["verdict"] = "gain"
    elif bound is not None and gap > bound * abs(parent["median"]):
        out["verdict"] = "worse beyond bound"
    elif bound is not None and max(s["q3"] - s["q1"] for s in stats.values()) > bound * abs(
            parent["median"]) and not max(sign * v for v in values["change"]) < min(
            sign * v for v in values["parent"]):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    summary = {"end_to_end": {}, "other": {}}
    for metric in end_to_end:
        summary["end_to_end"][metric["name"]] = compare(
            pairs, metric["name"], metric["better"], metric["bound"])
    names = sorted({n for p in pairs for side in SIDES for n in p[side]["metrics"]}
                   - set(summary["end_to_end"]))
    for name in names:
        values = {side: [p[side]["metrics"].get(name) for p in pairs] for side in SIDES}
        finite = all(isinstance(v, (int, float)) and math.isfinite(v)
                     for vs in values.values() for v in vs)
        summary["other"][name] = {
            **{f"{side}_median": statistics.median(values[side]) if finite else None
               for side in SIDES},
            "all_equal": len({v for vs in values.values() for v in vs}) == 1,
        }
    counters = [p[side].get("counters") for p in pairs for side in SIDES]
    if all(c is not None for c in counters):
        summary["counters_equal"] = all(c == counters[0] for c in counters)
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    summary["failed"] = failed
    summary["correct"] = all(p[side]["correct"] for p in pairs for side in SIDES)
    return summary


def fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, (int, float)) else "-"


def report(workload: str, seed: int, summary: dict) -> None:
    print(f"\n{workload}, seed {seed}: outputs correct {summary['correct']},"
          f" failed operations {summary['failed']}")
    print(f"  {'metric':<24} {'parent q1/med/q3':>26} {'change q1/med/q3':>26}"
          f" {'wins':>6} {'ratio':>7}  verdict")
    for name, row in summary["end_to_end"].items():
        if row["verdict"] == "missing":
            print(f"  {name:<24} {'-':>26} {'-':>26} {'-':>6} {'-':>7}  missing")
            continue
        sides = ["/".join(fmt(row[f"{side}_{k}"]) for k in ("q1", "median", "q3"))
                 for side in SIDES]
        print(f"  {name:<24} {sides[0]:>26} {sides[1]:>26} {row['wins']:>3}/{row['pairs']:<2}"
              f" {fmt(row['ratio']):>7}  {row['verdict']}")
    for name, row in summary["other"].items():
        note = "  (every run equal)" if row["all_equal"] else ""
        print(f"  {name:<40} parent {fmt(row['parent_median']):>10}"
              f"  change {fmt(row['change_median']):>10}{note}")
    if "counters_equal" in summary:
        print(f"  traced counters equal in every run: {summary['counters_equal']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default=None,
                        help="change revision (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="benchmark seed; repeat for several (default 0)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None,
                        help="where the checkouts go, outside the repository"
                             " (default: a new temporary directory, removed at the end)")
    parser.add_argument("--out", required=True, help="JSON file to write or update")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = args.seed or [0]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    if os.path.commonpath([workdir, ROOT]) == ROOT:
        parser.error(f"--workdir {workdir} lies inside the repository")
    checkouts = {side: os.path.join(workdir, side) for side in SIDES}
    for path in checkouts.values():
        if os.path.exists(path):
            parser.error(f"{path} already exists")
        os.makedirs(path)
    try:
        revisions = {"parent": checkout_revision(args.parent, checkouts["parent"])}
        revisions["change"] = (checkout_revision(args.change, checkouts["change"])
                               if args.change else checkout_worktree(checkouts["change"]))
        print(f"parent {revisions['parent']}\nchange {revisions['change']}\nin {workdir}")
        results = {}
        for seed in seeds:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(checkouts[side], args.workload, seed, args.seconds,
                                           args.trace)
                pairs.append(pair)
                print(f"seed {seed} pair {i}: " + ", ".join(
                    f"{side} {fmt(pair[side]['metrics'].get('round_cost_ref'))}" for side in SIDES),
                    flush=True)
            summary = summarize(pairs, end_to_end)
            report(args.workload, seed, summary)
            results[f"{args.workload}/seed{seed}/trace{args.trace}"] = {
                "workload": args.workload, "seed": seed, "trace": args.trace,
                "seconds": args.seconds, "revisions": revisions, "summary": summary,
                "pairs": pairs,
            }
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    payload = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            payload = json.load(fh)
    payload.setdefault("runs", {}).update(results)
    payload["machine"] = {k: v for k, v in pairs[0]["parent"]["machine"].items()
                          if k != "loadavg_at_start"}
    payload["end_to_end"] = end_to_end
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
