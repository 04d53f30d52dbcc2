"""Failure accounting and timing statistics for the benchmark."""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
TAIL_CANDIDATES = (90.0, 95.0, 99.0, 99.9)
# Exceptions are all counted; only the first few are written to the log.
LOGGED_ERRORS = 20
# The reference kernel: 5 to 10 ms of interpreter and small-matrix numpy
# work, the mix the program runs per denoising step.
REF_ITERATIONS = 600
_REF_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


class Ledger:
    """Counts every operation; an exception or a failed output check fails it."""

    def __init__(self, log=None):
        self.log = log if log is not None else sys.stderr
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.mismatches: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; returns (result, wall seconds), result None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is counted, none is fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            if self.failed <= LOGGED_ERRORS:
                print(f"bench: {label} raised {type(exc).__name__}: {exc}", file=self.log)
            return None, elapsed
        return result, time.perf_counter() - start

    def check(self, label: str, problems: list[str]) -> None:
        """Record the output checks of one operation that completed."""
        if problems:
            self.failed += 1
            self.mismatches.extend(f"{label}: {p}" for p in problems)

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _reference_kernel(_=None) -> float:
    x = 0.0
    for _ in range(REF_ITERATIONS):
        y = _REF_MATRIX @ _REF_MATRIX
        x += float(np.tanh(y[0, 0])) + sum(range(20))
    return x


def reference_seconds(threads: int = 1) -> float:
    """Wall seconds of the reference kernel, a fixed amount of work outside
    the program, run once on each of ``threads`` threads at the same time.
    The shared host's speed drifts by a quarter over minutes, and the
    program's times drift with it; timed between rounds, the kernel
    measures that speed. Work spread over a thread pool slows differently
    from work on one thread, so it is compared with a pool of its size."""
    start = time.perf_counter()
    if threads == 1:
        _reference_kernel()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_reference_kernel, range(threads)))
    return time.perf_counter() - start


def _rank(n: int, q: float) -> int:
    # The tolerance keeps 99.9% of 10000 at rank 9990 despite rounding.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def rank_percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def tail_percentile(n: int):
    """Highest candidate percentile with at least TAIL_SAMPLES samples beyond it."""
    best = None
    for q in TAIL_CANDIDATES:
        if n - _rank(n, q) >= TAIL_SAMPLES:
            best = q
    return best


def percentile_label(q: float) -> str:
    return f"p{q:g}".replace(".", "_")


def timing_summary(prefix: str, seconds: list[float]) -> dict[str, tuple[float, str]]:
    """Median and tail percentile in ms of one kind of operation, with its count."""
    out: dict[str, tuple[float, str]] = {f"{prefix}.n": (len(seconds), "count")}
    if not seconds:
        return out
    out[f"{prefix}.ms_p50"] = (statistics.median(seconds) * 1e3, "ms")
    top = tail_percentile(len(seconds))
    # p90 keeps one name across runs; a higher tail is added when it has
    # enough samples beyond it.
    for q in sorted({TAIL_CANDIDATES[0], top}) if top is not None else ():
        label = percentile_label(q)
        out[f"{prefix}.ms_{label}"] = (rank_percentile(seconds, q) * 1e3, "ms")
    return out
