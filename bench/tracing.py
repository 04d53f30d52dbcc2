"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each editstop layer from the
outside: every module-level name (or class attribute) that is bound to a
traced function is replaced, for the duration of the traced run, by a
wrapper that records a span and the layer's work counts. Nothing inside
``src/`` changes, and the untraced run installs nothing.

A span holds its name, start, end, parent and the id of the request
(prompt or command) it serves. Parent stacks are per thread; a span that
starts on a thread with an empty stack (a worker of the harness pool) is
parented to the innermost open span of the thread that opened the
request, which is the command that submitted the work.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    via: str
    request: str
    thread: int
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans and counters in memory; nothing is written here."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.histogram: dict[str, Counter] = defaultdict(Counter)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = ""
        self._request_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request_id: str) -> None:
        """Mark the calling thread as the one serving ``request_id``."""
        self._request = request_id
        self._request_stack = self._stack()

    def open(self) -> tuple[int, Optional[int], list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._request_stack
            parent = root[-1] if root else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def close(self, span_id, parent, stack, name, via, start_ns) -> None:
        end_ns = perf_counter_ns()
        stack.pop()
        self.spans.append(
            Span(span_id, parent, name, via, self._request, threading.get_ident(),
                 start_ns, end_ns)
        )

    def add(self, counts: Iterable[tuple[str, int]]) -> None:
        with self._lock:
            for key, n in counts:
                self.counts[key] += n

    def add_stop(self, policy: str, steps: int) -> None:
        with self._lock:
            self.histogram[policy][steps] += 1


def traced(recorder: Recorder, name: str, via: str, fn: Callable,
           count: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped so each call records one span (and counts)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id, parent, stack = recorder.open()
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span_id, parent, stack, name, via, start)
        if count is not None:
            count(recorder, args, kwargs, result)
        return result

    return wrapper


# --- what each layer counts ---------------------------------------------

def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_forward(rec, args, kwargs, result):
    tokens = np.asarray(_arg(args, kwargs, 1, "tokens"))
    rows = tokens.size  # N x T, also for a 1-D (T,) call
    rec.add((("model.forward.calls", 1), ("model.forward.rows", rows)))


def _count_score_frame(rec, args, kwargs, result):
    frame = _arg(args, kwargs, 0, "frame")
    rec.add((("alignment.tokens_scored", len(frame.visible)),))


def _count_observe(rec, args, kwargs, result):
    rec.add((("monitor.observe.calls", 1),))


def _count_freeze(rec, args, kwargs, result):
    rec.add((("freeze.events", len(result[1])),))


def _count_certificate(rec, args, kwargs, result):
    rec.add((("certify.certificates", 1),
             ("certify.local_passes", int(bool(result.local_pass)))))


def _count_block(rec, args, kwargs, result):
    policy = kwargs.get("policy") if len(args) <= 4 else args[4]
    kind = policy.kind if policy is not None else "fixed"
    rec.add((
        ("generate.blocks", 1),
        ("generate.steps", result.steps_used),
        ("generate.early_stops", int(result.stopped_early)),
        ("generate.rejected_stops", len(result.rejected_stops)),
    ))
    rec.add_stop(kind, result.steps_used)


def _count_persist(rec, args, kwargs, result):
    rec.add((("metaformat.bytes", int(result)),))


def _count_load_metadata(rec, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    rec.add((("metaformat.bytes", os.path.getsize(path)),))


def _count_analyze(rec, args, kwargs, result):
    rec.add((("pseudograd.analyze_trajectory.calls", 1),))


# (module, attribute path, counter). A path "Class.method" wraps a method.
TARGETS = (
    ("model", "forward", _count_forward),
    ("model", "predictive_distributions", None),
    ("model", "backward_lora", None),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("generate", "generate", None),
    ("generate", "denoise_block", _count_block),
    ("alignment", "score_frame", _count_score_frame),
    ("monitor", "StabilityMonitor.observe", _count_observe),
    ("freeze", "TokenFreezer.process", _count_freeze),
    ("certify", "build_certificate", _count_certificate),
    ("certify", "calibrate_pac", None),
    ("certify", "estimate_contraction", None),
    ("pseudograd", "analyze_trajectory", _count_analyze),
    ("train", "sft_train", None),
    ("capture", "adamw_step", None),
    ("metaformat", "persist_metadata", _count_persist),
    ("metaformat", "load_metadata", _count_load_metadata),
    ("harness", "load_artifacts", None),
    ("harness", "cmd_train", None),
    ("harness", "cmd_infer", None),
    ("harness", "cmd_calibrate", None),
    ("harness", "cmd_certify", None),
    ("harness", "cmd_ablate", None),
)

PACKAGE = "editstop"


def _package_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Installed:
    """Wrappers installed on every binding of the traced functions.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        modules = _package_modules()
        for layer, path, count in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            name = f"{layer}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, traced(self.recorder, name, cls_name, original, count))
                continue
            original = getattr(owner, path)
            for mod_name, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        via = mod_name.rpartition(".")[2]
                        self._set(mod, attr, traced(self.recorder, name, via, original, count))
        self._count_probvectors()
        return self

    def _count_probvectors(self) -> None:
        cls = sys.modules[f"{PACKAGE}.linalg"].ProbVector
        original = cls.__dict__["__init__"]
        add = self.recorder.add
        built = (("linalg.ProbVector.built", 1),)

        def counting_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            add(built)

        self._set(cls, "__init__", counting_init)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# --- span arithmetic ----------------------------------------------------

def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if s < end and e > start
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the time its child spans cover.

    Children that overlap each other (pool workers under one command)
    are merged first, so self time never goes negative.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: s.duration_ns - covered_ns(s.start_ns, s.end_ns, children.get(s.id, ()))
        for s in spans
    }


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total milliseconds and self milliseconds."""
    selfs = self_times_ns(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += s.duration_ns / 1e6
        row["self_ms"] += selfs[s.id] / 1e6
    return table
