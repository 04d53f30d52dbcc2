"""Tests for matched renormalization, run-length counting, and block stops."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from helpers import (
    EmptyIntersectionError,
    constant_frames,
    count_forwards,
    frame_from,
    make_chain,
    make_dist,
    matched_renormalize,
    monitor_divergence,
    step_divergence,
)

from editstop.alignment import SimilarityMode, score_frame
from editstop.capture import EvolutionVector
from editstop.errors import NonMonotoneVisibleSetError
from editstop.linalg import ProbVector, softmax_rows
from editstop.monitor import (
    StabilityMonitor,
    StopConfig,
    StopDecision,
    StopReason,
    TraceRow,
    matched_kl_rows,
    trace_to_csv,
)


class TestStopConfig:
    def test_defaults(self):
        cfg = StopConfig()
        assert cfg.delta == 0.05
        assert cfg.omega == 6
        assert cfg.tau_blk == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StopConfig(delta=-0.01)
        with pytest.raises(ValueError):
            StopConfig(omega=0)
        with pytest.raises(ValueError):
            StopConfig(tau_blk=-1.0)


class TestMatchedRenormalize:
    def test_identical_supports_identity(self):
        prev = make_dist([0.3, 0.7], (1, 2), step=1)
        curr = make_dist([0.4, 0.6], (1, 2), step=2)
        p, q, inter = matched_renormalize(curr, prev)
        assert inter.members == (1, 2)
        np.testing.assert_allclose(p.probs, [0.4, 0.6], rtol=1e-12)
        np.testing.assert_allclose(q.probs, [0.3, 0.7], rtol=1e-12)

    def test_grown_support_renormalizes_current(self):
        prev = make_dist([0.5, 0.5], (1, 2), step=1)
        curr = make_dist([0.2, 0.3, 0.5], (1, 2, 3), step=2)
        p, q, inter = matched_renormalize(curr, prev)
        assert inter.members == (1, 2)
        np.testing.assert_allclose(p.probs, [0.4, 0.6], rtol=1e-12)
        np.testing.assert_allclose(q.probs, [0.5, 0.5], rtol=1e-12)

    def test_singleton_intersection_forces_zero_divergence(self):
        prev = make_dist([1.0], (4,), step=1)
        curr = make_dist([0.25, 0.75], (4, 5), step=2)
        p, q, _ = matched_renormalize(curr, prev)
        assert p.probs[0] == pytest.approx(1.0)
        assert step_divergence(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_ratio_preservation(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            n = int(rng.integers(3, 8))
            w = rng.random(n) + 0.05
            curr = make_dist(w / w.sum(), tuple(range(n)), step=2)
            keep = tuple(sorted(rng.choice(n, size=max(2, n - 2), replace=False)))
            wp = rng.random(len(keep)) + 0.05
            prev = make_dist(wp / wp.sum(), keep, step=1)
            p, _, inter = matched_renormalize(curr, prev)
            i, j = inter.members[0], inter.members[1]
            full = curr.dist.probs[[curr.dist.support.index(i), curr.dist.support.index(j)]]
            matched = p.probs[[p.support.index(i), p.support.index(j)]]
            ratio_full, ratio_matched = full[0] / full[1], matched[0] / matched[1]
            assert ratio_matched == pytest.approx(ratio_full, rel=1e-12)

    def test_disjoint_supports_rejected(self):
        prev = make_dist([1.0], (0,), step=1)
        curr = make_dist([1.0], (1,), step=2)
        with pytest.raises(EmptyIntersectionError):
            matched_renormalize(curr, prev)


class TestStepDivergence:
    def test_stable_distribution_is_zero(self):
        p = make_dist([0.4, 0.6]).dist
        assert step_divergence(p, p) == 0.0

    def test_frozen_pair_current_first(self):
        p = make_dist([0.5, 0.5]).dist
        q = make_dist([0.9, 0.1]).dist
        assert step_divergence(p, q) == pytest.approx(0.5108256237659907, rel=1e-7)
        assert step_divergence(q, p) == pytest.approx(0.3680642071684971, rel=1e-7)


def random_pair(rng, n_curr: int, n_prev: int, step: int = 2):
    """A (curr, prev) pair of alignment distributions over random sorted
    supports, with prev's support a random subset of curr's."""
    support = tuple(sorted(rng.choice(32, size=n_curr, replace=False).tolist()))
    kept = tuple(sorted(rng.choice(support, size=n_prev, replace=False).tolist()))
    w_curr = rng.random(n_curr) ** 3 + 1e-14
    w_prev = rng.random(n_prev) ** 3 + 1e-14
    return (
        make_dist(w_curr / w_curr.sum(), support, step=step),
        make_dist(w_prev / w_prev.sum(), kept, step=step - 1),
    )


def matched_kl(curr: ProbVector, prev: ProbVector) -> float:
    """A one-row ``matched_kl_rows`` call: the monitor's step divergence."""
    return float(
        matched_kl_rows(curr.probs[None], curr.support, prev.probs[None], prev.support)[0]
    )


class TestMatchedKl:
    """One-row ``matched_kl_rows`` calls against the restricted-``ProbVector``
    oracle, bit for bit."""

    def test_random_supports_match_the_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(400):
            n_curr = int(rng.integers(1, 17))
            curr, prev = random_pair(rng, n_curr, int(rng.integers(1, n_curr + 1)))
            assert matched_kl(curr.dist, prev.dist) == monitor_divergence(curr, prev)

    def test_member_inserted_mid_support(self):
        # Token 3 joins between 2 and 7: prev's members sit at positions
        # 0, 1 and 3 of curr's support, not at its first three.
        prev = make_dist([0.2, 0.5, 0.3], (1, 2, 7), step=1)
        curr = make_dist([0.1, 0.15, 0.4, 0.35], (1, 2, 3, 7), step=2)
        got = matched_kl(curr.dist, prev.dist)
        assert got == monitor_divergence(curr, prev)
        p = np.array([0.1, 0.15, 0.35]) / 0.6
        q = np.array([0.2, 0.5, 0.3])
        assert got == pytest.approx(float(np.sum(p * np.log(p / q))), rel=1e-12)

    def test_singleton_prev_support_is_zero(self):
        prev = make_dist([1.0], (4,), step=1)
        curr = make_dist([0.25, 0.75], (4, 5), step=2)
        assert matched_kl(curr.dist, prev.dist) == monitor_divergence(curr, prev) == 0.0

    def test_repeated_distribution(self):
        rng = np.random.default_rng(92)
        for n in (1, 2, 7, 16):
            curr, _ = random_pair(rng, n, n)
            again = make_dist(curr.dist.probs.copy(), curr.dist.support, step=3)
            assert matched_kl(again.dist, curr.dist) == monitor_divergence(again, curr)
            assert matched_kl(again.dist, curr.dist) == 0.0

    def test_monitor_records_the_oracle_divergence(self):
        rng = np.random.default_rng(93)
        support = sorted(rng.choice(40, size=16, replace=False).tolist())
        order = rng.permutation(16)
        chain = []
        for step in range(1, 17):
            members = tuple(sorted(support[i] for i in order[:step]))
            w = rng.random(step) + 0.01
            chain.append(make_dist(w / w.sum(), members, step=step))
        monitor = StabilityMonitor(StopConfig(delta=0.0))
        for dist in chain:
            monitor.observe(dist)
        rows = monitor.divergence_trace
        assert [r.divergence for r in rows] == [
            monitor_divergence(curr, prev) for prev, curr in zip(chain, chain[1:])
        ]
        assert [r.matched_support for r in rows] == list(range(1, 16))


class TestMatchedKlRows:
    """Row ``i`` of ``matched_kl_rows`` is the one-row call on row ``i``'s
    distributions, bit for bit. The column gather comes back column-major,
    and its row sums differ in the last bits from one row's sum unless the
    gather is copied to row-major first."""

    @pytest.mark.parametrize("n_rows", [12, 192])
    def test_rows_match_one_row_calls(self, n_rows):
        rng = np.random.default_rng(94 + n_rows)
        for k in range(2, 17):
            support = tuple(sorted(rng.choice(40, size=k, replace=False).tolist()))
            # The newest member joins first, mid-support or last.
            for joined in sorted({0, k // 2, k - 1}):
                kept = support[:joined] + support[joined + 1 :]
                curr = softmax_rows(3.0 * rng.normal(size=(n_rows, k)))
                prev = softmax_rows(3.0 * rng.normal(size=(n_rows, k - 1)))
                got = matched_kl_rows(curr, support, prev, kept)
                assert got.shape == (n_rows,)
                assert got.tolist() == [
                    matched_kl(ProbVector(c, support), ProbVector(q, kept))
                    for c, q in zip(curr, prev)
                ], (k, joined)

    @pytest.mark.parametrize("n_rows", [1, 12])
    @pytest.mark.parametrize(
        "curr_members, prev_members",
        [
            ((1, 2, 7), (1, 3)),  # a member dropped mid-support
            ((1, 2, 7), (0, 1)),  # below curr's first member
            ((1, 2, 7), (2, 9)),  # past curr's last member
            ((1, 2), (1, 2, 7)),  # prev larger than curr
        ],
    )
    def test_missing_member_refused(self, n_rows, curr_members, prev_members):
        rng = np.random.default_rng(95)
        curr = softmax_rows(rng.normal(size=(n_rows, len(curr_members))))
        prev = softmax_rows(rng.normal(size=(n_rows, len(prev_members))))
        with pytest.raises(NonMonotoneVisibleSetError, match="not within"):
            matched_kl_rows(curr, curr_members, prev, prev_members)


class TestUpdateCounter:
    """The run-length rule, ``StabilityMonitor.advance``, on given divergences."""

    def run_stream(self, divergences, cfg):
        monitor = StabilityMonitor(cfg)
        decisions = [monitor.advance(d, step) for step, d in enumerate(divergences, 1)]
        return monitor, decisions

    def test_six_quiet_steps_stop_at_sixth(self):
        cfg = StopConfig(delta=0.05, omega=6)
        monitor, decs = self.run_stream([0.01] * 6, cfg)
        assert decs[-1].stop
        assert decs[-1].reason is StopReason.RUN_LENGTH_MET
        assert decs[-1].step == 6
        assert monitor.counter == 6
        assert not any(d.stop for d in decs[:-1])

    def test_spike_resets_counter(self):
        cfg = StopConfig(delta=0.05, omega=6)
        stream = [0.01, 0.01, 0.9] + [0.01] * 6
        _, decs = self.run_stream(stream, cfg)
        assert decs[2].final_counter == 0
        assert decs[-1].stop
        assert decs[-1].step == 9

    def test_exact_threshold_resets(self):
        cfg = StopConfig(delta=0.05, omega=2)
        _, decs = self.run_stream([0.01, 0.05, 0.01, 0.01], cfg)
        assert decs[1].final_counter == 0
        assert decs[-1].stop
        assert decs[-1].step == 4

    def test_counter_reaches_omega_exactly_once_at_stop(self):
        cfg = StopConfig(delta=0.05, omega=4)
        rng = np.random.default_rng(71)
        monitor = StabilityMonitor(cfg)
        hits = 0
        for step in range(1, 201):
            dec = monitor.advance(float(rng.uniform(0.0, 0.1)), step)
            if dec.stop:
                hits += 1
                break
        assert hits == 1
        assert monitor.counter == cfg.omega

    def test_counter_never_exceeds_observations(self):
        cfg = StopConfig(delta=1.0, omega=100)
        monitor = StabilityMonitor(cfg)
        for i in range(50):
            monitor.advance(0.0, i + 1)
            assert monitor.counter == i + 1

    def test_negative_divergence_rejected(self):
        with pytest.raises(ValueError):
            StabilityMonitor(StopConfig()).advance(-0.1, 1)
        with pytest.raises(ValueError):
            StabilityMonitor(StopConfig()).advance(float("nan"), 1)


class TestStabilityMonitor:
    def test_first_frame_never_counts(self):
        monitor = StabilityMonitor(StopConfig(omega=1))
        dec = monitor.observe(make_dist([0.5, 0.5], step=1))
        assert not dec.stop
        assert dec.final_counter == 0
        assert monitor.divergence_trace == []

    def test_plateau_after_step_twelve_stops_at_eighteen(self):
        # Alternating high-divergence pair through step 11, constant from 12.
        a, b = [0.9, 0.1], [0.5, 0.5]
        rows = [a if t % 2 else b for t in range(1, 12)] + [b] * 20
        monitor = StabilityMonitor(StopConfig(delta=0.05, omega=6))
        stopped_at = None
        for dist in make_chain(rows):
            dec = monitor.observe(dist)
            if dec.stop:
                stopped_at = dec.step
                break
        assert stopped_at == 18

    def test_monotone_visible_set_enforced(self):
        monitor = StabilityMonitor(StopConfig())
        monitor.observe(make_dist([0.5, 0.5], (0, 1), step=1))
        with pytest.raises(NonMonotoneVisibleSetError):
            monitor.observe(make_dist([1.0], (0,), step=2))

    @pytest.mark.parametrize(
        "before, after", [((0, 1), (1, 2, 3)), ((2,), (3,)), ((0, 4, 5), (0, 1, 2, 3, 5))]
    )
    def test_support_dropping_a_member_is_rejected(self, before, after):
        # Growing support does not excuse a dropped member, and disjoint
        # supports are one more dropped member: the step is refused whole.
        monitor = StabilityMonitor(StopConfig())
        monitor.observe(make_dist(np.full(len(before), 1.0 / len(before)), before, step=1))
        with pytest.raises(NonMonotoneVisibleSetError):
            monitor.observe(make_dist(np.full(len(after), 1.0 / len(after)), after, step=2))
        assert monitor.divergence_trace == []
        assert (monitor.prev_step, tuple(monitor.prev_members)) == (1, before)
        assert monitor.prev_probs.tolist() == [[1.0 / len(before)] * len(before)]

    def test_step_must_advance(self):
        monitor = StabilityMonitor(StopConfig())
        monitor.observe(make_dist([0.5, 0.5], step=3))
        with pytest.raises(NonMonotoneVisibleSetError):
            monitor.observe(make_dist([0.5, 0.5], step=3))

    def test_observation_after_stop_keeps_first_stop_step(self):
        monitor = StabilityMonitor(StopConfig(delta=0.05, omega=2))
        chain = make_chain([[0.5, 0.5]] * 6)
        decisions = [monitor.observe(d) for d in chain]
        assert decisions[2].stop and decisions[2].step == 3
        assert decisions[5].stop and decisions[5].step == 3
        stop_rows = [r for r in monitor.divergence_trace if r.stopped]
        assert len(stop_rows) == 1 and stop_rows[0].step == 3

    def test_reject_releases_the_stop(self):
        monitor = StabilityMonitor(StopConfig(delta=0.05, omega=2))
        chain = make_chain([[0.5, 0.5]] * 5)
        decisions = [monitor.observe(d) for d in chain[:3]]
        assert decisions[2].stop and decisions[2].step == 3
        with pytest.raises(ValueError):
            monitor.reject(2)
        monitor.reject(3)
        assert monitor.stopped_at is None
        # The counter is kept, so the next quiet step fires a new stop.
        decision = monitor.observe(chain[3])
        assert decision.stop and decision.step == 4
        assert decision.final_counter == 3
        assert [r.step for r in monitor.divergence_trace if r.stopped] == [3, 4]

    def test_repeated_distribution_skips_the_divergence(self, monkeypatch):
        # A repeated step hands the monitor the previous distribution object
        # again; an equal-valued copy takes the matched-support KL path.
        rows = [
            ([0.5, 0.5], (0, 1)),
            None,
            ([0.7, 0.1, 0.2], (0, 1, 2)),
            None,
            ([0.1, 0.8, 0.05, 0.05], (0, 1, 2, 3)),
            None,
            None,
            None,
            None,
        ]
        shared, copied = [], []
        for step, row in enumerate(rows, start=1):
            if row is None:
                shared.append(dataclasses.replace(shared[-1], step=step))
                prev = copied[-1].dist
                copied.append(make_dist(prev.probs.copy(), prev.support, step=step))
            else:
                shared.append(make_dist(row[0], row[1], step=step))
                copied.append(make_dist(row[0], row[1], step=step))
        calls = count_forwards(monkeypatch, "editstop.monitor", name="matched_kl_rows")
        fast = StabilityMonitor(StopConfig(delta=0.05, omega=3))
        fast_decisions = [fast.observe(d) for d in shared]
        assert len(calls) == 2  # steps 3 and 5, the new distributions
        slow = StabilityMonitor(StopConfig(delta=0.05, omega=3))
        slow_decisions = [slow.observe(d) for d in copied]
        assert len(calls) == 2 + 8
        assert fast_decisions == slow_decisions
        assert fast.divergence_trace == slow.divergence_trace
        assert fast.counter == slow.counter
        assert fast.stopped_at == slow.stopped_at == 8

    def test_reject_without_a_stop_rejected(self):
        monitor = StabilityMonitor(StopConfig(delta=0.05, omega=2))
        monitor.observe(make_dist([0.5, 0.5], step=1))
        with pytest.raises(ValueError):
            monitor.reject(1)


def drive_monitor(frames, reasoning_map, cfg: StopConfig, max_steps: int):
    """Score each frame and feed the monitor until it stops or the
    frames or ``max_steps`` run out; returns (decision, monitor)."""
    monitor = StabilityMonitor(cfg)
    for frame in frames[:max_steps]:
        decision = monitor.observe(score_frame(frame, reasoning_map, SimilarityMode.VECTOR_COSINE))
        if decision.stop:
            return decision, monitor
    exhausted = StopDecision(frame.step, StopReason.BUDGET_EXHAUSTED, monitor.counter)
    return exhausted, monitor


class TestRunBlock:
    """The stopping rule over a block of scored activation frames."""

    def unit_map(self, d=3):
        u = np.zeros(d)
        u[0] = 1.0
        return EvolutionVector(u, "m", 4)

    def test_constant_frames_stop_at_omega_plus_one(self):
        rng = np.random.default_rng(72)
        vectors = {i: rng.normal(size=3) for i in range(4)}
        frames = constant_frames(vectors, 30)
        for omega in (2, 4, 6):
            cfg = StopConfig(delta=0.05, omega=omega)
            dec, _ = drive_monitor(frames, self.unit_map(), cfg, 64)
            assert dec.stop
            assert dec.reason is StopReason.RUN_LENGTH_MET
            assert dec.step == omega + 1

    def test_never_stable_exhausts_budget(self):
        # Token 0 alternates between aligned and orthogonal activations, so
        # consecutive distributions keep a divergence far above threshold.
        aligned = np.array([1.0, 0.0, 0.0])
        orthogonal = np.array([0.0, 1.0, 0.0])
        steady = np.array([0.0, 0.0, 1.0])
        frames = [
            frame_from({0: aligned if t % 2 else orthogonal, 1: steady}, t)
            for t in range(1, 200)
        ]
        cfg = StopConfig(delta=0.05, omega=6)
        dec, monitor = drive_monitor(frames, self.unit_map(), cfg, 64)
        assert dec.reason is StopReason.BUDGET_EXHAUSTED
        assert dec.step == 64
        assert dec.stop
        assert all(r.divergence >= 0.05 for r in monitor.divergence_trace)

    def test_identical_tail_guarantees_stop(self):
        rng = np.random.default_rng(73)
        for trial in range(20):
            switch = int(rng.integers(2, 15))
            omega = int(rng.integers(1, 7))
            tail_vectors = {i: rng.normal(size=3) for i in range(3)}
            frames = [
                frame_from({i: rng.normal(size=3) for i in range(3)}, t)
                for t in range(1, switch)
            ]
            frames.extend(constant_frames(tail_vectors, 40, start_step=switch))
            cfg = StopConfig(delta=0.05, omega=omega)
            dec, _ = drive_monitor(frames, self.unit_map(), cfg, 1000)
            assert dec.stop
            assert dec.step <= switch + omega + 1

    def test_deterministic_traces(self):
        rng = np.random.default_rng(74)
        frames = []
        vis = []
        for t in range(1, 40):
            vis = sorted(set(vis) | {int(rng.integers(0, 10))})
            frames.append(frame_from({i: np.sin(np.arange(3) + i + 0.1 * t) for i in vis}, t))
        cfg = StopConfig(delta=0.01, omega=4)
        dec1, monitor1 = drive_monitor(frames, self.unit_map(), cfg, 64)
        dec2, monitor2 = drive_monitor(frames, self.unit_map(), cfg, 64)
        assert dec1 == dec2
        assert monitor1.divergence_trace == monitor2.divergence_trace

    def test_monotone_violation_raises(self):
        rng = np.random.default_rng(75)
        v = {i: rng.normal(size=3) for i in range(3)}
        frames = [frame_from(v, 1), frame_from({0: v[0], 1: v[1]}, 2)]
        with pytest.raises(NonMonotoneVisibleSetError):
            drive_monitor(frames, self.unit_map(), StopConfig(), 64)


class TestTraceCsv:
    def test_csv_shape_and_content(self):
        cfg = StopConfig(delta=0.05, omega=2)
        monitor = StabilityMonitor(cfg)
        for step, d in enumerate((0.2, 0.01, 0.01), 1):
            monitor.advance(d, step, matched_support=3)
        text = trace_to_csv(monitor)
        lines = text.strip().split("\n")
        assert lines[0] == "step,divergence,matched_support,counter,stopped"
        assert len(lines) == 4
        assert lines[3] == "3,0.01,3,2,1"

    def test_nan_skip_row_serializes(self):
        monitor = StabilityMonitor(StopConfig())
        monitor.divergence_trace.append(TraceRow(5, float("nan"), 0, 2, False))
        text = trace_to_csv(monitor)
        assert "nan" in text
        assert math.isnan(float(text.strip().split("\n")[1].split(",")[1]))
