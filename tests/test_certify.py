"""Tests for stability certificates, contraction estimation, and calibration."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from helpers import (
    geometric_chain,
    make_chain,
    make_dist,
    random_simplex,
    subdelta_walks,
    verify_runlength_bound,
)

from editstop.certify import (
    DELTA_GRID,
    OMEGA_GRID,
    Certificate,
    ContractionEstimate,
    MarginReport,
    build_certificate,
    calibrate_pac,
    estimate_contraction,
    fmt_real,
    global_argmax_certificate,
    local_argmax_certificate,
    margin_quantile,
    tail_budget,
    tv_budget,
)
from editstop.errors import (
    AlphaNotContractiveError,
    EmptyInputError,
    NoAdmissiblePairError,
    NoValidSamplesError,
    SupportMismatchError,
    WindowTooShortError,
)
from editstop.linalg import ProbVector, total_variation
from editstop.monitor import StabilityMonitor, StopConfig


class TestTvBudget:
    def test_frozen_values(self):
        assert tv_budget(0.02, 1) == pytest.approx(0.1, rel=1e-12)
        assert tv_budget(0.05, 6) == pytest.approx(0.9486832980505138, rel=1e-12)

    def test_vanishing_threshold(self):
        assert tv_budget(1e-12, 6) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            tv_budget(0.0, 6)
        with pytest.raises(ValueError):
            tv_budget(0.05, 0)


class TestMarginReport:
    def test_from_distribution(self):
        d = make_dist([0.5, 0.3, 0.2], (4, 7, 9), step=11)
        m = MarginReport.from_distribution(d)
        assert m.argmax_index == 4
        assert m.margin == pytest.approx(0.2)
        assert m.step == 11
        assert m.support_size == 3

    def test_singleton_margin_is_one(self):
        m = MarginReport.from_distribution(make_dist([1.0], (5,), step=2))
        assert m.margin == 1.0
        assert m.support_size == 1

    def test_tie_breaks_to_lowest_token(self):
        m = MarginReport.from_distribution(make_dist([0.4, 0.4, 0.2], (2, 5, 8)))
        assert m.argmax_index == 2
        assert m.margin == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarginReport(0, 1.5, 0, 2)
        with pytest.raises(ValueError):
            MarginReport(0, 0.5, 0, 1)


class TestVerifyRunlengthBound:
    def test_constant_window_passes(self):
        chain = make_chain([[0.25, 0.75]] * 7)
        assert verify_runlength_bound(chain, 0.05, 6)

    def test_single_step_reduces_to_pinsker(self):
        rng = np.random.default_rng(80)
        walks = subdelta_walks(rng, 500, 3, 0.02, 1)
        for i in range(walks.shape[0]):
            chain = make_chain(walks[i])
            assert verify_runlength_bound(chain, 0.02, 1)

    def test_random_subthreshold_walks_never_violate(self):
        rng = np.random.default_rng(81)
        walks = subdelta_walks(rng, 1000, 4, 0.05, 6)
        for i in range(walks.shape[0]):
            chain = make_chain(walks[i])
            assert verify_runlength_bound(chain, 0.05, 6)

    def test_growing_supports_use_running_intersection(self):
        rows = [
            make_dist([0.5, 0.5], (0, 1), step=1),
            make_dist([0.34, 0.33, 0.33], (0, 1, 2), step=2),
            make_dist([0.25, 0.25, 0.25, 0.25], (0, 1, 2, 3), step=3),
        ]
        assert verify_runlength_bound(rows, 0.5, 2)

    def test_window_too_short(self):
        chain = make_chain([[0.5, 0.5]] * 3)
        with pytest.raises(WindowTooShortError):
            verify_runlength_bound(chain, 0.05, 6)

    def test_trace_precondition_checked(self):
        chain = make_chain([[0.5, 0.5]] * 4)
        monitor = StabilityMonitor(StopConfig(delta=0.05, omega=3))
        for step, d in enumerate((0.01, 0.2, 0.01), 1):
            monitor.advance(d, step)
        with pytest.raises(ValueError):
            verify_runlength_bound(chain, 0.05, 3, monitor=monitor)

    def test_trace_precondition_ok(self):
        chain = make_chain([[0.5, 0.5]] * 4)
        monitor = StabilityMonitor(StopConfig(delta=0.05, omega=3))
        for step, d in enumerate((0.01, 0.02, 0.01), 1):
            monitor.advance(d, step)
        assert verify_runlength_bound(chain, 0.05, 3, monitor=monitor)


class TestLocalArgmaxCertificate:
    def test_singleton_passes_at_defaults(self):
        margin = MarginReport(0, 1.0, 10, 1)
        assert local_argmax_certificate(margin, StopConfig())

    def test_default_config_fails_any_real_margin(self):
        # The default budget exceeds 0.5, so no two-candidate margin can pass.
        for m in (0.1, 0.5, 1.0):
            margin = MarginReport(0, m, 10, 4)
            assert not local_argmax_certificate(margin, StopConfig())

    def test_small_threshold_passes(self):
        margin = MarginReport(0, 0.1, 10, 4)
        cfg = StopConfig(delta=1e-4, omega=6)
        assert tv_budget(1e-4, 6) == pytest.approx(0.04242640687119285, rel=1e-12)
        assert local_argmax_certificate(margin, cfg)


class TestEstimateContraction:
    def test_exact_geometric_ratio(self):
        pi = [0.5, 0.3, 0.2]
        d = [0.1, -0.05, -0.05]
        for alpha in (0.3, 0.5, 0.8):
            chain = geometric_chain(pi, d, alpha, 12)
            est = estimate_contraction([chain])
            assert est.alpha_hat == pytest.approx(alpha, abs=1e-9)
            assert est.skipped_small_denominators == 0
            assert est.alpha_hat < 1.0

    def test_constant_trace_has_no_valid_samples(self):
        chain = make_chain([[0.5, 0.5]] * 5)
        with pytest.raises(NoValidSamplesError):
            estimate_contraction([chain])

    def test_mixed_traces_match_bruteforce_max(self):
        rng = np.random.default_rng(82)
        traces = []
        for _ in range(10):
            rows = [random_simplex(rng, 4) for _ in range(6)]
            traces.append(make_chain(rows))
        est = estimate_contraction(traces)
        expected = []
        for trace in traces:
            pvs = [d.dist for d in trace]
            for r in range(1, len(pvs) - 1):
                den = total_variation(pvs[r], pvs[r - 1])
                if den >= 1e-9:
                    expected.append(total_variation(pvs[r + 1], pvs[r]) / den)
        assert est.alpha_hat == pytest.approx(max(expected), rel=1e-12)
        assert est.samples_used == len(expected)

    def test_zero_denominators_are_skipped_and_counted(self):
        rows = [[0.5, 0.5], [0.5, 0.5], [0.6, 0.4], [0.7, 0.3], [0.75, 0.25]]
        est = estimate_contraction([make_chain(rows)])
        assert est.skipped_small_denominators == 1
        assert est.samples_used == 2
        assert est.alpha_hat == pytest.approx(1.0, rel=1e-12)
        assert est.alpha_hat >= 1.0

    def test_short_trace_rejected(self):
        with pytest.raises(WindowTooShortError):
            estimate_contraction([make_chain([[0.5, 0.5]] * 2)])

    def test_support_change_rejected(self):
        rows = [
            make_dist([0.5, 0.5], (0, 1), step=1),
            make_dist([0.5, 0.5], (0, 1), step=2),
            make_dist([0.4, 0.3, 0.3], (0, 1, 2), step=3),
        ]
        with pytest.raises(SupportMismatchError):
            estimate_contraction([rows])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            estimate_contraction([])


class TestTailBudget:
    def test_memoryless_chain(self):
        delta = 0.02
        assert tail_budget(0.0, delta) == pytest.approx(math.sqrt(delta / 2), rel=1e-12)

    def test_frozen_half_contraction(self):
        assert tail_budget(0.5, 0.02) == pytest.approx(0.2, rel=1e-12)

    def test_weak_contraction_blows_up(self):
        delta = 0.05
        assert tail_budget(0.99, delta) == pytest.approx(
            100.0 * math.sqrt(delta / 2), rel=1e-12
        )

    def test_noncontractive_rejected(self):
        with pytest.raises(AlphaNotContractiveError):
            tail_budget(1.0, 0.05)
        with pytest.raises(AlphaNotContractiveError):
            tail_budget(-0.1, 0.05)
        with pytest.raises(ValueError):
            tail_budget(0.5, 0.0)


class TestGlobalArgmaxCertificate:
    def test_frozen_passing_example(self):
        margin = MarginReport(0, 1.0, 5, 2)
        cfg = StopConfig(delta=1e-4, omega=2)
        combined = tv_budget(1e-4, 2) + tail_budget(0.0, 1e-4)
        assert combined == pytest.approx(0.021213203435596423, rel=1e-10)
        assert global_argmax_certificate(margin, cfg, 0.0)

    def test_zero_margin_fails(self):
        margin = MarginReport(0, 0.0, 5, 2)
        assert not global_argmax_certificate(margin, StopConfig(delta=1e-8, omega=1), 0.0)

    def test_singleton_passes(self):
        margin = MarginReport(0, 1.0, 5, 1)
        assert global_argmax_certificate(margin, StopConfig(), 0.9)

    def test_noncontractive_rejected(self):
        margin = MarginReport(0, 1.0, 5, 2)
        with pytest.raises(AlphaNotContractiveError):
            global_argmax_certificate(margin, StopConfig(), 1.0)

    def test_passing_cert_on_contractive_chain_never_flips(self):
        # Geometric approach to a fixed point with ratio 0.5. Run the
        # monitor to find the stop, certify, then simulate 100 more steps.
        alpha, delta, omega = 0.5, 1e-3, 2
        pi = np.array([0.6, 0.4])
        d = np.array([0.2, -0.2])
        chain = geometric_chain(pi, d, alpha, 40)
        cfg = StopConfig(delta=delta, omega=omega)
        monitor = StabilityMonitor(cfg)
        stop_idx = None
        for idx, dist in enumerate(chain):
            if monitor.observe(dist).stop:
                stop_idx = idx
                break
        assert stop_idx is not None
        stopped = chain[stop_idx].dist
        margin = MarginReport.from_distribution(chain[stop_idx])
        est = estimate_contraction([chain[max(0, stop_idx - 2) : stop_idx + 8]])
        assert est.alpha_hat == pytest.approx(alpha, abs=1e-9)
        assert global_argmax_certificate(margin, cfg, est.alpha_hat)
        budget = tail_budget(est.alpha_hat, delta)
        for s in range(1, 101):
            future = ProbVector(pi + alpha ** (stop_idx + s) * d)
            assert future.argmax_token() == margin.argmax_index
            assert total_variation(future, stopped) <= budget + 1e-9


class TestMarginQuantile:
    def test_frozen_two_margin_example(self):
        assert margin_quantile([0.1, 0.9], 0.5) == 0.9

    def test_nearest_rank_from_top(self):
        margins = [0.1 * i for i in range(1, 11)]
        # beta = 0.1: rank ceil(0.9 * 10) = 9 from the top => 2nd smallest.
        assert margin_quantile(margins, 0.1) == pytest.approx(0.2)

    def test_at_least_one_minus_beta_fraction_reaches_quantile(self):
        rng = np.random.default_rng(85)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            margins = rng.random(n).tolist()
            beta = float(rng.uniform(0.05, 0.95))
            q = margin_quantile(margins, beta)
            frac = sum(1 for m in margins if m >= q) / n
            assert frac >= (1.0 - beta) - 1e-12

    def test_validation(self):
        with pytest.raises(EmptyInputError):
            margin_quantile([], 0.1)
        with pytest.raises(ValueError):
            margin_quantile([0.5], 0.0)


class TestCalibratePac:
    def test_default_grids_are_inadmissible_even_for_perfect_margins(self):
        # Smallest grid budget is (6 + 1) * sqrt(0.025 / 2) > 0.5, so no
        # pair fits under half of any probability margin.
        smallest = min(
            tv_budget(d, o) + tail_budget(0.0, d)
            for d in DELTA_GRID
            for o in OMEGA_GRID
        )
        assert smallest > 0.5
        with pytest.raises(NoAdmissiblePairError):
            calibrate_pac([1.0] * 20, 0.1, 0.0)

    def test_custom_grid_admissibility_invariant(self):
        margins = [1.0] * 20
        result = calibrate_pac(
            margins, 0.1, 0.0, delta_grid=(0.001, 0.01, 0.05), omega_grid=(1, 2, 6)
        )
        assert result.margin_quantile == 1.0
        assert result.admissible_pairs
        for d, o in result.admissible_pairs:
            assert tv_budget(d, o) + tail_budget(0.0, d) <= result.margin_quantile / 2

    def test_chosen_minimizes_span_then_maximizes_threshold(self):
        margins = [1.0] * 20
        result = calibrate_pac(
            margins, 0.1, 0.0, delta_grid=(0.001, 0.002, 0.005), omega_grid=(2, 3)
        )
        chosen_delta, chosen_omega = result.chosen
        min_omega = min(o for _, o in result.admissible_pairs)
        assert chosen_omega == min_omega
        best_delta = max(d for d, o in result.admissible_pairs if o == min_omega)
        assert chosen_delta == best_delta

    def test_quantile_drives_admissibility(self):
        grids = {"delta_grid": (0.002,), "omega_grid": (2,)}
        need = 2 * (tv_budget(0.002, 2) + tail_budget(0.0, 0.002))
        high = calibrate_pac([need + 0.01] * 10, 0.1, 0.0, **grids)
        assert high.chosen == (0.002, 2)
        with pytest.raises(NoAdmissiblePairError):
            calibrate_pac([need - 0.01] * 10, 0.1, 0.0, **grids)

    def test_alpha_widens_budget(self):
        grids = {"delta_grid": (0.002,), "omega_grid": (2,)}
        margins = [2 * (tv_budget(0.002, 2) + tail_budget(0.0, 0.002)) + 0.001] * 10
        calibrate_pac(margins, 0.1, 0.0, **grids)
        with pytest.raises(NoAdmissiblePairError):
            calibrate_pac(margins, 0.1, 0.9, **grids)

    def test_validation(self):
        with pytest.raises(AlphaNotContractiveError):
            calibrate_pac([1.0], 0.1, 1.0)
        with pytest.raises(EmptyInputError):
            calibrate_pac([1.0], 0.1, 0.0, delta_grid=())

    def test_json_dict_uses_decimal_strings(self):
        result = calibrate_pac(
            [1.0] * 5, 0.1, 0.25, delta_grid=(0.001,), omega_grid=(2,)
        )
        d = result.to_json_dict()
        assert d["beta"] == "0.1"
        assert d["alpha_hat"] == "0.25"
        assert isinstance(d["chosen"]["delta"], str)
        json.dumps(d)


class TestCertificate:
    def test_build_minimal(self):
        margin = MarginReport(3, 0.2, 9, 4)
        cfg = StopConfig(delta=1e-4, omega=6)
        cert = build_certificate(9, margin, cfg)
        assert cert.local_pass
        assert cert.tail_budget is None
        assert cert.global_pass is None
        assert cert.tv_budget == pytest.approx(tv_budget(1e-4, 6), rel=1e-12)

    def test_build_with_contraction(self):
        margin = MarginReport(3, 0.5, 9, 4)
        cfg = StopConfig(delta=1e-4, omega=6)
        cert = build_certificate(9, margin, cfg, alpha_hat=0.5, margin_quantile=0.5)
        assert cert.global_pass
        assert cert.pac_pass
        assert build_certificate(9, margin, cfg, margin_quantile=0.6).pac_pass is False

    def test_json_round_trip_fields(self):
        margin = MarginReport(3, 0.125, 9, 4)
        cfg = StopConfig(delta=1e-4, omega=6)
        cert = build_certificate(9, margin, cfg, alpha_hat=0.25)
        d = cert.to_json_dict()
        assert d["stop_step"] == 9
        assert d["margin"] == "0.125"
        assert d["delta"] == "0.0001"
        assert isinstance(d["tv_budget"], str)
        assert d["local_pass"] is True
        json.dumps(d)

    def test_certificate_stores_only_its_inputs(self):
        assert [f.name for f in dataclasses.fields(Certificate)] == [
            "stop_step", "omega", "delta", "margin_report", "alpha_hat", "margin_quantile",
        ]

    @pytest.mark.parametrize(
        "margin, quantile",
        [
            (0.1 - 3e-14, 0.1),  # reported as "0.1": rounded up onto the quantile
            (0.1 + 3e-14, 0.1 + 3e-14),  # rounded down below the quantile
            (0.1, 0.1),
            (0.4, 0.1),
            (0.01, 0.1),
        ],
    )
    def test_rebuilt_from_its_report_reaches_the_same_verdicts(self, margin, quantile):
        # cmd_certify rebuilds a certificate from the fields a trace
        # reports; every budget and verdict must come out unchanged.
        cfg = StopConfig(delta=1e-4, omega=6)
        inputs = dict(cfg=cfg, alpha_hat=0.25, margin_quantile=quantile)
        d = build_certificate(9, MarginReport(3, margin, 9, 4), **inputs).to_json_dict()
        report = MarginReport(d["argmax_index"], float(d["margin"]), d["margin_step"], 4)
        rebuilt = build_certificate(d["stop_step"], report, **inputs)
        assert rebuilt.to_json_dict() == d
        assert d["pac_pass"] is (float(fmt_real(margin)) >= quantile)

    def test_fmt_real_12_significant_digits(self):
        assert fmt_real(1 / 3) == "0.333333333333"
        assert fmt_real(0.1) == "0.1"
        assert fmt_real(1234567.0) == "1234567"
