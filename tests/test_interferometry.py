import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfall import (
    CavityFallError,
    DomainError,
    ExperimentConfig,
    Grid1D,
    ValidationError,
    init_gaussian,
    interference_signal,
    load_scenario,
    mode_width,
    propagate,
    q_threshold,
    snr,
    snr_peak,
    snr_trace,
)
from cavityfall import interferometry
from cavityfall.interferometry import _N_SAMPLES, _Q_REL_TOL, TRACE_SAMPLES, WIDTH_MODELS, _sampled_peak
from cavityfall.units import c, hbar
from oracles import analytic_gaussian_oracle

# Frozen from an independent 60-digit evaluation of the interference signal
# and SNR (see acceptance suite for the full set).
SN_PEAK_PAPER = {3e10: 0.446573628640873, 5e10: 3.03880359627789, 7e10: 9.57503519976474}
SN_PEAK_CORRECTED = {3e10: 9.02234494594333e-4, 5e10: 1.57678128885721e-3, 7e10: 2.44093251943846e-3}
I_AT_2TAU = {"paper_verbatim": 5.24441449019593e-17, "corrected": 2.78582486936406e-22}
WIDTH_AT_TAU = {"paper_verbatim": 0.122099012198104, "corrected": 0.100120378149358}
T_CROSS_7E10 = 7.89388757712735e-5
Q_MIN_TRUE = 36955286105.5196

# the shipped CaF2 whispering-gallery experiment (Q = 7e10, corrected widths)
REFERENCE = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "caf2_wgmc.json").experiment
PAPER = replace(REFERENCE, width_model="paper_verbatim")
CORRECTED = replace(REFERENCE, width_model="corrected")
# no decay and a mode far wider than y_out: the envelope is exactly 1, so
# I(t) is the modulation 1 - cos(dphi) itself
FLAT = replace(PAPER, Q=1e300, sigma0=1e150)


def measured_phase(cfg, t):
    """dphi in [0, pi] recovered from a flat-envelope signal 2*sin(dphi/2)^2."""
    return 2.0 * math.asin(math.sqrt(float(interference_signal(cfg, t)) / 2.0))


class TestExperimentConfig:
    def test_reference_parameters(self):
        cfg = CORRECTED
        assert (cfg.lambda0, cfg.sigma0, cfg.y_out) == (1.064e-6, 0.1, 0.5)
        assert (cfg.P_avg, cfg.eta_det, cfg.T_int) == (1e-3, 1e-3, 3600.0)
        assert (cfg.Q, cfg.n_s, cfg.g) == (7e10, 1.43, 9.81)
        assert cfg.width_model == "corrected"
        assert cfg.omega0 == pytest.approx(2.0 * math.pi * c / 1.064e-6, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            replace(CORRECTED, eta_det=1.5)
        with pytest.raises(ValidationError):
            replace(CORRECTED, P_avg=0.0)
        with pytest.raises(ValidationError):
            replace(CORRECTED, n_s=0.5)
        with pytest.raises(ValidationError):
            replace(CORRECTED, width_model="verbatim")

    @pytest.mark.parametrize(
        "changes, evaluated, error, key, named",
        [
            (dict(sigma0=1e160), False, ValidationError, "sigma0", "its square"),
            (dict(y_out=1e200), False, ValidationError, "y_out", "its square"),
            (dict(P_avg=1e300, T_int=1e300), False, ValidationError, None, "photon count"),
            (dict(lambda0=1e-300), False, ValidationError, "lambda0", "photon energy"),
            # the config builds: its trace window is checked where the signal
            # model is evaluated on it
            (dict(Q=1e308), True, ValidationError, "Q", "trace window"),
            (dict(sigma0=1e-150, y_out=1e150), True, DomainError, None, "overflows on its trace window"),
        ],
    )
    def test_rejects_values_the_model_cannot_evaluate(self, changes, evaluated, error, key, named):
        # the key names the field at fault, or none for a check across fields
        if evaluated:
            cfg = replace(CORRECTED, **changes)
        with pytest.raises(error, match=named) as err:
            snr_peak(cfg) if evaluated else replace(CORRECTED, **changes)
        assert err.value.key == key

    @pytest.mark.parametrize("evaluate", [interference_signal, snr, mode_width])
    def test_times_the_model_cannot_evaluate_are_an_error(self, evaluate):
        # the model overflows at the end of this config's trace window
        cfg = replace(CORRECTED, Q=1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows") as err:
                evaluate(cfg, [0.0, cfg.window])
        assert err.value.key == "t"


class TestModeWidth:
    def test_initial_width_both_models(self):
        assert float(mode_width(PAPER, 0.0)) == 0.1
        assert float(mode_width(CORRECTED, 0.0)) == 0.1

    def test_corrected_characteristic_time(self):
        # c^2 t/(2 w0 ns^2 sigma0) = sigma0 doubles the variance
        cfg = CORRECTED
        t = 2.0 * cfg.omega0 * cfg.n_s**2 * cfg.sigma0**2 / c**2
        assert float(mode_width(cfg, t)) == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-14)

    def test_frozen_widths_at_one_lifetime(self):
        t = 7e10 / PAPER.omega0
        assert float(mode_width(PAPER, t)) == pytest.approx(WIDTH_AT_TAU["paper_verbatim"], rel=1e-12)
        assert float(mode_width(CORRECTED, t)) == pytest.approx(WIDTH_AT_TAU["corrected"], rel=1e-12)

    def test_corrected_matches_gaussian_oracle(self):
        # hbar/m = c^2/(ns^2 w0) rewrites the standard spreading law
        cfg = CORRECTED
        mass = cfg.n_s**2 * hbar * cfg.omega0 / c**2
        for t in (1e-5, 1e-4, 1e-3, 1e-2):
            oracle = analytic_gaussian_oracle(cfg.sigma0, mass / hbar, 0.0, t)
            assert float(mode_width(cfg, t)) == pytest.approx(oracle.width, rel=1e-12)

    def test_corrected_matches_propagated_envelope(self):
        # the closed-form corrected law must agree with a real SI propagation
        # (mass m/hbar in s/m^2, 1.6 ms ~ 4 spreading times) to 1e-6
        cfg = CORRECTED
        mass_over_hbar = cfg.n_s**2 * cfg.omega0 / c**2
        grid = Grid1D(-3.2, 3.2, 1024)
        trace = propagate(
            grid, init_gaussian(grid, cfg.sigma0), mass=mass_over_hbar, g_tilde=0.0, dt=2e-5, n_steps=80, stride=20
        )
        for t, width in zip(trace.t[1:], trace.width[1:]):
            assert width == pytest.approx(float(mode_width(cfg, float(t))), rel=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            mode_width(PAPER, -1.0)


class TestPhaseDifference:
    """dphi = omega0*g*t*2*y_out/c^2, read from the modulation of the signal."""

    def test_zero_at_release(self):
        assert float(interference_signal(FLAT, 0.0)) == 0.0

    def test_reference_value(self):
        value = measured_phase(FLAT, 1e-4)
        assert value == pytest.approx(FLAT.omega0 * 9.81 * 1e-4 * 1.0 / c**2, rel=1e-15)
        assert value == pytest.approx(1.932e-5, rel=1e-3)

    def test_linear_in_out_coupling_height(self):
        doubled = replace(FLAT, y_out=1.0)
        assert measured_phase(doubled, 2e-4) == pytest.approx(2.0 * measured_phase(FLAT, 2e-4), rel=1e-15)

    def test_independent_of_medium_at_fixed_omega0(self):
        vacuum = replace(FLAT, n_s=1.0)
        t = np.linspace(0.0, 1e-3, 64)
        assert np.array_equal(interference_signal(FLAT, t), interference_signal(vacuum, t))


class TestInterferenceSignal:
    def test_fully_destructive_at_release(self):
        assert float(interference_signal(PAPER, 0.0)) == 0.0
        assert float(interference_signal(CORRECTED, 0.0)) == 0.0

    def test_maximal_constructive_limit(self):
        # with no decay and a fully expanded mode, dphi = pi gives 1 - cos = 2
        cfg = replace(CORRECTED, Q=1e30, sigma0=1e9, y_out=0.5)
        t_pi = math.pi * c**2 / (cfg.omega0 * cfg.g * 2.0 * cfg.y_out)
        assert float(interference_signal(cfg, t_pi)) == pytest.approx(2.0, rel=1e-6)

    def test_frozen_signal_at_two_lifetimes(self):
        t = 2.0 * 7e10 / PAPER.omega0
        assert float(interference_signal(PAPER, t)) == pytest.approx(
            I_AT_2TAU["paper_verbatim"], rel=1e-12
        )
        assert float(interference_signal(CORRECTED, t)) == pytest.approx(
            I_AT_2TAU["corrected"], rel=1e-12
        )

    def test_small_angle_quadratic_growth(self):
        # for dphi < 1e-3 the modulation term equals dphi^2/2 to 1e-6
        for t in (1e-6, 1e-5, 1e-4, 5e-3):
            dphi = PAPER.omega0 * PAPER.g * t * 2.0 * PAPER.y_out / c**2
            assert dphi < 1e-3
            envelope = math.exp(-PAPER.omega0 * t / PAPER.Q - PAPER.y_out**2 / float(mode_width(PAPER, t)) ** 2)
            modulation = float(interference_signal(PAPER, t)) / envelope
            assert modulation == pytest.approx(dphi**2 / 2.0, rel=1e-6)


@settings(max_examples=80, derandomize=True)
@given(
    t=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=1e8, max_value=1e12),
    model=st.sampled_from(("paper_verbatim", "corrected")),
)
def test_signal_nonnegative_property(t, q, model):
    cfg = replace(REFERENCE, Q=q, width_model=model)
    assert float(interference_signal(cfg, t)) >= 0.0
    assert float(snr(cfg, t)) >= 0.0


class TestSnr:
    def test_zero_signal_zero_snr(self):
        assert float(snr(PAPER, 0.0)) == 0.0

    def test_square_root_integration_time_scaling(self):
        t = 1e-4
        quadrupled = replace(PAPER, T_int=4.0 * 3600.0)
        assert float(snr(quadrupled, t)) == pytest.approx(2.0 * float(snr(PAPER, t)), rel=1e-12)

    def test_monotone_in_power_efficiency_quality(self):
        t = 1e-4
        base = float(snr(PAPER, t))
        assert float(snr(replace(PAPER, P_avg=2e-3), t)) > base
        assert float(snr(replace(PAPER, eta_det=2e-3), t)) > base
        assert float(snr(replace(PAPER, Q=1e11), t)) > base

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, [0.0, -1e-300]])
    def test_signal_and_snr_reject_bad_times(self, t):
        for public in (interference_signal, snr):
            with pytest.raises(ValidationError, match="must be finite and >= 0") as err:
                public(PAPER, t)
            assert err.value.key == "t"


class TestSnrTrace:
    def test_frozen_peaks_paper_model(self):
        for q, expected in SN_PEAK_PAPER.items():
            trace = snr_trace(replace(PAPER, Q=q))
            assert trace.sn_peak == pytest.approx(expected, rel=1e-9)

    def test_frozen_peaks_corrected_model(self):
        for q, expected in SN_PEAK_CORRECTED.items():
            trace = snr_trace(replace(CORRECTED, Q=q))
            assert trace.sn_peak == pytest.approx(expected, rel=1e-9)

    def test_crossing_found_and_refined(self):
        trace = snr_trace(PAPER)
        assert trace.t_cross is not None
        assert trace.t_cross == pytest.approx(T_CROSS_7E10, rel=1e-6)
        assert float(snr(PAPER, trace.t_cross)) == pytest.approx(1.0, abs=1e-6)

    def test_no_crossing_below_threshold(self):
        trace = snr_trace(replace(PAPER, Q=3e10))
        assert trace.t_cross is None
        assert trace.sn_peak < 1.0

    def test_crossing_inside_the_refined_peak(self):
        # just above the threshold Q every sample stays below 1 (the largest
        # 0.99999859 at 512 samples, 0.99999982 at 2001), and only the refined
        # peak, 1 + 4.9e-11, reaches it: the crossing lies before that peak.
        # The 512-sample scan is the Q bisection's, which seeks no crossing
        cfg = replace(PAPER, Q=3.6955286106e10)
        (_, _, sn, _), (_, sn_peak), _ = _sampled_peak(cfg, _N_SAMPLES, cfg.Q)
        assert np.max(sn) < 1.0 <= sn_peak
        trace = snr_trace(cfg)
        assert np.max(trace.sn) < 1.0 <= trace.sn_peak
        assert trace.t_cross < trace.t_peak
        assert float(snr(cfg, trace.t_cross)) == pytest.approx(1.0, abs=1e-6)

    def test_peak_inside_the_last_sample_interval(self):
        # Sn peaks 0.37 of a sample interval before the window's end: the
        # largest sample is the last, 3.8e-8 below the peak
        cfg = replace(CORRECTED, Q=1e11, y_out=0.42545)
        t = np.linspace(0.0, cfg.window, TRACE_SAMPLES)
        dense = np.asarray(snr(cfg, np.linspace(t[-2], t[-1], 10001)))
        t_peak, sn_peak = snr_peak(cfg)
        assert t[-2] < t_peak < t[-1]
        assert sn_peak == pytest.approx(float(np.max(dense)), rel=1e-9)

    def test_trace_invariants(self):
        trace = snr_trace(PAPER)
        assert np.all(trace.i_signal >= 0.0)
        assert np.all(trace.sn >= 0.0)
        assert trace.i_signal[0] == 0.0

    def test_pointwise_ordering_in_q(self):
        t = np.linspace(0.0, 10.0 * 7e10 / PAPER.omega0, 513)[1:]
        sn_by_q = [np.asarray(snr(replace(PAPER, Q=q), t)) for q in (3e10, 5e10, 7e10)]
        assert np.all(sn_by_q[0] < sn_by_q[1])
        assert np.all(sn_by_q[1] < sn_by_q[2])

    def test_vanishing_power_gives_flat_zero(self):
        trace = snr_trace(replace(PAPER, P_avg=1e-300))
        assert trace.t_cross is None
        assert np.max(trace.sn) < 1e-100

    def test_crossing_closer_to_zero_than_the_smallest_float(self):
        # Sn passes 1 below t = 5e-324 s: the crossing bisection runs out of
        # floats between 0 and its upper end and stops at t_cross = 0
        cfg = replace(PAPER, sigma0=1.0, eta_det=1.0, T_int=4.41e196, g=1.439e221)
        trace = snr_trace(cfg)
        assert trace.t_cross == 0.0
        assert 0.0 < trace.t_peak < cfg.window

    def test_peak_search_stops_when_floats_run_out(self):
        # the window, 2.6e-321 s, holds about 500 subnormal floats: the golden
        # section runs out of floats before its bracket is 1e-9 relative wide
        cfg = replace(CORRECTED, Q=2e-306, lambda0=2.4e-7, sigma0=0.23, g=2.2e265, T_int=9.6e175)
        trace = snr_trace(cfg)
        assert 0.0 < trace.t_peak < cfg.window


class TestRefinementKeepsItsBits:
    """The peak and crossing refinement evaluates Sn on one Python float at a
    time, with no check.  It must give the bits of snr on that time, the
    checked path through a 0-d array: np.exp and libm pow for **2, where
    math.exp or x*x would differ in the last bit."""

    @pytest.mark.parametrize("model", WIDTH_MODELS)
    # the last: a config's kernel at another Q than its own, as the Q
    # bisection runs it, against the config at that Q
    @pytest.mark.parametrize("q", [1e9, 3.7e10, 1e12, pytest.param((7e10, 2.3e11), id="7e10-at-2.3e11")])
    def test_scalar_sn_matches_snr(self, model, q):
        q, kernel_q = q if isinstance(q, tuple) else (q, None)
        cfg = replace(REFERENCE, Q=q, width_model=model)
        if kernel_q is None:
            sn_at = _sampled_peak(cfg, _N_SAMPLES, q)[2]
        else:
            sn_at, cfg = _sampled_peak(cfg, _N_SAMPLES, kernel_q)[2], replace(cfg, Q=kernel_q)
        times = np.random.default_rng(2048).uniform(0.0, cfg.window, 4000).tolist() + [0.0, cfg.window]
        differ = [t for t in times if sn_at(t).hex() != float(snr(cfg, t)).hex()]
        assert differ == []

    @pytest.mark.parametrize(
        "cfg",
        [
            PAPER,
            CORRECTED,
            replace(PAPER, Q=3e10),
            replace(CORRECTED, Q=1e12),
            # a signal that underflows to 0: the peak is the first sample, unrefined
            replace(PAPER, g=7.6e-249),
            # the subnormal window of test_peak_search_stops_when_floats_run_out
            replace(CORRECTED, Q=2e-306, lambda0=2.4e-7, sigma0=0.23, g=2.2e265, T_int=9.6e175),
        ],
    )
    def test_snr_peak_is_the_trace_peak(self, cfg):
        trace = snr_trace(cfg)
        assert snr_peak(cfg) == (trace.t_peak, trace.sn_peak)


class TestQThreshold:
    def test_threshold_matches_independent_root(self):
        result = q_threshold(PAPER, 1e9, 1e12)
        assert result.q_min == pytest.approx(Q_MIN_TRUE, rel=3e-4)
        assert 1e10 < result.q_min < 1e11
        assert result.sn_peak == pytest.approx(1.0, abs=2e-4)
        assert len(result.iterations) >= 10

    def test_peak_snr_strictly_increasing_in_q(self):
        peaks = [snr_trace(replace(PAPER, Q=q)).sn_peak for q in (3e10, 5e10, 7e10)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_inverted_bracket_rejected(self):
        with pytest.raises(ValidationError):
            q_threshold(PAPER, 1e12, 1e9)

    @pytest.mark.parametrize(
        "q_lo, q_hi, key",
        [(1e12, 1e9, "q_hi"), (0.0, 1e12, "q_lo"), (math.nan, 1e12, "q_lo"), (1e9, math.inf, "q_hi")],
    )
    def test_bracket_must_be_finite_and_ordered(self, q_lo, q_hi, key):
        with pytest.raises(ValidationError) as err:
            q_threshold(PAPER, q_lo, q_hi)
        assert err.value.key == key

    def test_non_straddling_bracket_reports_both_peaks(self):
        with pytest.raises(DomainError) as err:
            q_threshold(PAPER, 1e11, 1e12)
        assert "Sn_peak(1e+11)" in str(err.value)
        assert "Sn_peak(1e+12)" in str(err.value)
        # the peak at q_lo is already above 1
        assert err.value.key == "q_lo"

    def test_default_bisection_scans_cost_no_end_of_window_refinement(self, monkeypatch):
        # the default bisection on the CaF2 reference evaluates Sn on 19 scans
        # and at 110 times of their interior peaks' refinements; 16 scans end on
        # a rising edge, and the end-of-window rule may add at most one
        # evaluation to each scan that ends on its largest sample
        arrays, scalars, ends_on_last = [], [], []
        signal, sampled_peak = interferometry._signal, interferometry._sampled_peak

        def counting_signal(k, t):
            (arrays if np.ndim(t) else scalars).append(t)
            return signal(k, t)

        def counting_scan(cfg, n_samples, q):
            scan = sampled_peak(cfg, n_samples, q)
            ends_on_last.append(scan[0][3] == n_samples - 1)
            return scan

        monkeypatch.setattr(interferometry, "_signal", counting_signal)
        monkeypatch.setattr(interferometry, "_sampled_peak", counting_scan)
        assert q_threshold(CORRECTED, 1e9, 1e12).q_min == pytest.approx(1.78792915e11, rel=1e-8)
        assert (len(arrays), sum(ends_on_last)) == (19, 16)
        assert len(scalars) <= 110 + sum(ends_on_last)


def bisect_by_config(cfg, q_lo, q_hi):
    """(q_min, sn_peak, iterations) of the Q bisection with a config of its
    own at every Q it evaluates, each peak from the bisection's scan of that
    config: the reference that q_threshold, which builds no config, must
    match bit for bit."""

    def peak(q):
        return _sampled_peak(replace(cfg, Q=q), _N_SAMPLES, q)[1][1]

    assert peak(q_lo) < 1.0 < peak(q_hi)
    iterations = []
    lo, hi = q_lo, q_hi
    while (hi - lo) > _Q_REL_TOL * lo:
        mid = 0.5 * (lo + hi)
        peak_mid = peak(mid)
        iterations.append((lo, hi, mid, peak_mid))
        if peak_mid < 1.0:
            lo = mid
        else:
            hi = mid
    q_min = 0.5 * (lo + hi)
    return q_min, peak(q_min), tuple(iterations)


def largest_accepted_q(cfg):
    """The largest float Q at which snr_peak evaluates cfg's signal model.
    Acceptance is monotone in Q, so bisect between an accepted and a
    rejected value until no float lies between them."""
    lo, hi = cfg.Q, sys.float_info.max
    with pytest.raises(CavityFallError):
        snr_peak(replace(cfg, Q=hi))
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        try:
            snr_peak(replace(cfg, Q=mid))
            lo = mid
        except CavityFallError:
            hi = mid
    return lo


class TestQThresholdKeepsItsBits:
    """q_threshold evaluates every Q on cfg with that Q, building no config."""

    @staticmethod
    def matches_reference(cfg, q_lo, q_hi):
        result = q_threshold(cfg, q_lo, q_hi)
        assert (result.q_min, result.sn_peak, result.iterations) == bisect_by_config(cfg, q_lo, q_hi)
        return result

    @pytest.mark.parametrize("model", WIDTH_MODELS)
    def test_seeded_random_brackets(self, model):
        cfg = replace(REFERENCE, width_model=model)
        q_min = q_threshold(cfg, 1e9, 1e12).q_min
        for below, above in 10.0 ** np.random.default_rng(1512).uniform(1e-3, 3.0, (6, 2)):
            self.matches_reference(cfg, q_min / below, q_min * above)

    @pytest.mark.parametrize("model", WIDTH_MODELS)
    def test_q_hi_at_the_largest_q_the_model_accepts(self, model):
        # the last Q before the signal model overflows on its trace window
        cfg = replace(REFERENCE, width_model=model)
        q_max = largest_accepted_q(cfg)
        with pytest.raises(CavityFallError):
            snr_peak(replace(cfg, Q=float(np.nextafter(q_max, math.inf))))
        assert len(self.matches_reference(cfg, 1e9, q_max).iterations) > 500

    @pytest.mark.parametrize("model", WIDTH_MODELS)
    def test_bracket_already_inside_the_tolerance(self, model):
        cfg = replace(REFERENCE, width_model=model)
        lo, hi, mid, peak_mid = q_threshold(cfg, 1e9, 1e12).iterations[-1]
        lo, hi = (mid, hi) if peak_mid < 1.0 else (lo, mid)
        assert self.matches_reference(cfg, lo, hi).iterations == ()

    def test_builds_no_config(self, monkeypatch):
        built = []
        post_init = ExperimentConfig.__post_init__

        def counting(cfg):
            built.append(cfg.Q)
            post_init(cfg)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting)
        iterations = set()
        for q_lo, q_hi in [(1e9, 1e12), (3e10, 5e10), (1e9, 1e200)]:
            iterations.add(len(q_threshold(PAPER, q_lo, q_hi).iterations))
        assert built == []
        assert len(iterations) == 3
