import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfall import (
    DomainError,
    ExperimentConfig,
    PropagationScenario,
    Grid1D,
    ValidationError,
    analytic_gaussian_oracle,
    init_gaussian,
    interference_signal,
    mode_width,
    propagate,
    q_threshold,
    snr,
    snr_trace,
)
from cavityfall.units import c, hbar

# Frozen from an independent 60-digit evaluation of the interference signal
# and SNR (see acceptance suite for the full set).
SN_PEAK_PAPER = {3e10: 0.446573628640873, 5e10: 3.03880359627789, 7e10: 9.57503519976474}
SN_PEAK_CORRECTED = {3e10: 9.02234494594333e-4, 5e10: 1.57678128885721e-3, 7e10: 2.44093251943846e-3}
I_AT_2TAU = {"paper_verbatim": 5.24441449019593e-17, "corrected": 2.78582486936406e-22}
WIDTH_AT_TAU = {"paper_verbatim": 0.122099012198104, "corrected": 0.100120378149358}
T_CROSS_7E10 = 7.89388757712735e-5
Q_MIN_TRUE = 36955286105.5196

PAPER = ExperimentConfig.caf2_reference(width_model="paper_verbatim")
CORRECTED = ExperimentConfig.caf2_reference(width_model="corrected")
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
        "changes, error, named",
        [
            (dict(sigma0=1e160), ValidationError, "experiment.sigma0"),
            (dict(y_out=1e200), ValidationError, "experiment.y_out"),
            (dict(P_avg=1e300, T_int=1e300), ValidationError, "photon count"),
            (dict(lambda0=1e-300), ValidationError, "experiment.lambda0"),
            (dict(Q=1e308), ValidationError, "experiment.Q"),
            (dict(sigma0=1e-150, y_out=1e150), DomainError, "overflows on its trace window"),
        ],
    )
    def test_rejects_values_the_model_cannot_evaluate(self, changes, error, named):
        with pytest.raises(error, match=named):
            replace(CORRECTED, **changes)


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
            oracle = analytic_gaussian_oracle(cfg.sigma0, mass, 0.0, t, hbar=hbar)
            assert float(mode_width(cfg, t)) == pytest.approx(oracle.width, rel=1e-12)

    def test_corrected_matches_propagated_envelope(self):
        # the closed-form corrected law must agree with a real SI propagation
        # (mass m/hbar in s/m^2, 1.6 ms ~ 4 spreading times) to 1e-6
        cfg = CORRECTED
        mass_over_hbar = cfg.n_s**2 * cfg.omega0 / c**2
        grid = Grid1D(-3.2, 3.2, 1024)
        scenario = PropagationScenario(mass=mass_over_hbar, g_tilde=0.0, dt=2e-5, n_steps=80, record_stride=20)
        _, trace = propagate(init_gaussian(grid, cfg.sigma0), scenario)
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
    cfg = ExperimentConfig.caf2_reference(Q=q, width_model=model)
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


class TestSnrTrace:
    def test_frozen_peaks_paper_model(self):
        for q, expected in SN_PEAK_PAPER.items():
            trace = snr_trace(replace(PAPER, Q=q), n_samples=2001)
            assert trace.sn_peak == pytest.approx(expected, rel=1e-9)

    def test_frozen_peaks_corrected_model(self):
        for q, expected in SN_PEAK_CORRECTED.items():
            trace = snr_trace(replace(CORRECTED, Q=q), n_samples=2001)
            assert trace.sn_peak == pytest.approx(expected, rel=1e-9)

    def test_crossing_found_and_refined(self):
        trace = snr_trace(PAPER, n_samples=2001)
        assert trace.t_cross is not None
        assert trace.t_cross == pytest.approx(T_CROSS_7E10, rel=1e-6)
        assert float(snr(PAPER, trace.t_cross)) == pytest.approx(1.0, abs=1e-6)

    def test_no_crossing_below_threshold(self):
        trace = snr_trace(replace(PAPER, Q=3e10), n_samples=2001)
        assert trace.t_cross is None
        assert trace.sn_peak < 1.0

    def test_trace_invariants(self):
        trace = snr_trace(PAPER, n_samples=512)
        assert np.all(trace.i_signal >= 0.0)
        assert np.all(trace.sn >= 0.0)
        assert trace.i_signal[0] == 0.0

    def test_pointwise_ordering_in_q(self):
        t = np.linspace(0.0, 10.0 * 7e10 / PAPER.omega0, 513)[1:]
        sn_by_q = [np.asarray(snr(replace(PAPER, Q=q), t)) for q in (3e10, 5e10, 7e10)]
        assert np.all(sn_by_q[0] < sn_by_q[1])
        assert np.all(sn_by_q[1] < sn_by_q[2])

    def test_vanishing_power_gives_flat_zero(self):
        trace = snr_trace(replace(PAPER, P_avg=1e-300), n_samples=64)
        assert trace.t_cross is None
        assert np.max(trace.sn) < 1e-100

    def test_crossing_closer_to_zero_than_the_smallest_float(self):
        # Sn passes 1 below t = 5e-324 s: the crossing bisection runs out of
        # floats between 0 and its upper end and stops at t_cross = 0
        cfg = replace(PAPER, sigma0=1.0, eta_det=1.0, T_int=4.41e196, g=1.439e221)
        trace = snr_trace(cfg, n_samples=2001)
        assert trace.t_cross == 0.0
        assert 0.0 < trace.t_peak < cfg.window

    def test_peak_search_stops_when_floats_run_out(self):
        # the window, 2.6e-321 s, holds about 500 subnormal floats: the golden
        # section runs out of floats before its bracket is 1e-9 relative wide
        cfg = replace(CORRECTED, Q=2e-306, lambda0=2.4e-7, sigma0=0.23, g=2.2e265, T_int=9.6e175)
        trace = snr_trace(cfg, n_samples=2001)
        assert 0.0 < trace.t_peak < cfg.window

    def test_validation(self):
        with pytest.raises(ValidationError):
            snr_trace(PAPER, n_samples=8)


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

    def test_non_straddling_bracket_reports_both_peaks(self):
        with pytest.raises(DomainError) as err:
            q_threshold(PAPER, 1e11, 1e12)
        assert "Sn_peak(1e+11)" in str(err.value)
        assert "Sn_peak(1e+12)" in str(err.value)
