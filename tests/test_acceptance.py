"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Regression constants marked "frozen" were computed once by an
independent 60-digit evaluation of the closed-form signal model (golden
section for the peaks, bisection for roots) before the package was built.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cavityfall import (
    CavitySpec,
    Grid1D,
    effective_mass,
    evolve,
    group_velocity,
    init_gaussian,
    photon_energy,
    propagate,
    q_threshold,
    snr,
    snr_trace,
)
from cavityfall.cli import run
from cavityfall.scenario import load_scenario
from cavityfall.units import c, hbar
from oracles import analytic_gaussian_oracle, exact_accelerating_gaussian, kg_residual

NS_CAF2 = 1.43

# frozen regression constants (independent desk oracle, 60-digit arithmetic)
SN_PEAK_PAPER = {3e10: 0.446573628640873, 5e10: 3.03880359627789, 7e10: 9.57503519976474}
SN_PEAK_CORRECTED = {3e10: 9.02234494594333e-4, 5e10: 1.57678128885721e-3, 7e10: 2.44093251943846e-3}
PEAK_RATIO_PAPER_OVER_CORRECTED = {3e10: 494.964037970709, 5e10: 1927.21946775529, 7e10: 3922.69557782264}
Q_MIN_TRUE = 36955286105.5196

GRID = Grid1D(-32.0, 32.0, 1024)
# the shipped CaF2 whispering-gallery experiment
REFERENCE = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "caf2_wgmc.json").experiment


@pytest.fixture(scope="module")
def shipped_numeric_run(scenario_dir, tmp_path_factory):
    """freefall-numeric on the shipped CaF2 scenario, shared by criteria 1 and 4."""
    scenario = load_scenario(scenario_dir / "freefall_caf2.json")
    out_dir = tmp_path_factory.mktemp("freefall_numeric")
    started = time.perf_counter()
    manifest = run("freefall-numeric", scenario, out_dir)
    elapsed = time.perf_counter() - started
    data = np.loadtxt(out_dir / "freefall_numeric.csv", delimiter=",", skiprows=1)
    return scenario, manifest, data, elapsed


def test_criterion_1_parabolic_free_fall(shipped_numeric_run):
    scenario, manifest, data, elapsed = shipped_numeric_run
    t, y = data[:, 0], data[:, 1]
    g_tilde = scenario.gravity.g_tilde
    final_drop = 0.5 * g_tilde * t[-1] ** 2
    max_rel = np.max(np.abs(y + 0.5 * g_tilde * t**2)) / final_drop
    assert max_rel < 1e-6
    assert elapsed < 10.0

    # dt refinement: the full state converges at second order against the
    # closed-form accelerated Gaussian (observables are exact to roundoff for
    # a linear potential, so the state's global phase carries the dt error)
    dts = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    exact = exact_accelerating_gaussian(GRID, 1.0, 1.0, 1.0, 2.0)
    errors = []
    for dt in dts:
        final = evolve(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=1.0, dt=dt, n_steps=int(2.0 / dt))
        errors.append(math.sqrt(float(np.sum(np.abs(final - exact) ** 2)) * GRID.dy))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)

    print(
        f"\n[acceptance] criterion 1 (parabolic free fall): PASS "
        f"(max rel err {max_rel:.2e}, runtime {elapsed:.2f} s, convergence order {slope:.3f})"
    )


def test_criterion_2_equivalence_principle():
    # masses span 3 decades at fixed g_tilde; the grid must cover both the
    # heavy packet's momentum m*g_tilde*t (Nyquist) and the light packet's
    # spreading (edge clearance), hence the wide fine domain
    grid = Grid1D(-64.0, 64.0, 2048)
    g_tilde, t_final = 0.25, 1.0
    traces = []
    for mass in (0.1, 1.0, 10.0, 100.0):
        trace = propagate(
            grid, init_gaussian(grid, 1.0), mass=mass, g_tilde=g_tilde, dt=1 / 64, n_steps=64, stride=8
        )
        traces.append(trace.centroid)
    final_drop = 0.5 * g_tilde * t_final**2
    worst = max(np.max(np.abs(tr - traces[0])) for tr in traces[1:]) / final_drop
    assert worst < 1e-8
    print(f"\n[acceptance] criterion 2 (equivalence principle): PASS (max pointwise dev {worst:.2e})")


def test_criterion_3_dielectric_drag():
    ns_squared = NS_CAF2**2
    centroids = {}
    for label, g_tilde in (("vacuum", 1.0), ("dielectric", 1.0 / ns_squared)):
        trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=g_tilde, dt=1 / 64, n_steps=96, stride=8)
        centroids[label] = trace.centroid
    ratio = centroids["vacuum"][1:] / centroids["dielectric"][1:]
    worst = np.max(np.abs(ratio - ns_squared) / ns_squared)
    assert worst < 1e-8
    assert ns_squared == pytest.approx(2.0449, rel=1e-12)
    print(f"\n[acceptance] criterion 3 (dielectric drag n_s^2): PASS (max rel dev {worst:.2e})")


def test_criterion_4_phase_gradient(shipped_numeric_run):
    scenario, _, data, _ = shipped_numeric_run
    t, phase_grad = data[1:, 0], data[1:, 6]
    expected = scenario.cavity.omega0 * scenario.gravity.g * t / c**2
    worst_vs_law = np.max(np.abs(np.abs(phase_grad) - expected) / expected)
    assert worst_vs_law < 1e-4

    # medium independence at fixed omega0: the dielectric run (mass up by
    # n_s^2, acceleration down by n_s^2) must measure the same gradient
    ns_squared = NS_CAF2**2
    gradients = {}
    for label, (mass, g_tilde) in {
        "vacuum": (1.0, 0.5),
        "dielectric": (ns_squared, 0.5 / ns_squared),
    }.items():
        trace = propagate(
            GRID, init_gaussian(GRID, 1.0), mass=mass, g_tilde=g_tilde, dt=1 / 64, n_steps=128, stride=16
        )
        gradients[label] = trace.phase_gradient[1:]
    worst_pair = np.max(np.abs(gradients["vacuum"] - gradients["dielectric"]) / np.abs(gradients["vacuum"]))
    assert worst_pair < 1e-12
    print(
        f"\n[acceptance] criterion 4 (phase gradient law): PASS "
        f"(vs omega0*g*t/c^2 {worst_vs_law:.2e}, medium pair dev {worst_pair:.2e})"
    )


def test_criterion_5_dispersion_exactness():
    cav = CavitySpec.from_rest_wavelength(1.064e-6, n_s=NS_CAF2, Q=7e10)
    k_scale = cav.rest_energy / (hbar * cav.c_medium)

    rng = np.random.default_rng(20260809)
    ks = 10.0 ** rng.uniform(-2.0, 1.0, size=100) * k_scale
    omegas = photon_energy(cav, ks) / hbar
    residuals = kg_residual(cav, ks, omegas)
    worst_residual = np.max(np.abs(residuals) / ks**2)
    assert worst_residual < 1e-10

    worst_fd = 0.0
    for k in np.logspace(math.log10(0.03), math.log10(30.0), 25) * k_scale:
        dk = 1e-4 * k
        fd = (float(photon_energy(cav, k + dk)) - float(photon_energy(cav, k - dk))) / (2.0 * dk * hbar)
        vg = float(group_velocity(cav, k))
        worst_fd = max(worst_fd, abs(vg - fd) / abs(fd))
    assert worst_fd < 1e-8

    worst_expansion = 0.0
    mass = effective_mass(cav)
    for x in (1e-4, 3e-4, 9.9e-4):
        k = x * k_scale
        expansion = cav.rest_energy + (hbar * k) ** 2 / (2.0 * mass)
        worst_expansion = max(
            worst_expansion, abs(float(photon_energy(cav, k)) - expansion) / expansion
        )
        assert float(photon_energy(cav, k)) == pytest.approx(expansion, rel=1e-6)
        assert float(group_velocity(cav, k)) == pytest.approx(hbar * k / mass, rel=1e-6)
    print(
        f"\n[acceptance] criterion 5 (dispersion exactness): PASS "
        f"(residual {worst_residual:.2e}, v_g vs FD {worst_fd:.2e}, expansion {worst_expansion:.2e})"
    )


def test_criterion_6_fig2b_reproduction():
    cfg = replace(REFERENCE, width_model="paper_verbatim")
    started = time.perf_counter()
    traces = {q: snr_trace(replace(cfg, Q=q)) for q in (3e10, 5e10, 7e10)}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    # pointwise strictly increasing in Q on a shared time grid
    shared_t = np.linspace(0.0, 10.0 * 7e10 / cfg.omega0, 801)[1:]
    sn_by_q = [np.asarray(snr(replace(cfg, Q=q), shared_t)) for q in (3e10, 5e10, 7e10)]
    assert np.all(sn_by_q[0] < sn_by_q[1])
    assert np.all(sn_by_q[1] < sn_by_q[2])

    for q, trace in traces.items():
        interior_maxima = np.sum(
            (trace.sn[1:-1] > trace.sn[:-2]) & (trace.sn[1:-1] > trace.sn[2:])
        )
        assert interior_maxima == 1
        # peak sits near the 2Q/omega0 envelope optimum (the mode-expansion
        # factor pushes it a few lifetimes later)
        assert 0.5 <= trace.t_peak / (2.0 * q / cfg.omega0) <= 5.0
        assert trace.sn_peak == pytest.approx(SN_PEAK_PAPER[q], rel=1e-9)

    assert traces[7e10].sn_peak >= 1.0
    assert traces[7e10].t_cross is not None
    print(
        f"\n[acceptance] criterion 6 (SNR curve reproduction): PASS "
        f"(peaks {', '.join(f'{traces[q].sn_peak:.4f}' for q in (3e10, 5e10, 7e10))}; {elapsed * 1e3:.0f} ms)"
    )


def test_criterion_7_q_threshold():
    cfg = replace(REFERENCE, width_model="paper_verbatim")
    result = q_threshold(cfg, 1e9, 1e12)
    assert 1e10 <= result.q_min <= 1e11
    assert result.q_min == pytest.approx(Q_MIN_TRUE, rel=3e-4)
    print(
        f"\n[acceptance] criterion 7 (quality-factor threshold): PASS "
        f"(Q_min = {result.q_min:.6e}, frozen root {Q_MIN_TRUE:.6e})"
    )


def test_criterion_8_conservation_suite():
    mass, g_tilde = 4.0, 0.125
    trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=mass, g_tilde=g_tilde, dt=1e-3, n_steps=10000, stride=500)
    assert len(trace.t) - 1 == 20  # 1e4 steps, recorded every 500

    norm_drift = np.max(np.abs(trace.norm - trace.norm[0]))
    assert norm_drift < 1e-12

    energy_drift = np.max(np.abs(trace.energy - trace.energy[0]) / abs(trace.energy[0]))
    assert energy_drift < 1e-10

    moments = [analytic_gaussian_oracle(1.0, mass, g_tilde, float(t)) for t in trace.t]
    final_drop = abs(moments[-1].centroid)
    max_k = abs(moments[-1].mean_k)
    worst_centroid = max(abs(trace.centroid[i] - m.centroid) for i, m in enumerate(moments)) / final_drop
    worst_width = max(abs(trace.width[i] - m.width) / m.width for i, m in enumerate(moments))
    worst_k = max(abs(trace.mean_k[i] - m.mean_k) for i, m in enumerate(moments)) / max_k
    assert worst_centroid < 1e-6
    assert worst_width < 1e-6
    assert worst_k < 1e-6
    print(
        f"\n[acceptance] criterion 8 (conservation suite): PASS "
        f"(norm drift {norm_drift:.2e}/1e4 steps, energy drift {energy_drift:.2e}, "
        f"oracle dev {max(worst_centroid, worst_width, worst_k):.2e})"
    )


def test_criterion_9_width_model_discrepancy(scenario_dir, tmp_path):
    scenario = load_scenario(scenario_dir / "caf2_wgmc.json")
    for variant, model in (("paper", "paper_verbatim"), ("corrected", "corrected")):
        run("fig2b", replace(scenario, experiment=replace(scenario.experiment, width_model=model)), tmp_path / variant)

    ratios = {}
    for variant in ("paper", "corrected"):
        summary = json.loads((tmp_path / variant / "fig2b_summary.json").read_text())
        for entry in summary["width_model_divergence"]:
            q = entry["Q"]
            assert entry["sn_peak_paper"] == pytest.approx(SN_PEAK_PAPER[q], rel=1e-9)
            assert entry["sn_peak_corrected"] == pytest.approx(SN_PEAK_CORRECTED[q], rel=1e-9)
            assert entry["peak_ratio"] == pytest.approx(PEAK_RATIO_PAPER_OVER_CORRECTED[q], rel=1e-9)
            ratios[q] = entry["peak_ratio"]
            assert entry["peak_ratio"] > 100.0  # measurably different, not a rounding nuance

    for q in (3e10, 5e10, 7e10):
        paper_bytes = (tmp_path / "paper" / f"fig2b_Q{q:g}.csv").read_bytes()
        corrected_bytes = (tmp_path / "corrected" / f"fig2b_Q{q:g}.csv").read_bytes()
        assert paper_bytes != corrected_bytes
    print(
        f"\n[acceptance] criterion 9 (width-model discrepancy): PASS "
        f"(peak ratios {', '.join(f'{ratios[q]:.1f}' for q in (3e10, 5e10, 7e10))})"
    )
