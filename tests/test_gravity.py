import math

import numpy as np
import pytest

from cavityfall import (
    CavitySpec,
    DomainError,
    GravityProfile,
    ValidationError,
    effective_mass,
    freefall_trajectory,
    gravitational_index,
    group_velocity,
    index_correction,
    kinetic_correction_scale,
    momentum_from_drop,
    phase_gradient,
    potential_energy,
    proper_time_factor,
)
from cavityfall.units import G, c, hbar

M_EARTH = 5.9722e24
R_EARTH = 6.371e6

VACUUM = CavitySpec.from_rest_wavelength(1.064e-6, n_s=1.0)
CAF2 = CavitySpec.from_rest_wavelength(1.064e-6, n_s=1.43)
EARTH_VAC = GravityProfile(g=9.81, n_s=1.0)
EARTH_CAF2 = GravityProfile(g=9.81, n_s=1.43)


class TestGravityProfile:
    def test_defaults_and_g_tilde(self):
        assert EARTH_VAC.g_tilde == 9.81
        assert EARTH_CAF2.g_tilde == pytest.approx(9.81 / 1.43**2, rel=1e-15)

    def test_from_point_mass(self):
        p = GravityProfile.from_point_mass(M_EARTH, R_EARTH)
        assert p.g == pytest.approx(G * M_EARTH / R_EARTH**2, rel=1e-15)
        assert p.g == pytest.approx(9.82, rel=1e-2)

    def test_weak_field_bound_on_source(self):
        # a solar-mass source at 3 km violates 2GM/(rc^2) < 1e-4
        with pytest.raises(DomainError, match="weak-field"):
            GravityProfile.from_point_mass(1.989e30, 3e4)

    def test_rejects_negative_g(self):
        with pytest.raises(ValidationError):
            GravityProfile(g=-1.0)


class TestProperTimeFactor:
    def test_flat_spacetime(self):
        assert proper_time_factor(0.0, 1.0) == 1.0

    def test_earth_surface_matches_first_order_expansion(self):
        factor = proper_time_factor(M_EARTH, R_EARTH)
        x = G * M_EARTH / (R_EARTH * c**2)
        assert x == pytest.approx(6.96e-10, rel=1e-2)
        assert factor < 1.0
        # sqrt(1 - 2x) and 1 - x agree to O(x^2), below one ulp of 1.0
        assert abs(factor - (1.0 - x)) < 1e-15

    def test_approaches_unity_far_away(self):
        assert proper_time_factor(M_EARTH, 1e18) == pytest.approx(1.0, abs=1e-15)

    def test_radius_inside_weak_field_bound(self):
        r_min = 100.0 * 2.0 * G * M_EARTH / c**2
        with pytest.raises(DomainError, match="weak-field"):
            proper_time_factor(M_EARTH, 0.5 * r_min)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            proper_time_factor(-1.0, 1.0)
        with pytest.raises(ValidationError):
            proper_time_factor(1.0, 0.0)


class TestGravitationalIndex:
    def test_reference_point(self):
        assert gravitational_index(EARTH_VAC, 0.0) == 1.0
        assert gravitational_index(EARTH_CAF2, 0.0) == 1.43

    def test_correction_per_meter(self):
        # g/c^2 ~ 1.091e-16 per meter; the shift itself stays resolvable even
        # though 1 + shift rounds to 1.0 in double precision
        corr = index_correction(EARTH_VAC, -1.0)
        assert corr == pytest.approx(9.81 / c**2, rel=1e-15)
        assert corr == pytest.approx(1.091e-16, rel=1e-3)

    def test_medium_scales_linearly(self):
        y = -1.0
        assert gravitational_index(EARTH_CAF2, y) == 1.43 * (1.0 + index_correction(EARTH_CAF2, y))

    def test_strictly_decreasing_slope_by_finite_difference(self):
        # baseline wide enough for the shift to be resolvable next to n_s
        y0, h = -2e9, 1e9
        for profile in (EARTH_VAC, EARTH_CAF2):
            fd = (gravitational_index(profile, y0 + h) - gravitational_index(profile, y0 - h)) / (2.0 * h)
            assert fd == pytest.approx(-profile.n_s * profile.g / c**2, rel=1e-8)

    def test_weak_field_domain_guard(self):
        with pytest.raises(DomainError, match="weak-field"):
            gravitational_index(EARTH_VAC, -1e13)

    def test_kinetic_correction_diagnostic(self):
        assert kinetic_correction_scale(EARTH_VAC, -1.0) == pytest.approx(1.091e-16, rel=1e-3)
        assert kinetic_correction_scale(EARTH_VAC, 0.0) == 0.0


class TestPotentialEnergy:
    def test_zero_at_release(self):
        assert potential_energy(VACUUM, EARTH_VAC, 0.0) == 0.0

    def test_vacuum_newtonian_form(self):
        u = potential_energy(VACUUM, EARTH_VAC, 1.0)
        assert u == pytest.approx(effective_mass(VACUUM) * 9.81, rel=1e-15)

    def test_dielectric_renormalized_form(self):
        u = potential_energy(CAF2, EARTH_CAF2, 1.0)
        assert u == pytest.approx(effective_mass(CAF2) * 9.81 / 1.43**2, rel=1e-15)

    def test_medium_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="medium"):
            potential_energy(CAF2, EARTH_VAC, 1.0)


class TestMomentumFromDrop:
    def test_release_at_rest(self):
        assert momentum_from_drop(VACUUM, EARTH_VAC, 0.0) == 0.0

    def test_energy_balance_round_trip(self):
        m = effective_mass(CAF2)
        for y_drop in (1e-6, 0.01, 0.5, 2.0):
            k = momentum_from_drop(CAF2, EARTH_CAF2, y_drop)
            potential = m * EARTH_CAF2.g_tilde * y_drop
            kinetic = (hbar * k) ** 2 / (2.0 * m)
            assert kinetic == pytest.approx(potential, rel=1e-14)

    def test_square_root_scaling(self):
        k1 = momentum_from_drop(VACUUM, EARTH_VAC, 0.25)
        k4 = momentum_from_drop(VACUUM, EARTH_VAC, 1.0)
        assert k4 == pytest.approx(2.0 * k1, rel=1e-15)

    def test_negative_drop_rejected(self):
        with pytest.raises(ValidationError):
            momentum_from_drop(VACUUM, EARTH_VAC, -0.1)


class TestFreefallTrajectory:
    def test_release_state(self):
        s = freefall_trajectory(VACUUM, EARTH_VAC, 0.0)
        assert (s.y, s.v, s.k_y) == (0.0, 0.0, 0.0)

    def test_one_second_vacuum_fall(self):
        s = freefall_trajectory(VACUUM, EARTH_VAC, 1.0)
        assert s.y == -0.5 * 9.81
        assert s.v == -9.81

    def test_dielectric_drag(self):
        s = freefall_trajectory(CAF2, EARTH_CAF2, 1.0)
        assert s.y == pytest.approx(-4.905 / 2.0449, rel=1e-12)

    def test_trajectory_independent_of_mass(self):
        heavy = CavitySpec.from_rest_wavelength(1.064e-9, n_s=1.43)  # 1000x the mass
        light = freefall_trajectory(CAF2, EARTH_CAF2, 0.7)
        massive = freefall_trajectory(heavy, EARTH_CAF2, 0.7)
        assert light.y == massive.y
        assert light.v == massive.v
        assert massive.k_y == pytest.approx(1000.0 * light.k_y, rel=1e-12)

    def test_relativistic_guard_reports_limit(self):
        v_max = 1e-3 * CAF2.c_medium
        t_limit = v_max / EARTH_CAF2.g_tilde
        with pytest.raises(DomainError) as err:
            freefall_trajectory(CAF2, EARTH_CAF2, 1.01 * t_limit)
        assert f"{t_limit:.6g}" in str(err.value)
        freefall_trajectory(CAF2, EARTH_CAF2, 0.99 * t_limit)

    def test_overflowing_fall_is_a_domain_error(self):
        # |v| = 0.5 m/s is far inside the limit, but t^2 = 1e320 overflows
        feather = GravityProfile(g=1e-160 * 1.43**2, n_s=1.43)
        with pytest.raises(DomainError, match="overflows"):
            freefall_trajectory(CAF2, feather, 1e160)

    def test_energy_conservation_along_trajectory(self):
        m = effective_mass(CAF2)
        for t in np.linspace(0.1, 5.0, 17):
            s = freefall_trajectory(CAF2, EARTH_CAF2, float(t))
            kinetic = (hbar * s.k_y) ** 2 / (2.0 * m)
            potential = potential_energy(CAF2, EARTH_CAF2, s.y)
            assert kinetic + potential == pytest.approx(0.0, abs=1e-12 * kinetic)

    def test_consistent_with_dispersion_group_velocity(self):
        s = freefall_trajectory(CAF2, EARTH_CAF2, 2.0)
        assert float(group_velocity(CAF2, s.k_y)) == pytest.approx(abs(s.v), rel=1e-6)

    def test_consistent_with_momentum_from_drop(self):
        s = freefall_trajectory(CAF2, EARTH_CAF2, 1.5)
        assert s.k_y == pytest.approx(momentum_from_drop(CAF2, EARTH_CAF2, abs(s.y)), rel=1e-14)


class TestPhaseGradient:
    def test_zero_at_release(self):
        assert phase_gradient(CAF2.omega0, EARTH_CAF2, 0.0) == 0.0

    def test_reference_magnitude(self):
        omega0 = 2.0 * math.pi * c / 1.064e-6
        value = phase_gradient(omega0, EARTH_CAF2, 1e-4)
        assert value == pytest.approx(omega0 * 9.81 * 1e-4 / c**2, rel=1e-15)
        assert value == pytest.approx(1.932e-5, rel=1e-3)

    def test_independent_of_medium_index(self):
        omega0 = CAF2.omega0
        assert phase_gradient(omega0, EARTH_VAC, 3.0) == phase_gradient(omega0, EARTH_CAF2, 3.0)

    def test_equals_dielectric_momentum_chain(self):
        # m_s * |v(t)| / hbar collapses to omega0*g*t/c^2: the n_s factors cancel
        t = 2.5
        s = freefall_trajectory(CAF2, EARTH_CAF2, t)
        chain = effective_mass(CAF2) * abs(s.v) / hbar
        assert chain == pytest.approx(phase_gradient(CAF2.omega0, EARTH_CAF2, t), rel=1e-12)
