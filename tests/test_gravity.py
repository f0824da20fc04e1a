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
    group_velocity,
    index_correction,
    phase_gradient,
)
from cavityfall.units import c, hbar

VACUUM = CavitySpec.from_rest_wavelength(1.064e-6, n_s=1.0)
CAF2 = CavitySpec.from_rest_wavelength(1.064e-6, n_s=1.43)
EARTH_VAC = GravityProfile(g=9.81, n_s=1.0)
EARTH_CAF2 = GravityProfile(g=9.81, n_s=1.43)


class TestGravityProfile:
    def test_defaults_and_g_tilde(self):
        assert EARTH_VAC.g_tilde == 9.81
        assert EARTH_CAF2.g_tilde == pytest.approx(9.81 / 1.43**2, rel=1e-15)

    def test_rejects_negative_g(self):
        with pytest.raises(ValidationError):
            GravityProfile(g=-1.0)

    def test_rejects_index_whose_square_overflows(self):
        # g_tilde = g/n_s**2 would raise OverflowError
        with pytest.raises(ValidationError, match="gravity.n_s"):
            GravityProfile(n_s=1.4e154)


class TestGravitationalIndex:
    def test_reference_point(self):
        # the release height y = 0 is where the index equals n_s
        assert index_correction(EARTH_VAC, 0.0) == 0.0
        assert index_correction(EARTH_CAF2, 0.0) == 0.0

    def test_correction_per_meter(self):
        # g/c^2 ~ 1.091e-16 per meter; the shift itself stays resolvable even
        # though 1 + shift rounds to 1.0 in double precision
        corr = index_correction(EARTH_VAC, -1.0)
        assert corr == pytest.approx(9.81 / c**2, rel=1e-15)
        assert corr == pytest.approx(1.091e-16, rel=1e-3)

    def test_medium_scales_linearly(self):
        # the relative shift does not depend on n_s, so n(y) = n_s*(1 + shift)
        # scales linearly with the medium index
        for y in (-1.0, 0.5, 1e6):
            assert index_correction(EARTH_CAF2, y) == index_correction(EARTH_VAC, y)

    def test_strictly_decreasing_slope_by_finite_difference(self):
        y0, h = -2e9, 1e9
        for profile in (EARTH_VAC, EARTH_CAF2):
            fd = (index_correction(profile, y0 + h) - index_correction(profile, y0 - h)) / (2.0 * h)
            assert fd == pytest.approx(-profile.g / c**2, rel=1e-8)

    def test_weak_field_domain_guard(self):
        with pytest.raises(DomainError, match="weak-field"):
            index_correction(EARTH_VAC, -1e13)


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

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            freefall_trajectory(VACUUM, EARTH_VAC, -0.1)

    def test_medium_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="medium"):
            freefall_trajectory(CAF2, EARTH_VAC, 1.0)

    def test_momentum_grows_as_square_root_of_drop(self):
        # doubling t quadruples the drop and doubles k_y
        s1 = freefall_trajectory(VACUUM, EARTH_VAC, 0.5)
        s2 = freefall_trajectory(VACUUM, EARTH_VAC, 1.0)
        assert s2.y == 4.0 * s1.y
        assert s2.k_y == pytest.approx(2.0 * s1.k_y, rel=1e-15)

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
            potential = m * EARTH_CAF2.g_tilde * s.y  # U(y) = m*g_tilde*y, zero at release
            assert kinetic + potential == pytest.approx(0.0, abs=1e-12 * kinetic)

    def test_consistent_with_dispersion_group_velocity(self):
        s = freefall_trajectory(CAF2, EARTH_CAF2, 2.0)
        assert float(group_velocity(CAF2, s.k_y)) == pytest.approx(abs(s.v), rel=1e-6)

    def test_consistent_with_momentum_from_drop(self):
        # energy balance m*g_tilde*|y| = (hbar*k)^2/(2m) for a release at rest
        s = freefall_trajectory(CAF2, EARTH_CAF2, 1.5)
        k_drop = effective_mass(CAF2) / hbar * math.sqrt(2.0 * EARTH_CAF2.g_tilde * abs(s.y))
        assert s.k_y == pytest.approx(k_drop, rel=1e-14)


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

    def test_overflow_is_a_domain_error(self):
        # omega0*g overflows before t and c^2 would bring the product back
        with pytest.raises(DomainError, match="overflows"):
            phase_gradient(1.9e211, GravityProfile(g=1e97), 1e-92)

    def test_equals_dielectric_momentum_chain(self):
        # m_s * |v(t)| / hbar collapses to omega0*g*t/c^2: the n_s factors cancel
        t = 2.5
        s = freefall_trajectory(CAF2, EARTH_CAF2, t)
        chain = effective_mass(CAF2) * abs(s.v) / hbar
        assert chain == pytest.approx(phase_gradient(CAF2.omega0, EARTH_CAF2, t), rel=1e-12)
