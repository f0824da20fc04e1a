import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfall import (
    CavitySpec,
    GravityProfile,
    ValidationError,
    effective_mass,
    group_velocity,
    photon_energy,
)
from cavityfall.units import c, h, hbar
from oracles import kg_residual

MICRON_CAVITY = CavitySpec(L=1e-6, j=1)
CAF2 = CavitySpec.from_rest_wavelength(1.064e-6, n_s=1.43, Q=7e10)


class TestCavitySpec:
    def test_rejects_invalid_fields(self):
        with pytest.raises(ValidationError):
            CavitySpec(L=0.0, j=1)
        with pytest.raises(ValidationError):
            CavitySpec(L=1e-6, j=0)
        with pytest.raises(ValidationError):
            CavitySpec(L=1e-6, j=1, n_s=0.9)
        with pytest.raises(ValidationError):
            CavitySpec(L=1e-6, j=1, Q=-1.0)
        with pytest.raises(ValidationError, match=r"^j: must be an integer in \[1, 2\*\*53\], got True$"):
            CavitySpec(L=1e-6, j=True)
        with pytest.raises(ValidationError):
            CavitySpec.from_rest_wavelength(-1e-6)

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(L=2.9e-194, j=2, n_s=2.7e230),  # n_s**2 overflows
            dict(L=1.39e-268, j=7, n_s=1.13e142),  # the mass overflows
            dict(L=5.8e299 / 2.86, j=1, n_s=1.43),  # the rest energy underflows to 0
        ],
    )
    def test_rejects_rest_energy_or_mass_out_of_double_range(self, geometry):
        with pytest.raises(ValidationError, match="double range"):
            CavitySpec(**geometry)

    def test_rest_wavelength_constructor_fixes_rest_energy(self):
        # E0 = 2*pi*hbar*c/lambda0 = h*c/lambda0 regardless of the medium
        for n_s in (1.0, 1.43, 2.5):
            cav = CavitySpec.from_rest_wavelength(1.064e-6, n_s=n_s)
            assert cav.rest_energy == pytest.approx(h * c / 1.064e-6, rel=1e-14)
            assert cav.j == 1
            assert cav.L == pytest.approx(1.064e-6 / (2 * n_s), rel=1e-15)

    def test_rest_energy_invariant_under_medium_renormalization(self):
        # m * c_medium^2 recovers E0 to 1e-15 for n_s in [1, 3]
        for n_s in np.linspace(1.0, 3.0, 21):
            cav = CavitySpec.from_rest_wavelength(1.064e-6, n_s=float(n_s))
            assert effective_mass(cav) * cav.c_medium**2 == pytest.approx(
                cav.rest_energy, rel=1e-15
            )


class TestEffectiveMass:
    def test_micron_vacuum_cavity(self):
        # half-wave resonance: E0 = h*c/(2L), so m = h/(2*L*c)
        m = effective_mass(MICRON_CAVITY)
        assert m == pytest.approx(h / (2.0 * 1e-6 * c), rel=1e-14)
        assert m == pytest.approx(1.105e-36, rel=1e-3)

    def test_scale_invariance_of_j_over_L(self):
        doubled = CavitySpec(L=2e-6, j=2)
        assert effective_mass(doubled) == effective_mass(MICRON_CAVITY)

    def test_dielectric_mass_is_ns_squared_times_vacuum(self):
        m_s = effective_mass(CAF2)
        omega0 = 2.0 * math.pi * c / 1.064e-6
        assert m_s == pytest.approx(1.43**2 * hbar * omega0 / c**2, rel=1e-14)
        assert m_s == pytest.approx(4.25e-36, rel=1e-3)


class TestPhotonEnergy:
    def test_rest_point(self):
        assert float(photon_energy(MICRON_CAVITY, 0.0)) == MICRON_CAVITY.rest_energy

    def test_symmetric_pythagorean_point(self):
        e0 = MICRON_CAVITY.rest_energy
        k = e0 / (hbar * c)
        assert float(photon_energy(MICRON_CAVITY, k)) == pytest.approx(e0 * math.sqrt(2.0), rel=1e-15)

    def test_small_k_matches_nonrelativistic_expansion(self):
        # at k = 1e5 rad/m the quadratic expansion holds to 1e-6
        k = 1e5
        e0 = MICRON_CAVITY.rest_energy
        exact = math.sqrt(e0**2 + (hbar * c * k) ** 2)
        assert float(photon_energy(MICRON_CAVITY, k)) == pytest.approx(exact, rel=1e-15)
        expansion = e0 + (hbar * k) ** 2 / (2.0 * effective_mass(MICRON_CAVITY))
        assert float(photon_energy(MICRON_CAVITY, k)) == pytest.approx(expansion, rel=1e-6)

    def test_evenness_exact(self):
        ks = np.logspace(2, 9, 40)
        assert np.array_equal(photon_energy(MICRON_CAVITY, ks), photon_energy(MICRON_CAVITY, -ks))

    def test_strictly_increasing_in_magnitude(self):
        ks = np.logspace(0, 9, 200)
        energies = photon_energy(CAF2, ks)
        assert np.all(np.diff(energies) > 0)


class TestGroupVelocity:
    def test_standing_packet_at_rest(self):
        assert float(group_velocity(MICRON_CAVITY, 0.0)) == 0.0

    def test_massless_asymptote(self):
        # deep relativistic point hbar*c*k = 1e3*E0: v/c = (1 + 1e-6)^(-1/2)
        k = 1e3 * MICRON_CAVITY.rest_energy / (hbar * c)
        v = float(group_velocity(MICRON_CAVITY, k))
        assert v < c
        assert v == pytest.approx(c, rel=1e-6)

    def test_odd_in_k(self):
        ks = np.logspace(3, 8, 20)
        assert np.array_equal(group_velocity(CAF2, ks), -group_velocity(CAF2, -ks))

    def test_nonrelativistic_limit(self):
        # hbar*c_m*k < 1e-3*E0 implies agreement with hbar*k/m to 1e-6
        cav = CAF2
        k = 1e-3 * cav.rest_energy / (hbar * cav.c_medium) * 0.99
        v = float(group_velocity(cav, k))
        assert v == pytest.approx(hbar * k / effective_mass(cav), rel=1e-6)

    def test_matches_finite_difference_of_dispersion(self):
        # log-spaced grid across the relativistic transition x = hbar*cm*k/E0
        # in [0.03, 30]; below that the dispersion is flat to machine epsilon
        # and a finite difference of it carries no information.  The step
        # h = 1e-4*k balances cancellation against truncation to ~1e-9.
        cav = CAF2
        k_scale = cav.rest_energy / (hbar * cav.c_medium)
        ks = np.logspace(math.log10(0.03), math.log10(30.0), 25) * k_scale
        for k in ks:
            dk = 1e-4 * k
            fd = (
                float(photon_energy(cav, k + dk)) - float(photon_energy(cav, k - dk))
            ) / (2.0 * dk * hbar)
            assert float(group_velocity(cav, k)) == pytest.approx(fd, rel=1e-8)

    def test_drop_velocity_matches_classical_kinematics(self):
        # wavenumber picked up over a 0.5 m fall translates back to sqrt(2*g_tilde*y)
        profile = GravityProfile(g=9.81, n_s=1.43)
        k_y = effective_mass(CAF2) / hbar * math.sqrt(2.0 * profile.g_tilde * 0.5)
        expected = math.sqrt(2.0 * profile.g_tilde * 0.5)
        assert float(group_velocity(CAF2, k_y)) == pytest.approx(expected, rel=1e-9)


class TestKgResidual:
    def test_rest_point_on_shell(self):
        assert float(kg_residual(MICRON_CAVITY, 0.0, MICRON_CAVITY.omega0)) == 0.0

    def test_off_shell_by_k_squared(self):
        assert float(kg_residual(MICRON_CAVITY, 1e6, MICRON_CAVITY.omega0)) == -1e12

    def test_vanishes_on_shell_100_random_points(self):
        rng = np.random.default_rng(20260809)
        cav = CAF2
        k_scale = cav.rest_energy / (hbar * cav.c_medium)
        x = 10.0 ** rng.uniform(-2.0, 1.0, size=100)
        ks = x * k_scale
        omegas = photon_energy(cav, ks) / hbar
        residuals = kg_residual(cav, ks, omegas)
        assert np.all(np.abs(residuals) < 1e-10 * ks**2)


@settings(max_examples=100, derandomize=True)
@given(x=st.floats(min_value=1e-2, max_value=10.0), n_s=st.floats(min_value=1.0, max_value=3.0))
def test_on_shell_residual_property(x, n_s):
    cav = CavitySpec.from_rest_wavelength(1.064e-6, n_s=n_s)
    k = x * cav.rest_energy / (hbar * cav.c_medium)
    omega = float(photon_energy(cav, k)) / hbar
    assert abs(float(kg_residual(cav, k, omega))) < 1e-10 * k**2


def test_dispersion_table_consistency():
    # the (k, omega, v_g) columns the dispersion command writes
    ks = np.linspace(0.0, 1e7, 32)
    omega = photon_energy(CAF2, ks) / hbar
    v_g = group_velocity(CAF2, ks)
    assert len(omega) == len(v_g) == 32
    assert v_g[0] == 0.0
    assert omega[0] == CAF2.omega0
    for w, v in zip(omega[1:], v_g[1:]):
        assert 0.0 < v < CAF2.c_medium
        assert w > CAF2.omega0
