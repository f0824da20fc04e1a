import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfall import (
    CavitySpec,
    DomainError,
    GravityProfile,
    ValidationError,
    effective_mass,
    freefall_trajectory,
    group_velocity,
    phase_gradient,
)
from cavityfall.gravity import VELOCITY_LIMIT_FRACTION
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
        with pytest.raises(ValidationError, match="n_s\\*\\*2") as err:
            GravityProfile(n_s=1.4e154)
        assert err.value.key == "n_s"


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
        assert phase_gradient(CAF2, EARTH_CAF2, 0.0) == 0.0

    def test_reference_magnitude(self):
        omega0 = 2.0 * math.pi * c / 1.064e-6
        value = phase_gradient(CAF2, EARTH_CAF2, 1e-4)
        assert value == pytest.approx(omega0 * 9.81 * 1e-4 / c**2, rel=1e-15)
        assert value == pytest.approx(1.932e-5, rel=1e-3)

    def test_independent_of_medium_index(self):
        assert phase_gradient(CAF2, EARTH_VAC, 3.0) == phase_gradient(CAF2, EARTH_CAF2, 3.0)

    def test_negative_time_in_a_column_named(self):
        with pytest.raises(ValidationError, match=r"must be >= 0, got -1\.0") as err:
            phase_gradient(CAF2, EARTH_CAF2, [0.0, -1.0])
        assert err.value.key == "t"

    def test_overflow_is_a_domain_error(self):
        # omega0*g overflows before t and c^2 would bring the product back
        cavity = CavitySpec.from_rest_wavelength(2.0 * math.pi * c / 1.9e211)
        with pytest.raises(DomainError, match="overflows"):
            phase_gradient(cavity, GravityProfile(g=1e97), 1e-92)

    def test_equals_dielectric_momentum_chain(self):
        # m_s * |v(t)| / hbar collapses to omega0*g*t/c^2: the n_s factors cancel
        t = 2.5
        s = freefall_trajectory(CAF2, EARTH_CAF2, t)
        chain = effective_mass(CAF2) * abs(s.v) / hbar
        assert chain == pytest.approx(phase_gradient(CAF2, EARTH_CAF2, t), rel=1e-12)


# test_overflowing_fall_is_a_domain_error's slow fall: |v| stays far inside
# the limit while t*t overflows past t = 1.34e154
FEATHER = GravityProfile(g=1e-160 * 1.43**2, n_s=1.43)
# omega0*g = 1e300: the phase gradient overflows past t = 1.8e8 s, while
# the fall stays inside the velocity limit up to t = 3e11 s
HEAVY = CavitySpec.from_rest_wavelength(2.0 * math.pi * c / 1e306, n_s=1.0)
FAINT = GravityProfile(g=1e-6, n_s=1.0)


def _one_time_fall(cavity, profile, t):
    # freefall_trajectory of one time as written before it took columns
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"must be >= 0, got {t!r}", key="t")
    g_tilde = profile.g_tilde
    v = -g_tilde * t
    v_max = VELOCITY_LIMIT_FRACTION * cavity.c_medium
    if abs(v) >= v_max:
        raise DomainError(
            f"|v| = {abs(v):.6g} m/s leaves the non-relativistic domain "
            f"(limit {v_max:.6g} m/s, reached at t = {v_max / g_tilde:.6g} s)"
        )
    y = -0.5 * g_tilde * (t * t)
    k_y = effective_mass(cavity) * abs(v) / hbar
    if not (math.isfinite(y) and math.isfinite(k_y)):
        raise DomainError(f"the fall -g_tilde*t^2/2 or its wavenumber m*|v|/hbar overflows at t = {t:.6g} s")
    return y, v, k_y


def _one_time_gradient(omega0, profile, t):
    # phase_gradient of one time as written before it took columns
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"must be >= 0, got {t!r}", key="t")
    gradient = omega0 * profile.g * t / c**2
    if not math.isfinite(gradient):
        raise DomainError(f"the phase gradient omega0*g*t/c^2 overflows at t = {t:.6g} s")
    return gradient


def loop_reference(cavity, profile, times):
    """(y, v, k_y, phase gradient) rows of the freefall-analytic command's
    former per-time loop, in pure Python floats: every trajectory first,
    then every gradient, each raising at the first time that fails."""
    states = [_one_time_fall(cavity, profile, float(t)) for t in times]
    grads = [_one_time_gradient(cavity.omega0, profile, float(t)) for t in times]
    return np.array([*zip(*states), grads])


def column_form(cavity, profile, times):
    state = freefall_trajectory(cavity, profile, times)
    return np.array([state.y, state.v, state.k_y, phase_gradient(cavity, profile, times)])


def _outcome(evaluate, cavity, profile, times):
    """The bits of the result, or the type and message of the error; a
    RuntimeWarning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return evaluate(cavity, profile, times).view(np.uint64).tolist()
        except (ValidationError, DomainError) as exc:
            return type(exc), str(exc)


_TIME = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(1e-6, 1e5),  # around the Earth falls' velocity limits at 3.1e4 and 4.4e4 s
    st.floats(1e8, 1e12),  # HEAVY's gradient overflow and FAINT's limit
    st.floats(1e150, 1e160),  # t*t near and past overflow, inside FEATHER's limit
)


class TestTimeColumns:
    """A column of times gives the bits and the first error of the loop
    over its times."""

    @settings(max_examples=200, deadline=None)
    @given(
        setup=st.sampled_from([(CAF2, EARTH_CAF2), (CAF2, FEATHER), (HEAVY, FAINT), (VACUUM, EARTH_VAC)]),
        times=st.lists(_TIME, min_size=1, max_size=6),
        invalid=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 6), st.sampled_from([-1.0, -5e-324, math.nan, math.inf])),
        ),
    )
    def test_column_equals_the_loop(self, setup, times, invalid):
        if invalid is not None:
            times.insert(invalid[0], invalid[1])
        column = np.array(times)
        assert _outcome(column_form, *setup, column) == _outcome(loop_reference, *setup, column)

    def test_valid_column_bit_for_bit(self):
        column = np.array([0.0, 5e-324, 1e-310, 1e-3, 0.7, 3.0, 1e154, 1.3e154])
        expected = _outcome(loop_reference, CAF2, FEATHER, column)
        assert isinstance(expected, list)
        assert _outcome(column_form, CAF2, FEATHER, column) == expected

    @pytest.mark.parametrize(
        ("cavity", "profile", "bad", "error", "names"),
        [
            (CAF2, EARTH_CAF2, 1e5, DomainError, "non-relativistic"),
            (CAF2, FEATHER, 1e160, DomainError, "-g_tilde*t^2/2"),
            (HEAVY, FAINT, 1e10, DomainError, "phase gradient"),
        ],
        ids=["velocity-limit", "fall-overflow", "gradient-overflow"],
    )
    def test_failing_column_raises_the_loops_error(self, cavity, profile, bad, error, names):
        column = np.array([0.0, 1.0, bad, 2.0, 3.0])
        expected = _outcome(loop_reference, cavity, profile, column)
        assert expected[0] is error and names in expected[1]
        assert _outcome(column_form, cavity, profile, column) == expected
