"""Weak-field gravitational optics and the free fall of a standing wavepacket.

To a laboratory observer, weak-field time dilation in a uniform field g looks
like a refractive index profile.  For a cavity with medium index n_s,
released at y = 0,

    n(y) = n_s * [1 - g*y/c**2],

so the photon rest energy m*n(y)*c**2 becomes height dependent.  Energy
conservation for a packet released at rest then gives the Newtonian chain

    m*g_tilde*y = hbar**2 k_y**2 / (2m),   y(t) = -g_tilde*t**2/2,

with the renormalized acceleration g_tilde = g/n_s**2: the medium drags the
fall, and the mass m cancels from the trajectory (equivalence principle).
The envelope phase gradient d(phi)/dy = m*g_tilde*t/hbar collapses to
omega0*g*t/c**2, with omega0 the cavity's rest frequency: independent of n_s.

All formulas here are the non-relativistic, linearized-potential limit.
freefall_trajectory refuses a fall past |v| = 1e-3*c/n_s instead of
extrapolating, and that one rule bounds both: below it the weak-field term
at the centroid, |g*y|/c**2 = n_s**2*v**2/(2*c**2), stays under 5e-7.

freefall_trajectory and phase_gradient take the cavity, its field and one
time or a column of times.  A column is evaluated with one array expression
per quantity, which rounds exactly as the one-time form does, and its
invariants are checked once per call.  An error names the first time, in
column order, that fails any check, with the message that time alone raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import CavitySpec, _require_index, effective_mass
from .errors import DomainError, ValidationError
from .units import c, g_earth, hbar

#: Non-relativistic domain: |v| must stay below this fraction of c/n_s.
VELOCITY_LIMIT_FRACTION = 1e-3


@dataclass(frozen=True)
class GravityProfile:
    """Uniform weak gravitational field seen by the cavity.

    g: acceleration [m/s^2]; n_s: medium index.
    """

    g: float = g_earth
    n_s: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and self.g >= 0.0):
            raise ValidationError(f"must be >= 0, got {self.g!r}", key="g")
        _require_index(self.n_s)

    @property
    def g_tilde(self) -> float:
        """Renormalized fall acceleration g/n_s**2 [m/s^2]."""
        return self.g / self.n_s**2


@dataclass(frozen=True)
class FreefallState:
    """Kinematic state of the falling wavepacket at time t since release:
    floats for one time, arrays for a column of times."""

    t: float | np.ndarray
    y: float | np.ndarray
    v: float | np.ndarray
    k_y: float | np.ndarray


def _first_failure(*failing: np.ndarray) -> tuple[int, int] | None:
    """(check, element) of the first element of a column that fails any of
    the per-element checks, given as masks in the order one element is
    checked; None if every element passes."""
    masks = [np.ravel(mask) for mask in failing]
    element = np.flatnonzero(np.logical_or.reduce(masks))
    if element.size == 0:
        return None
    i = int(element[0])
    return next(check for check, mask in enumerate(masks) if mask[i]), i


def _invalid_times(times: np.ndarray) -> np.ndarray:
    return ~((times >= 0.0) & np.isfinite(times))


def freefall_trajectory(cavity: CavitySpec, profile: GravityProfile, t: float | np.ndarray) -> FreefallState:
    """Closed-form Newtonian fall of the standing wavepacket at time t.

    y = -g_tilde*t**2/2 and v = -g_tilde*t are independent of the photon
    mass; k_y = m*|v|/hbar is not.  t is one time, giving float fields, or a
    column of times, giving array fields.  Raises DomainError once |v| would
    exceed 1e-3 * c/n_s, reporting the latest valid time.  For a column, the
    error is that of its first time that is invalid, past the velocity limit
    or overflowing, in that order of checks.
    """
    if cavity.n_s != profile.n_s:
        raise ValidationError(f"differs from the cavity's medium index {cavity.n_s!r}, got {profile.n_s!r}", key="n_s")
    times = np.asarray(t, dtype=float)
    g_tilde = profile.g_tilde
    v_max = VELOCITY_LIMIT_FRACTION * cavity.c_medium
    # an overflow gives inf (and 0*inf nan), reported below as a domain error
    with np.errstate(over="ignore", invalid="ignore"):
        v = -g_tilde * times
        speed = np.abs(v)
        y = -0.5 * g_tilde * (times * times)
        k_y = effective_mass(cavity) * speed / hbar
    failure = _first_failure(_invalid_times(times), speed >= v_max, ~(np.isfinite(y) & np.isfinite(k_y)))
    if failure is not None:
        check, i = failure
        if check == 0:
            raise ValidationError(f"must be >= 0, got {float(times.flat[i])!r}", key="t")
        if check == 1:
            raise DomainError(
                f"|v| = {float(speed.flat[i]):.6g} m/s leaves the non-relativistic domain "
                f"(limit {v_max:.6g} m/s, reached at t = {v_max / g_tilde:.6g} s)"
            )
        raise DomainError(
            f"the fall -g_tilde*t^2/2 or its wavenumber m*|v|/hbar overflows at t = {float(times.flat[i]):.6g} s"
        )
    if times.ndim == 0:
        return FreefallState(t=t, y=float(y), v=float(v), k_y=float(k_y))
    return FreefallState(t=times, y=y, v=v, k_y=k_y)


def phase_gradient(cavity: CavitySpec, profile: GravityProfile, t: float | np.ndarray) -> float | np.ndarray:
    """Gravity-induced envelope phase gradient cavity.omega0*g*t/c**2 [rad/m].

    Equals m_s*|v(t)|/hbar evaluated through the dielectric free-fall chain,
    with every n_s factor cancelling: the observable is medium independent.
    t is one time, giving a float, or a column of times, giving an array;
    an error names the column's first invalid or overflowing time.
    """
    times = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        gradient = cavity.omega0 * profile.g * times / c**2
    failure = _first_failure(_invalid_times(times), ~np.isfinite(gradient))
    if failure is not None:
        check, i = failure
        if check == 0:
            raise ValidationError(f"must be >= 0, got {float(times.flat[i])!r}", key="t")
        raise DomainError(f"the phase gradient omega0*g*t/c^2 overflows at t = {float(times.flat[i]):.6g} s")
    return float(gradient) if times.ndim == 0 else gradient
