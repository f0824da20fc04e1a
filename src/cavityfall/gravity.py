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
omega0*g*t/c**2, independent of n_s.

All formulas here are the non-relativistic, linearized-potential limit;
operations refuse inputs outside that domain instead of extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dispersion import CavitySpec, effective_mass
from .errors import DomainError, ValidationError
from .units import c, g_earth, hbar

#: Linearized weak-field domain: |g*y|/c**2 must stay below this.
WEAK_FIELD_LIMIT = 1e-4
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
            raise ValidationError(f"gravity.g: must be >= 0, got {self.g!r}")
        # g_tilde squares n_s as a Python float, which raises on overflow
        if not (self.n_s >= 1.0 and self.n_s * self.n_s < math.inf):
            raise ValidationError(f"gravity.n_s: must be >= 1 with n_s**2 in double range, got {self.n_s!r}")

    @property
    def g_tilde(self) -> float:
        """Renormalized fall acceleration g/n_s**2 [m/s^2]."""
        return self.g / self.n_s**2


@dataclass(frozen=True)
class FreefallState:
    """Kinematic state of the falling wavepacket at time t since release."""

    t: float
    y: float
    v: float
    k_y: float


def _require_same_medium(cavity: CavitySpec, profile: GravityProfile) -> None:
    if cavity.n_s != profile.n_s:
        raise ValidationError(
            f"cavity and gravity profile disagree on the medium index: "
            f"n_s = {cavity.n_s!r} vs {profile.n_s!r}"
        )


def index_correction(profile: GravityProfile, y: float) -> float:
    """Fractional gravitational index shift -g*y/c**2 at height y.

    The shift per meter (~1e-16) is below the resolution of 1.0 in double
    precision, so it is returned on its own rather than as n(y) - n_s.
    """
    correction = -profile.g * y / c**2
    if abs(correction) >= WEAK_FIELD_LIMIT:
        raise DomainError(
            f"|g*y|/c^2 = {abs(correction):.3e} exceeds the linearized "
            f"weak-field domain {WEAK_FIELD_LIMIT:g}"
        )
    return correction


def freefall_trajectory(cavity: CavitySpec, profile: GravityProfile, t: float) -> FreefallState:
    """Closed-form Newtonian fall of the standing wavepacket at time t.

    y = -g_tilde*t**2/2 and v = -g_tilde*t are independent of the photon
    mass; k_y = m*|v|/hbar is not.  Raises DomainError once |v| would exceed
    1e-3 * c/n_s, reporting the latest valid time.
    """
    _require_same_medium(cavity, profile)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"t must be >= 0, got {t!r}")
    g_tilde = profile.g_tilde
    v = -g_tilde * t
    v_max = VELOCITY_LIMIT_FRACTION * cavity.c_medium
    if abs(v) >= v_max:
        raise DomainError(
            f"|v| = {abs(v):.6g} m/s leaves the non-relativistic domain "
            f"(limit {v_max:.6g} m/s, reached at t = {v_max / g_tilde:.6g} s)"
        )
    # t * t, not t**2: a float power raises OverflowError where the product
    # gives inf, which is reported as a domain error
    y = -0.5 * g_tilde * (t * t)
    k_y = effective_mass(cavity) * abs(v) / hbar
    if not (math.isfinite(y) and math.isfinite(k_y)):
        raise DomainError(f"the fall -g_tilde*t^2/2 or its wavenumber m*|v|/hbar overflows at t = {t:.6g} s")
    return FreefallState(t=t, y=y, v=v, k_y=k_y)


def phase_gradient(omega0: float, profile: GravityProfile, t: float) -> float:
    """Gravity-induced envelope phase gradient omega0*g*t/c**2 [rad/m].

    Equals m_s*|v(t)|/hbar evaluated through the dielectric free-fall chain,
    with every n_s factor cancelling: the observable is medium independent.
    """
    if not (omega0 > 0.0 and math.isfinite(omega0)):
        raise ValidationError(f"omega0 must be > 0, got {omega0!r}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"t must be >= 0, got {t!r}")
    gradient = omega0 * profile.g * t / c**2
    if not math.isfinite(gradient):
        raise DomainError(f"the phase gradient omega0*g*t/c^2 overflows at t = {t:.6g} s")
    return gradient
