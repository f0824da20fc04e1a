"""Weak-field gravitational optics and the free fall of a standing wavepacket.

To a laboratory observer, weak-field time dilation near a mass looks like a
refractive index profile.  For a cavity in a uniform field g with medium
index n_s,

    n(y) = n_s * [1 + g*(y_ref - y)/c**2],

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
from .units import G, c, g_earth, hbar

#: Linearized weak-field domain: |g*(y_ref - y)|/c**2 must stay below this.
WEAK_FIELD_LIMIT = 1e-4
#: Non-relativistic domain: |v| must stay below this fraction of c/n_s.
VELOCITY_LIMIT_FRACTION = 1e-3


@dataclass(frozen=True)
class GravityProfile:
    """Weak-field gravitational environment seen by the cavity.

    g: surface acceleration [m/s^2]; y_ref: height where the index equals
    n_s [m]; n_s: medium index; source: optional (M [kg], r [m]) point-mass
    descriptor, validated against the weak-field bound 2GM/(r c^2) < 1e-4.
    """

    g: float = g_earth
    y_ref: float = 0.0
    n_s: float = 1.0
    source: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and self.g >= 0.0):
            raise ValidationError(f"g must be >= 0, got {self.g!r}")
        if not math.isfinite(self.y_ref):
            raise ValidationError(f"y_ref must be finite, got {self.y_ref!r}")
        if not (math.isfinite(self.n_s) and self.n_s >= 1.0):
            raise ValidationError(f"n_s must be >= 1, got {self.n_s!r}")
        if self.source is not None:
            mass, radius = self.source
            if not (mass >= 0.0 and radius > 0.0):
                raise ValidationError(f"point-mass source needs M >= 0 and r > 0, got {self.source!r}")
            if 2.0 * G * mass / (radius * c**2) >= WEAK_FIELD_LIMIT:
                raise DomainError(
                    f"point-mass source violates the weak-field bound: 2GM/(rc^2) = "
                    f"{2.0 * G * mass / (radius * c**2):.3e} >= {WEAK_FIELD_LIMIT:g}"
                )

    @classmethod
    def from_point_mass(cls, mass: float, radius: float, y_ref: float = 0.0, n_s: float = 1.0) -> "GravityProfile":
        """Profile with g = GM/r**2 at distance r from a point mass M."""
        return cls(g=G * mass / radius**2, y_ref=y_ref, n_s=n_s, source=(mass, radius))

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


def proper_time_factor(mass: float, radius: float) -> float:
    """Weak-field time dilation sqrt(1 - 2GM/(r c^2)), dimensionless.

    <= 1, approaching 1 as r -> infinity.  Refuses radii within 100
    gravitational radii, where the weak-field form is meaningless.
    """
    if not (mass >= 0.0 and math.isfinite(mass)):
        raise ValidationError(f"mass must be >= 0, got {mass!r}")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValidationError(f"radius must be > 0, got {radius!r}")
    r_min = 100.0 * 2.0 * G * mass / c**2
    if radius <= r_min:
        raise DomainError(
            f"radius {radius:.6g} m is inside the weak-field validity bound "
            f"{r_min:.6g} m (100 gravitational radii)"
        )
    return math.sqrt(1.0 - 2.0 * G * mass / (radius * c**2))


def index_correction(profile: GravityProfile, y: float) -> float:
    """Fractional gravitational index shift g*(y_ref - y)/c**2.

    Kept separate from gravitational_index because the shift per meter
    (~1e-16) is below the resolution of 1.0 in double precision; callers
    needing the shift itself must use this, not n(y) - n_s.
    """
    correction = profile.g * (profile.y_ref - y) / c**2
    if abs(correction) >= WEAK_FIELD_LIMIT:
        raise DomainError(
            f"|g*(y_ref - y)|/c^2 = {abs(correction):.3e} exceeds the linearized "
            f"weak-field domain {WEAK_FIELD_LIMIT:g}"
        )
    return correction


def gravitational_index(profile: GravityProfile, y: float) -> float:
    """Effective index n(y) = n_s * [1 + g*(y_ref - y)/c**2].

    Strictly decreasing in y; equals n_s at y = y_ref.
    """
    return profile.n_s * (1.0 + index_correction(profile, y))


def kinetic_correction_scale(profile: GravityProfile, y: float) -> float:
    """Relative size of the gravitational correction to the kinetic term.

    The kinetic energy is hbar^2 k^2/(2 n(y) m); dropping the n(y)/n_s
    factor is an O(g*|y|/c**2) relative error (~1e-16 per meter on Earth).
    This diagnostic quantifies the neglect instead of asserting it.
    """
    return abs(index_correction(profile, y))


def potential_energy(cavity: CavitySpec, profile: GravityProfile, y: float) -> float:
    """Height-dependent part of the rest energy, linearized: U(y) = m*g_tilde*y [J].

    m is the (dielectric) effective mass and g_tilde = g/n_s**2; U(0) = 0 at
    the release point.
    """
    _require_same_medium(cavity, profile)
    index_correction(profile, y)  # enforce the linearized domain
    return effective_mass(cavity) * profile.g_tilde * y


def momentum_from_drop(cavity: CavitySpec, profile: GravityProfile, y_drop: float) -> float:
    """Envelope wavenumber k_y = (m/hbar)*sqrt(2*g_tilde*y_drop) [rad/m].

    Positive root of the energy balance m*g_tilde*y = hbar^2 k^2/(2m) for a
    packet released at rest (k_y(0) = 0) after falling y_drop >= 0.
    """
    _require_same_medium(cavity, profile)
    if not (y_drop >= 0.0 and math.isfinite(y_drop)):
        raise ValidationError(f"y_drop must be >= 0, got {y_drop!r}")
    return effective_mass(cavity) / hbar * math.sqrt(2.0 * profile.g_tilde * y_drop)


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
    if not math.isfinite(y):
        raise DomainError(f"the fall -g_tilde*t^2/2 overflows at t = {t:.6g} s")
    k_y = effective_mass(cavity) * abs(v) / hbar
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
    return omega0 * profile.g * t / c**2
