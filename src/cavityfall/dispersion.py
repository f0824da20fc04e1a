"""Relativistic in-plane dispersion of light standing in a planar cavity.

A photon confined between mirrors spaced by L (longitudinal order j,
background index n_s) has zero group velocity along the cavity axis and is
free in the mirror plane.  Its exact in-plane dispersion is that of a
relativistic particle,

    (hbar*omega)**2 = (m * cm**2)**2 + (hbar * cm * k_par)**2,

with a reduced light speed cm = c/n_s and a rest mass m fixed by the rest
energy E0 = hbar*pi*j*c/(L*n_s) through m = E0/cm**2.  For vacuum this is
m = hbar*pi*j/(c*L); filling the spacer at fixed rest energy multiplies the
mass by n_s**2.  No effective-mass approximation is involved: the identity
is exact for all k_par, and the plane-wave residual of the associated 2D
wave equation vanishes exactly on shell (see kg_residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .units import c, hbar


def _require_index(n_s: float) -> None:
    if not (math.isfinite(n_s) and n_s >= 1.0):
        raise ValidationError(f"must be >= 1, got {n_s!r}", key="n_s")


@dataclass(frozen=True)
class CavitySpec:
    """Geometry and material of a planar (or cylinder-equivalent) cavity.

    L: mirror spacing [m]; j: longitudinal mode order; n_s: background
    refractive index; Q: quality factor (optional; parsed, validated and
    written back to the manifest, but read by no computation: the SNR model
    takes its Q from ExperimentConfig).
    """

    L: float
    j: int
    n_s: float = 1.0
    Q: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValidationError(f"must be > 0, got {self.L!r}", key="L")
        # j enters the float formulas, which hold integers exactly up to 2**53
        if not (isinstance(self.j, int) and 1 <= self.j <= 2**53):
            raise ValidationError(f"must be an integer in [1, 2**53], got {self.j!r}", key="j")
        _require_index(self.n_s)
        if self.Q is not None and not (math.isfinite(self.Q) and self.Q > 0.0):
            raise ValidationError(f"must be > 0 when given, got {self.Q!r}", key="Q")
        # every command derives the rest energy and the mass E0/c_medium**2
        if not (0.0 < self.rest_energy < math.inf and self.c_medium**2 > 0.0 and effective_mass(self) < math.inf):
            raise ValidationError(
                f"rest energy and effective mass of L = {self.L!r}, j = {self.j!r}, n_s = {self.n_s!r} "
                f"must be in double range"
            )

    @classmethod
    def from_rest_wavelength(cls, lambda0: float, n_s: float = 1.0, Q: float | None = None) -> "CavitySpec":
        """Cavity with rest energy 2*pi*hbar*c/lambda0, i.e. the j=1 half-wave
        geometry L = lambda0/(2*n_s) for the medium at hand.

        Specifying the rest energy directly (through its vacuum wavelength)
        removes the ambiguity of holding (L, j) fixed while changing n_s,
        which would change the rest energy itself.
        """
        # checked before the division, which an index of 0 would fail and a
        # negative one would blame on lambda0
        _require_index(n_s)
        if not (isinstance(lambda0, (int, float)) and math.isfinite(lambda0) and lambda0 / (2.0 * n_s) > 0.0):
            raise ValidationError(f"must be > 0, as must lambda0/(2*n_s), got {lambda0!r}", key="lambda0")
        try:
            return cls(L=lambda0 / (2.0 * n_s), j=1, n_s=n_s, Q=Q)
        except ValidationError as exc:
            if exc.key is not None:  # Q's own check
                raise
            # the caller gave lambda0 and n_s, not the half-wave cavity's L and j
            raise ValidationError(
                f"rest energy and effective mass of lambda0 = {lambda0!r}, n_s = {n_s!r} must be in double range"
            ) from None

    @property
    def c_medium(self) -> float:
        """In-plane light speed c/n_s [m/s]."""
        return c / self.n_s

    @property
    def omega0(self) -> float:
        """Rest angular frequency pi*j*c/(L*n_s) [rad/s]."""
        return math.pi * self.j * c / (self.L * self.n_s)

    @property
    def rest_energy(self) -> float:
        """Rest energy E0 = hbar*omega0 [J]; derived from omega0 so that
        E0/hbar and omega0 stay consistent to the last ulp."""
        return hbar * self.omega0


def effective_mass(cavity: CavitySpec) -> float:
    """Rest mass of the confined photon [kg].

    Defined by m = E0 / c_medium**2, which equals hbar*pi*j/(c*L) in vacuum
    and n_s * hbar*pi*j/(c*L) in a dielectric; at fixed rest energy the
    dielectric mass is n_s**2 times the vacuum one.
    """
    return cavity.rest_energy / cavity.c_medium**2


def photon_energy(cavity: CavitySpec, k_par):
    """Photon energy hbar*omega at in-plane wavenumber k_par [J].

    Exact relativistic branch sqrt(E0**2 + (hbar*cm*k)**2); even in k_par.
    """
    return np.hypot(cavity.rest_energy, hbar * cavity.c_medium * np.asarray(k_par, dtype=float))


def group_velocity(cavity: CavitySpec, k_par):
    """In-plane group velocity d(omega)/dk [m/s].

    v_g = cm**2 * hbar * k / E(k); odd in k_par, bounded by cm, and equal to
    hbar*k/m in the non-relativistic regime hbar*cm*k << E0.
    """
    k = np.asarray(k_par, dtype=float)
    return cavity.c_medium**2 * hbar * k / photon_energy(cavity, k)


def kg_residual(cavity: CavitySpec, k_par, omega):
    """Plane-wave residual of the 2D massive wave equation [1/m^2].

    For u = exp(i k.r) the operator reduces to
        -k**2 + (omega**2 - omega0**2) / cm**2,
    which vanishes exactly when (k, omega) lies on the dispersion branch.
    The difference-of-squares form keeps the evaluation well conditioned at
    small k, where omega**2 and omega0**2 cancel to ~16 digits.
    """
    k = np.asarray(k_par, dtype=float)
    w = np.asarray(omega, dtype=float)
    w0 = cavity.omega0
    return -k * k + (w - w0) * (w + w0) / cavity.c_medium**2

