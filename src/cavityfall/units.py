"""Physical constants and the nondimensionalization layer.

SI magnitudes in this problem are hostile to double precision (effective
masses ~1e-36 kg, optical frequencies ~1e15 rad/s, hour-long integration
windows), so every numerical propagation runs in scaled units.  The scaling
is the canonical quantum one,

    T_ref = M_ref * L_ref**2 / hbar,      E_ref = hbar / T_ref,

which sends hbar -> 1, and sends the reference mass and length to 1.
Converting a quantity in or out is a pure power-law rescaling; round-trips
are identity to a couple of ulps.

Constants are fixed, not configurable (only the gravitational acceleration
g is a model parameter, carried by GravityProfile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Final

from .errors import ValidationError

#: Speed of light in vacuum [m/s] (exact by SI definition).
c: Final[float] = 299_792_458.0
#: Planck constant [J s] (exact by SI definition).
h: Final[float] = 6.626_070_15e-34
#: Reduced Planck constant [J s].
hbar: Final[float] = h / (2.0 * math.pi)
#: Newtonian gravitational constant [m^3 kg^-1 s^-2] (CODATA 2018).
G: Final[float] = 6.674_30e-11
#: Default surface gravitational acceleration [m/s^2].
g_earth: Final[float] = 9.81


# dimension tag -> exponents (a, b, c) of L_ref^a * T_ref^b * M_ref^c
_DIMENSIONS: Final[dict[str, tuple[int, int, int]]] = {
    "length": (1, 0, 0),
    "time": (0, 1, 0),
    "mass": (0, 0, 1),
    "energy": (2, -2, 1),
    "wavenumber": (-1, 0, 0),
    "velocity": (1, -1, 0),
    "acceleration": (1, -2, 0),
}


@dataclass(frozen=True)
class UnitScaling:
    """Reference scales mapping SI values to dimensionless simulation values.

    Invariant: T_ref = M_ref * L_ref**2 / hbar and E_ref = hbar / T_ref, so a
    Schrodinger evolution expressed in these units has hbar = 1.
    """

    L_ref: float
    M_ref: float
    T_ref: float
    E_ref: float

    def __post_init__(self) -> None:
        for name in ("L_ref", "M_ref", "T_ref", "E_ref"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and strictly positive, got {value!r}")
        t_canonical = self.M_ref * self.L_ref**2 / hbar
        if abs(self.T_ref - t_canonical) > 1e-12 * t_canonical:
            raise ValidationError("T_ref must equal M_ref * L_ref**2 / hbar (canonical quantum scaling)")
        if abs(self.E_ref - hbar / self.T_ref) > 1e-12 * self.E_ref:
            raise ValidationError("E_ref must equal hbar / T_ref")

    def factor(self, dimension: str) -> float:
        """SI magnitude of one scaled unit of the given dimension."""
        try:
            a, b, m = _DIMENSIONS[dimension]
        except KeyError:
            raise ValidationError(
                f"unknown dimension tag {dimension!r}; expected one of {sorted(_DIMENSIONS)}"
            ) from None
        return self.L_ref**a * self.T_ref**b * self.M_ref**m


def make_scaling(mass: float, length: float) -> UnitScaling:
    """Build the canonical scaling from a reference mass [kg] and length [m]."""
    for name, value in (("mass", mass), ("length", length)):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be finite and strictly positive, got {value!r}")
    t_ref = mass * length**2 / hbar
    return UnitScaling(L_ref=length, M_ref=mass, T_ref=t_ref, E_ref=hbar / t_ref)


def to_dimensionless(value: float, dimension: str, scaling: UnitScaling) -> float:
    """Convert an SI value of the tagged dimension to scaled units."""
    return value / scaling.factor(dimension)


def from_dimensionless(value: float, dimension: str, scaling: UnitScaling) -> float:
    """Convert a scaled value of the tagged dimension back to SI."""
    return value * scaling.factor(dimension)


DIMENSION_TAGS: Final[tuple[str, ...]] = tuple(sorted(_DIMENSIONS))
