"""Physical constants (SI).

Constants are fixed, not configurable (only the gravitational acceleration
g is a model parameter, carried by GravityProfile).
"""

from __future__ import annotations

import math
from typing import Final

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
