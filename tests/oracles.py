"""Closed-form oracles that judge the package's numbers.

The accelerating Gaussian (its moments and its wavefunction) judges the
propagator, the scalar moments of one record (_envelope_moments) judge its
vectorised moment pass bit for bit, and the plane-wave residual of the 2D
massive wave equation judges the dispersion branch.  Each restates its physics from scratch: this
module imports nothing from cavityfall but the error classes it raises, and
no module of the package imports it (tests/test_error_messages.py checks
both), so a judge never shares code with what it judges.

The wavefunction oracle reads its grid through y_values(), dy, y_min and
y_max, and the residual its cavity through omega0 and c_medium: a Grid1D
and a CavitySpec, or anything with those attributes.
"""

import math
from typing import NamedTuple

import numpy as np

from cavityfall import DomainError, ValidationError


class GaussianMoments(NamedTuple):
    """Closed-form observables of the accelerating Gaussian."""

    centroid: float
    width: float
    mean_k: float
    phase_gradient: float


def analytic_gaussian_oracle(sigma0: float, mass: float, g_tilde: float, t: float) -> GaussianMoments:
    """Exact observables of a Gaussian released at rest in a linear potential.

    mass is m/hbar, as in propagate and exact_accelerating_gaussian; in SI
    it is in s/m^2.  centroid = -g_tilde*t^2/2; width follows the free
    spreading law sigma0*sqrt(1 + (t/(2*mass*sigma0^2))^2) (a linear
    potential does not alter spreading); mean_k = -mass*g_tilde*t.
    phase_gradient is the magnitude of the envelope phase gradient at the
    centroid, mass*g_tilde*t, which equals the lab-frame law omega0*g*t/c^2
    once mass and g_tilde are the dielectric m/hbar and renormalized
    acceleration.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"must be >= 0, got {t!r}", key="t")
    tau = t / (2.0 * mass * sigma0**2)
    return GaussianMoments(
        centroid=-0.5 * g_tilde * t**2,
        width=sigma0 * math.sqrt(1.0 + tau**2),
        mean_k=-mass * g_tilde * t,
        phase_gradient=mass * g_tilde * t,
    )


def exact_accelerating_gaussian(grid, sigma0: float, mass: float, g_tilde: float, t: float) -> np.ndarray:
    """Closed-form wavefunction of the released Gaussian at time t on the
    samples of grid; mass is m/hbar.

    Boost identity for H = p^2/(2m) + F*y with F = m*g_tilde:

        psi(y, t) = exp(-i(F t y + F^2 t^3/(6m))) * psi_free(y + g_tilde t^2/2, t),

    with psi_free the analytic free Gaussian.  Includes the global phase, so
    the L2 distance to a numerically propagated state exposes the pure-phase
    O(dt^2) Strang error; used as the convergence-study oracle, independent
    of the stepping code.  Normalized to unit discrete norm; the packet must
    be resolved (sigma0 > 4 dy) and its centre -g_tilde t^2/2 must lie on
    the grid.
    """
    centre = -0.5 * g_tilde * t**2
    # off the grid, or too narrow for it, every sample could underflow to 0
    # and leave no norm
    if not grid.y_min <= centre <= grid.y_max:
        raise DomainError(
            f"the dropped centre -g_tilde t^2/2 = {centre:g} is off the grid [{grid.y_min:g}, {grid.y_max:g}]"
        )
    if sigma0 <= 4.0 * grid.dy:
        raise DomainError(f"unresolved Gaussian: sigma0 = {sigma0:g} must exceed 4*dy = {4.0 * grid.dy:g}")
    y = grid.y_values()
    force = mass * g_tilde
    shifted = y - centre
    spread = 1.0 + 1j * t / (2.0 * mass * sigma0**2)
    psi_free = np.exp(-(shifted**2) / (4.0 * sigma0**2 * spread)) / np.sqrt(spread)
    phase = force * t * y + force**2 * t**3 / (6.0 * mass)
    psi = psi_free * np.exp(-1j * phase)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dy)
    return psi


#: Weights of the 4 phase increments between the 5 samples s = -2..2 that
#: give the least-squares a1 = sum(s phi)/10 and a2 = sum((s^2 - 2) phi)/14.
_LINEAR_WEIGHTS = np.array([2.0, 3.0, 3.0, 2.0]) / 10.0
_QUADRATIC_WEIGHTS = np.array([-2.0, -1.0, 1.0, 2.0]) / 14.0


def _phase_gradient_at_centroid(u: np.ndarray, y: np.ndarray, centroid: float) -> float:
    # Least-squares quadratic phi = a0 + a1 s + a2 s^2 through the phase of
    # the 5 samples around the centroid, s = (y - y[idx])/dy in {-2..2},
    # differentiated at the exact centroid position; the fit kills both the
    # off-grid offset and the spreading chirp (whose phase is quadratic),
    # leaving only roundoff.  Both sets of weights sum to zero, so summing by
    # parts puts them on the wrapped phase increments angle(u[j+1] u[j]*),
    # which unwraps the phase on the way (np.polyfit to roundoff).
    dy = y[1] - y[0]
    s_c = (centroid - y[0]) / dy
    idx = min(max(int(round(s_c)), 2), len(y) - 3)
    window = u[idx - 2 : idx + 3]
    increments = np.angle(window[1:] * window[:-1].conj())
    a1 = float(_LINEAR_WEIGHTS @ increments)
    a2 = float(_QUADRATIC_WEIGHTS @ increments)
    return (a1 + 2.0 * a2 * (s_c - idx)) / dy


def _envelope_moments(u: np.ndarray, y: np.ndarray, dy: float) -> tuple[float, float, float, float]:
    """(norm, centroid, width, phase gradient at the centroid) of samples u;
    a zero or non-finite norm raises a DomainError."""
    # two N-point buffers, each expression rounded as written out in full:
    # weights = (re*re + im*im)/total, width^2 = weights @ (y - centroid)**2
    with np.errstate(over="ignore"):
        weights = u.real * u.real
        work = u.imag * u.imag
        weights += work
        total = float(weights.sum())
    if not (total > 0.0 and math.isfinite(total)):
        raise DomainError("state has zero or non-finite norm")
    weights /= total
    centroid = float(weights @ y)
    np.subtract(y, centroid, out=work)
    work *= work
    width = math.sqrt(float(weights @ work))
    return total * dy, centroid, width, _phase_gradient_at_centroid(u, y, centroid)


def kg_residual(cavity, k_par, omega):
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
