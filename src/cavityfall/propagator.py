"""Strang split-step propagation of the vertical envelope, in closed form.

Evolves the non-relativistic envelope equation

    i du/dt = [ -(1/(2m)) d^2/dy^2 + F*y ] u,     F = m*g_tilde

on a uniform periodic grid with the symmetric Strang split: half a
potential phase in position space, a full kinetic phase in Fourier space,
half a potential phase again.  For a potential linear in y every
splitting-error commutator is a c-number, so N steps of size dt compose
exactly into one phase in k-space and one in y (the discrete Avron-Herbst
formula): with t = N*dt,

    u(t) = exp(-i F t y) * IFFT[ exp(-i theta(k)) * FFT u(0) ],
    theta(k) = [k^2 t - k F t^2 + F^2 (t^3/3 - t dt^2/12)] / (2m).

This is the Strang scheme itself, not an approximation to it: pushing every
potential half step through the kinetic steps leaves kinetic phases at the
midpoint momenta k - F (j - 1/2) dt, whose sum is theta.  Its only dt
dependence is the midpoint-rule phase error -F^2 t dt^2/(24m), a global
phase; centroid, width, momentum and the envelope phase gradient are exact
to roundoff, which is what lets the free-fall parabola be certified at 1e-8
and beyond.

Records are evaluated in the falling frame, u = exp(-i F t y) * v with
v = IFFT[exp(-i theta(k)) * FFT u(0)] (v leaves out theta's k-independent
term, a global phase that no record sees and that evolve, which returns
the lab-frame state, carries).  Records on the stride s, at steps
i_r = r s, lie tau = s dt apart, and

    theta(i_{r+1}) - theta(i_r) = [k^2 tau - k F tau^2 (2r + 1)] / (2m),

so the spectrum advances by a phasor exp(-i (theta(i_{r+1}) - theta(i_r)))
that itself turns by exp(i k F tau^2 / m) from one record to the next: one
IFFT and two complex multiplies per record, no exp, with the IFFTs and the
moments taken a block of records at a time.  Every K = 16th record,
and an off-stride final one, takes the spectrum and the phasor from the
closed form again, bit for bit exp(-i theta(k)) * FFT u(0).  In between,
the phase drifts from the closed form by roundoff, at most about
K eps (|phasor phase| + K |turn phase| + K) with eps the double epsilon,
the order of the closed form's own rounding eps |theta|.

|v| = |u| gives norm, centroid and width; the spectrum of v has the
time-invariant modulus |FFT u(0)|, so <k> = <k>_0 - F t and
<k^2> = <(k - F t)^2>_0 come in closed form from the initial power
spectrum, and the phase gradient is that of v minus F t.  The grid
therefore has to resolve only the envelope, not the carrier exp(-i F t y):
the momentum may pass the Nyquist wavenumber pi/dy.  The norm is conserved
to roundoff independently of the step count.

The equation depends on the physical mass and hbar only through their
ratio, so hbar = 1 is absorbed into m: the mass that propagate takes is
m/hbar, in whatever units the grid, dt and g_tilde use.  The CLI passes
the SI grid, step and acceleration unchanged, with m/hbar in s/m^2; Grid1D
itself carries no unit.  The linear potential is discontinuous across the
periodic wrap, so the formula holds only while the packet stays clear of
the edges: runs must keep it at least 4 sigma away (enforced at every
record).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError


#: Largest grid a run may allocate: a 2**20-point complex128 state is 16 MiB.
MAX_GRID_POINTS = 2**20
#: Largest number of rows (recorded samples, wavenumbers) a command may write.
MAX_ROWS = 10**6
#: Largest records x n_points of a propagation: a record is one IFFT and the grid's moments.
MAX_RECORD_SAMPLES = 2**30
#: Records from one closed-form anchor of propagate's phasor recurrence to
#: the next; the phase drift between anchors grows as its square.
_ANCHOR_INTERVAL = 16
#: Complex samples (512 KiB) of the block in which propagate transforms and
#: measures up to an anchor interval of records at once, on grids where it
#: holds more than two (up to 8192 points); larger grids take one-row
#: blocks, since a block of two cost more memory than it saved time.
_BLOCK_SAMPLES = 2**15


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [y_min, y_max); n_points a power of two in
    [64, MAX_GRID_POINTS]."""

    y_min: float
    y_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.y_min) and math.isfinite(self.y_max) and self.y_max > self.y_min):
            raise ValidationError(f"needs y_max > y_min, got [{self.y_min!r}, {self.y_max!r}]")
        # bounds y^2 and (y - centroid)^2 on the grid, and the 4 sigma0^2 that fits it
        if not math.isfinite(self.extent * self.extent):
            raise ValidationError(f"extent y_max - y_min = {self.extent:g} must have a square in double range")
        n = self.n_points
        if not (type(n) is int and n >= 64 and (n & (n - 1)) == 0):
            raise ValidationError(f"must be a power of two >= 64, got {n!r}", key="n_points")
        if n > MAX_GRID_POINTS:
            raise ValidationError(f"must be <= {MAX_GRID_POINTS} (grid budget), got {n!r}", key="n_points")

    @property
    def extent(self) -> float:
        return self.y_max - self.y_min

    @property
    def dy(self) -> float:
        return self.extent / self.n_points

    def y_values(self) -> np.ndarray:
        return self.y_min + self.dy * np.arange(self.n_points)

    def k_values(self) -> np.ndarray:
        # 2 pi fftfreq(n, dy) bit for bit, without fftfreq's integer and
        # product temporaries beside the result
        n = self.n_points
        k = np.arange(n, dtype=float)
        k[n // 2 :] -= n
        k *= 1.0 / (n * self.dy)
        k *= 2.0 * np.pi
        return k


class Trace(NamedTuple):
    """Observables of a run: one numpy column per field, one row per
    recorded sample."""

    t: np.ndarray
    centroid: np.ndarray
    width: np.ndarray
    mean_k: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    phase_gradient: np.ndarray


def init_gaussian(grid: Grid1D, sigma0: float) -> np.ndarray:
    """Unit-norm Gaussian envelope exp(-y^2/(4 sigma0^2)) at rest on the grid,
    as complex samples.

    Requires sigma0 > 0 with its square in double range, the packet to be
    resolved (sigma0 > 4 dy), to fit the domain (4 sigma0 < extent) and the
    domain to hold its launch point y = 0; the measured width of |u|^2 then
    equals sigma0 to better than 1e-6.
    """
    if not (sigma0 > 0.0 and math.isfinite(sigma0)):
        raise ValidationError(f"must be > 0, got {sigma0!r}", key="sigma0")
    if not 0.0 < sigma0 * sigma0 < math.inf:
        raise ValidationError(f"its square is out of double range, got {sigma0!r}", key="sigma0")
    if sigma0 <= 4.0 * grid.dy:
        raise DomainError(f"unresolved Gaussian: sigma0 = {sigma0:g} must exceed 4*dy = {4.0 * grid.dy:g}")
    if 4.0 * sigma0 >= grid.extent:
        raise DomainError(
            f"oversized Gaussian: 4*sigma0 = {4.0 * sigma0:g} must stay below the "
            f"domain extent {grid.extent:g}"
        )
    # off the grid, every sample would underflow to 0 and leave no norm
    if not grid.y_min <= 0.0 <= grid.y_max:
        raise DomainError(f"the launch point y = 0 is off the grid [{grid.y_min:g}, {grid.y_max:g}]")
    y = grid.y_values()
    u = np.exp(-(y**2) / (4.0 * sigma0**2) + 0j)
    u /= math.sqrt(float(np.sum(np.abs(u) ** 2)) * grid.dy)
    return u


#: Weights of the 4 phase increments between the 5 samples s = -2..2 that
#: give the least-squares a1 = sum(s phi)/10 and a2 = sum((s^2 - 2) phi)/14.
_LINEAR_WEIGHTS = np.array([2.0, 3.0, 3.0, 2.0]) / 10.0
_QUADRATIC_WEIGHTS = np.array([-2.0, -1.0, 1.0, 2.0]) / 14.0


def _block_moments(u: np.ndarray, y: np.ndarray, dy: float) -> list[tuple[float, float, float, float]]:
    """(norm, centroid, width, phase gradient at the centroid) of each row of
    the samples u in one vectorised pass, up to the first row whose norm is
    zero or non-finite.  Each row rounds as if measured alone: row sums and
    np.vecdot (a ddot per row) round as the 1-D sum and dot, where a matrix
    product (gemv) would not."""
    # silent overflow: a square's gives the non-finite norm that ends the
    # pass, and no row past one that fails propagate's checks may warn
    with np.errstate(over="ignore"):
        weights = u.real * u.real
        work = u.imag * u.imag
        weights += work
        total = weights.sum(axis=1)
        sums = total.tolist()
        kept = next((j for j, s in enumerate(sums) if not (s > 0.0 and math.isfinite(s))), len(sums))
        weights, work, u = weights[:kept], work[:kept], u[:kept]
        weights /= total[:kept, np.newaxis]
        centroid = np.vecdot(weights, y)
        np.subtract(y, centroid[:, np.newaxis], out=work)
        work *= work
        width = np.sqrt(np.vecdot(weights, work))
        # a least-squares quadratic through the phase of the 5 samples around
        # each centroid, differentiated at the centroid: it removes the
        # off-grid offset and the spreading chirp.  Both sets of weights sum
        # to zero, so they act on the wrapped phase increments angle(u[j+1]
        # u[j]*), which unwraps the phase on the way (np.polyfit to roundoff)
        s_c = (centroid - y[0]) / (y[1] - y[0])
        idx = np.clip(np.rint(s_c), 2, len(y) - 3).astype(np.intp)
        window = u[np.arange(kept)[:, np.newaxis], idx[:, np.newaxis] + np.arange(-2, 3)]
        increments = np.angle(window[:, 1:] * window[:, :-1].conj())
        a1 = np.vecdot(increments, _LINEAR_WEIGHTS)
        a2 = np.vecdot(increments, _QUADRATIC_WEIGHTS)
        phase_gradient = (a1 + 2.0 * a2 * (s_c - idx)) / (y[1] - y[0])
    norm = [s * dy for s in sums[:kept]]
    return list(zip(norm, centroid.tolist(), width.tolist(), phase_gradient.tolist()))


def _spectral_moments(spectrum: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """(<k>, <k^2>) of the FFT samples spectrum; inf or nan where a sum
    leaves double range, which the energy and mean_k records then carry."""
    with np.errstate(over="ignore", invalid="ignore"):
        power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
        total = float(power.sum())
        return float(power @ k) / total, float(power @ (k * k)) / total


def _record_count(n_steps: int, stride: int) -> int:
    """Length of recording_schedule(n_steps, stride), without building it."""
    return -(-n_steps // stride) + 1


def recording_schedule(n_steps: int, stride: int) -> list[int]:
    """Recorded step indices: 0, every stride-th step, and always n_steps;
    at most MAX_ROWS of them, checked before the list is built."""
    if (rows := _record_count(n_steps, stride)) > MAX_ROWS:
        work = f"recording {n_steps} steps at stride {stride} is {rows} rows"
        raise ValidationError(f"{work}, over the budget of {MAX_ROWS} rows", key="stride")
    return [*range(0, n_steps, stride), n_steps]


def _kinetic_phasor(grid: Grid1D, mass: float, a: float, b: float, out: np.ndarray) -> np.ndarray:
    """exp(-i (k^2 a - k b) / (2m)) on the grid's wavenumbers, into out; with
    a = t and b = F t^2 it is exp(-i theta(k)) less theta's k-independent
    term.  Rounded as exp(-1j * (k*k/(2m)*a - k/(2m)*b)), with two real
    N-point temporaries."""
    k = grid.k_values()
    phase = k * k
    phase /= 2.0 * mass
    phase *= a
    k /= 2.0 * mass
    k *= b
    phase -= k
    # for finite phase, -1j * phase is (+0, -phase) bit for bit; written so,
    # it needs no complex temporary or casting buffer
    out.real = 0.0
    np.negative(phase, out=out.imag)
    return np.exp(out, out=out)


def _fall_phases(force: float, t: float, dt: float) -> tuple[float, float]:
    """(F t, F^2 (t^3/3 - t dt^2/12)) at time t: the carrier's wavenumber and
    2m times theta's k-independent term.  Products, not float powers: t**3
    would raise OverflowError where t*t*t gives inf, which the callers'
    non-finite checks report."""
    ft = force * t
    return ft, force * ft * (t * t / 3.0 - dt * dt / 12.0)


def _checked_run(
    grid: Grid1D, u0: np.ndarray, *, mass: float, g_tilde: float, dt: float, n_steps: int, stride: int
) -> np.ndarray:
    """u0 as complex128 samples, after the checks of a run's parameters, its
    work budget (a ValidationError keyed stride) and its samples' shape, in
    that order and before anything of the grid's size is allocated."""
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ValidationError(f"m/hbar must be finite and > 0, got {mass!r}", key="mass")
    if not (g_tilde >= 0.0 and math.isfinite(g_tilde)):
        raise ValidationError(f"must be >= 0, got {g_tilde!r}", key="g_tilde")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValidationError(f"must be > 0, got {dt!r}", key="dt")
    if not (type(n_steps) is int and n_steps >= 1):
        raise ValidationError(f"must be an integer >= 1, got {n_steps!r}", key="n_steps")
    if not (type(stride) is int and stride >= 1):
        raise ValidationError(f"must be an integer >= 1, got {stride!r}", key="stride")
    if (n_records := _record_count(n_steps, stride)) * grid.n_points > MAX_RECORD_SAMPLES:
        work = f"{n_records} records of n_points = {grid.n_points} samples"
        raise ValidationError(f"{work} are over the work budget of {MAX_RECORD_SAMPLES} samples", key="stride")
    if np.shape(u0) != (grid.n_points,):
        raise ValidationError(f"must hold the grid's {grid.n_points} samples, got shape {np.shape(u0)}", key="u0")
    # complex128 throughout, so that every transform is a double one
    return np.asarray(u0, dtype=complex)


def _no_norm(u: np.ndarray, i: int) -> DomainError:
    """The error of samples u after step i whose norm sum is zero or not
    finite; only then are they scanned, since a finite sum has finite ones."""
    if not np.all(np.isfinite(u)):
        return DomainError(f"non-finite amplitudes after step {i}")
    return DomainError("state has zero or non-finite norm")


def _check_clearance(grid: Grid1D, centroid: float, width: float, i: int, t: float) -> None:
    """Raise unless the packet after step i (time t) keeps 4 sigma from the
    domain edges, where the periodic wrap breaks the linear potential."""
    clearance = 4.0 * width
    if centroid - clearance < grid.y_min or centroid + clearance > grid.y_max:
        needed = abs(centroid) + clearance
        raise DomainError(
            f"packet within 4 sigma of the domain edge at step {i} "
            f"(t = {t:g}); enlarge the grid to at least +/- {1.25 * needed:g}"
        )


def propagate(
    grid: Grid1D, u0: np.ndarray, *, mass: float, g_tilde: float, dt: float, n_steps: int, stride: int = 1
) -> Trace:
    """Record the observables of the samples u0 on grid over n_steps Strang
    steps of size dt from t = 0 under the acceleration g_tilde, every
    stride steps.  mass is m/hbar in whatever units the grid, dt and
    g_tilde use.

    Each record is the composed Strang state at its step index, evaluated
    in the falling frame (see the module docstring): the spectrum advances
    from record to record by a phasor, and every _ANCHOR_INTERVAL-th record
    and an off-stride final one take spectrum and phasor from the closed
    form.  The cost is one IFFT and two complex multiplies per record,
    whatever the step count.  Records are transformed by one in-place IFFT
    call and measured in one vectorised pass per block, bit for bit as one
    record at a time: up to an anchor interval of rows where _BLOCK_SAMPLES
    holds more than two records (16 up to 2048 points, 8 at 4096, 4 at
    8192), one row on larger grids.  Records always include the initial
    state and the final step; records x n_points is bounded by
    MAX_RECORD_SAMPLES, checked after the parameters and before anything is
    allocated (a ValidationError keyed stride).  The packet must keep 4
    sigma of clearance from the domain edges (checked at every recorded
    sample); violations raise a DomainError suggesting a larger grid.  Norm growth
    beyond roundoff or non-finite amplitudes abort the run naming the step.
    evolve returns the lab-frame state itself.
    """
    u0 = _checked_run(grid, u0, mass=mass, g_tilde=g_tilde, dt=dt, n_steps=n_steps, stride=stride)
    schedule = recording_schedule(n_steps, stride)
    y, dy = grid.y_values(), grid.dy
    force = mass * g_tilde
    # record spacing on the stride; a stride past n_steps has no such record
    tau = min(stride, n_steps) * dt
    # record 0's moments, which also reject a zero or non-finite state
    if not (measured := _block_moments(u0[np.newaxis], y, dy)):
        raise DomainError("state has zero or non-finite norm")
    initial_norm = measured[0][0]
    # records are transformed and measured a block of rows at a time: as
    # many as _BLOCK_SAMPLES holds where that is more than two, else one;
    # rows divides _ANCHOR_INTERVAL, so every anchor starts a block
    rows = min(_ANCHOR_INTERVAL, _BLOCK_SAMPLES // grid.n_points) if 2 * grid.n_points < _BLOCK_SAMPLES else 1
    spectra = np.empty((rows, grid.n_points), dtype=complex)
    # carried is the spectrum that a block's first record advances from:
    # record 0's, then the last of the block before, copied before the
    # in-place IFFT overwrites it (one N-point copy per block, where an
    # out-of-place IFFT would double the block)
    carried = np.fft.fft(u0)
    mean_k0, mean_k20 = _spectral_moments(carried, grid.k_values())
    # step_r = exp(-i (theta(i_{r+1}) - theta(i_r))) advances the spectrum
    # to the next record on the stride, and turn = exp(i k F tau^2 / m)
    # advances step_r to step_{r+1}
    with np.errstate(over="ignore", invalid="ignore"):
        step = _kinetic_phasor(grid, mass, tau, force * tau * tau, np.empty_like(u0))
        turn = _kinetic_phasor(grid, mass, 0.0, 2.0 * force * tau * tau, np.empty_like(u0))
    # one row of Trace fields per record: 56 bytes, where a Trace of floats takes ~280
    records = np.empty((len(schedule), len(Trace._fields)))
    # the block of records from record first: (step, t, F t, offset) of each,
    # their envelopes (the rows of v) and the moments of its vectorised pass
    first, block, v = 0, [(0, 0.0, 0.0, 0.0)], u0[np.newaxis]
    while True:
        # each record checked in turn, as if it were measured alone
        for j, (i, t, ft, offset) in enumerate(block):
            # offset is the global phase that evolve carries: a record whose
            # phase leaves double range fails as the lab-frame state would
            if not (math.isfinite(ft) and math.isfinite(offset)):
                raise DomainError(f"non-finite amplitudes after step {i}")
            if j == len(measured):
                # the row whose norm stopped the pass
                raise _no_norm(v[j], i)
            norm, centroid, width, phase_grad = measured[j]
            if norm > initial_norm * (1.0 + 1e-12):
                raise DomainError(f"norm grew beyond roundoff at step {i}: {norm!r}")
            _check_clearance(grid, centroid, width, i, t)
            kinetic = (mean_k20 - 2.0 * ft * mean_k0 + ft * ft) / (2.0 * mass)
            records[first + j] = (t, centroid, width, mean_k0 - ft, norm, kinetic + force * centroid, phase_grad - ft)
        first += len(block)
        if first == len(schedule):
            break
        del v, measured  # the previous block's envelopes, freed before this block's arrays
        block = []
        with np.errstate(over="ignore", invalid="ignore"):
            # blocks end before multiples of rows; one that starts off an
            # anchor advances from the carried spectrum
            for j, i in enumerate(schedule[first : first // rows * rows + rows]):
                r = first + j
                t = i * dt
                ft, offset = _fall_phases(force, t, dt)
                if i == r * stride and r % _ANCHOR_INTERVAL:
                    np.multiply(spectra[j - 1] if j else carried, step, out=spectra[j])
                    step *= turn
                else:
                    _kinetic_phasor(grid, mass, t, ft * t, spectra[j])
                    # FFT u(0) again, into carried: only a block's first row
                    # reads it, and the block's end overwrites it.  A copy
                    # held through the run would be one more N-point complex
                    # array next to spectra, carried, step and turn
                    spectra[j] *= np.fft.fft(u0, out=carried)
                    if i == r * stride:
                        _kinetic_phasor(grid, mass, tau, force * tau * tau * (2 * r + 1), step)
                block.append((i, t, ft, offset))
            np.copyto(carried, spectra[len(block) - 1])
            v = np.fft.ifft(spectra[: len(block)], axis=-1, out=spectra[: len(block)])
        measured = _block_moments(v, y, dy)

    return Trace(*records.T)


def evolve(grid: Grid1D, u0: np.ndarray, *, mass: float, g_tilde: float, dt: float, n_steps: int) -> np.ndarray:
    """The lab-frame state, carrier and global phase included, that n_steps
    Strang steps of size dt make of the samples u0 on grid under the
    acceleration g_tilde: exp(-i F t y) IFFT[exp(-i theta(k)) FFT u0] at
    t = n_steps dt (see the module docstring).  mass is m/hbar, as in
    propagate.  The envelope is bit for bit that of propagate's closed-form
    anchor record at the same step.  Parameters are checked as by
    propagate(..., stride=n_steps), and the state as that run checks its
    final record: non-finite amplitudes, a zero norm or a packet within
    4 sigma of the domain edges raise a DomainError with the same message.
    """
    u0 = _checked_run(grid, u0, mass=mass, g_tilde=g_tilde, dt=dt, n_steps=n_steps, stride=n_steps)
    y, t = grid.y_values(), n_steps * dt
    ft, offset = _fall_phases(mass * g_tilde, t, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = _kinetic_phasor(grid, mass, t, ft * t, np.empty_like(u0))
        spectrum *= np.fft.fft(u0)
        u = np.exp(-1j * (ft * y + offset / (2.0 * mass))) * np.fft.ifft(spectrum)
    if not (measured := _block_moments(u[np.newaxis], y, grid.dy)):
        raise _no_norm(u, n_steps)
    _, centroid, width, _ = measured[0]
    _check_clearance(grid, centroid, width, n_steps, t)
    return u
