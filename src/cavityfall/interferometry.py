"""Two-port free-fall interferometer: signal, shot-noise SNR, Q threshold.

A Gaussian mode of initial width sigma0 is released at rest in a vertical
whispering-gallery cylinder; gratings at heights +/- y_out couple light out
onto a photodiode, with an engineered pi offset between the arms.  The
gravity-induced phase gradient tilts the expanding mode, so the photodiode
signal

    I(t) = exp(-omega0*t/Q - y_out^2/sigma^2(t)) * (1 - cos(dphi(t))),
    dphi(t) = omega0*g*t*2*y_out/c^2,

starts fully destructive (I(0) = 0) and grows until cavity decay wins.  A
shot-noise-limited detection of average power P_avg with efficiency eta_det
over integration time T_int gives

    Sn(t) = sqrt(I(t) * P_avg * eta_det * T_int / (hbar*omega0)),

the square root of the detected signal photon count.

Two width laws are provided.  "corrected" (default) is the standard Gaussian
spreading law written with hbar/m = c^2/(n_s^2*omega0):

    sigma^2(t) = sigma0^2 + [c^2 t / (2 omega0 n_s^2 sigma0)]^2.

"paper_verbatim" drops the square on the second term, which is dimensionally
a length, not an area; it is kept selectable because it is what produced the
published SNR curves, and the divergence between the two models is reported
rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import CavitySpec
from .errors import CavityFallError, DomainError, ValidationError
from .units import c, g_earth, hbar

WIDTH_MODELS = ("corrected", "paper_verbatim")

#: Default trace window in cavity lifetimes.  The signal envelope t^2 e^(-t/tau)
#: peaks at 2*tau, and the mode-expansion factor pushes the optimum a few tau
#: later.  Ten lifetimes do not always hold the peak: for the corrected width
#: model Sn(t) has a second maximum at 12-14 tau, which is the global one on
#: the CaF2 reference for Q from 7.28e10 to 2.86e11.  There the peak found is
#: the value at the window's edge (ROADMAP.md, item 7).
TRACE_LIFETIMES = 10.0
#: Samples of the trace window in snr_peak and snr_trace.
TRACE_SAMPLES = 2001

_PEAK_REL_TOL = 1e-9
_CROSS_REL_TOL = 1e-9
#: Relative width of the final bracket of the Q bisection.
_Q_REL_TOL = 1e-4
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_C_SQUARED = c**2
#: Samples of the trace window in the Q bisection's scans.
_N_SAMPLES = 512


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameter set of the free-fall interference experiment (SI)."""

    lambda0: float
    sigma0: float
    y_out: float
    P_avg: float
    eta_det: float
    T_int: float
    Q: float
    n_s: float = 1.0
    g: float = g_earth
    width_model: str = "corrected"

    def __post_init__(self) -> None:
        positive = (
            ("lambda0", self.lambda0),
            ("sigma0", self.sigma0),
            ("y_out", self.y_out),
            ("P_avg", self.P_avg),
            ("eta_det", self.eta_det),
            ("T_int", self.T_int),
            ("Q", self.Q),
            ("g", self.g),
        )
        for name, value in positive:
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"must be > 0, got {value!r}", key=name)
        if self.eta_det > 1.0:
            raise ValidationError(f"must be in (0, 1], got {self.eta_det!r}", key="eta_det")
        for name, value in (("sigma0", self.sigma0), ("y_out", self.y_out)):
            if not 0.0 < value * value < math.inf:
                raise ValidationError(f"its square is out of double range, got {value!r}", key=name)
        if self.width_model not in WIDTH_MODELS:
            raise ValidationError(f"must be one of {WIDTH_MODELS}, got {self.width_model!r}", key="width_model")
        if not (math.isfinite(self.omega0) and hbar * self.omega0 > 0.0):
            raise ValidationError(
                f"the photon energy 2*pi*hbar*c/lambda0 is out of double range, got {self.lambda0!r}", key="lambda0"
            )
        # the manifest reports the mass of this photon, as the half-wave
        # cavity of its rest wavelength; its first check is that of n_s, by
        # the medium's one rule in dispersion._require_index
        CavitySpec.from_rest_wavelength(self.lambda0, self.n_s)
        # I(t) <= 2, so a finite 2*photons keeps every I*photons finite
        if not 2.0 * self.photons < math.inf:
            raise ValidationError(f"the photon count P_avg*eta_det*T_int/(hbar*omega0) = {self.photons!r} overflows")

    @property
    def omega0(self) -> float:
        """Rest angular frequency 2*pi*c/lambda0 [rad/s]."""
        return 2.0 * math.pi * c / self.lambda0

    @property
    def photons(self) -> float:
        """Detected photon count P_avg*eta_det*T_int/(hbar*omega0) at I = 1."""
        return self.P_avg * self.eta_det * self.T_int / (hbar * self.omega0)

    @property
    def window(self) -> float:
        """Trace window TRACE_LIFETIMES*Q/omega0 [s]."""
        return TRACE_LIFETIMES * self.Q / self.omega0


@dataclass
class SnrTrace:
    """Sampled interference signal and SNR with refined peak and crossing."""

    t: np.ndarray
    i_signal: np.ndarray
    sn: np.ndarray
    t_peak: float
    sn_peak: float
    t_cross: float | None


@dataclass(frozen=True)
class QThresholdResult:
    """Outcome of the quality-factor bisection, with its iteration log."""

    q_min: float
    sn_peak: float
    iterations: tuple[tuple[float, float, float, float], ...]


def _require_time(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("must be finite and >= 0", key="t")
    return arr


def _constants(cfg: ExperimentConfig, q: float) -> tuple:
    # The constants of I(t) for cfg at quality factor q, each rounded as the
    # formula rounds it inline, so that precomputing them keeps every bit:
    # ((2*omega0*n_s^2*sigma0, sigma0^2, is paper_verbatim), omega0,
    # omega0*g, y_out, y_out^2, Q)
    omega0 = cfg.omega0
    width = (2.0 * omega0 * cfg.n_s**2 * cfg.sigma0, cfg.sigma0**2, cfg.width_model == "paper_verbatim")
    return width, omega0, omega0 * cfg.g, cfg.y_out, cfg.y_out**2, q


def _width_squared(width: tuple, t):
    scale, sigma0_squared, verbatim = width
    term = _C_SQUARED * t / scale
    return sigma0_squared + (term if verbatim else term**2)


def mode_width(cfg: ExperimentConfig, t) -> np.ndarray | float:
    """Vertical mode width sigma(t) [m] under the configured width model.
    A time at which sigma^2 overflows is a DomainError keyed t."""
    t = _require_time(t)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.sqrt(_width_squared(_constants(cfg, cfg.Q)[0], t))
    except FloatingPointError:
        raise DomainError(f"the width model overflows at times up to {float(np.max(t)):.6g} s", key="t") from None


def _signal(k: tuple, t):
    # I(t) from _constants on checked times: an array, or one float of the
    # trace window.  A float goes through np.exp, np.sin and libm pow for **2,
    # which give the bits of a checked 0-d array; math.exp and x*x differ in
    # the last bit.
    width, omega0, omega0_g, y_out, y_out_squared, q = k
    dphi = omega0_g * t * 2.0 * y_out / _C_SQUARED
    envelope = np.exp(-omega0 * t / q - y_out_squared / _width_squared(width, t))
    return envelope * 2.0 * np.sin(0.5 * dphi) ** 2


def _checked_signal(k: tuple, t: np.ndarray) -> np.ndarray | None:
    # I(t) from _constants on an array of times, or None where a value of the
    # formula overflows, divides by zero or is nan.  A Python float would not
    # do: its arithmetic overflows to inf with no floating-point error.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _signal(k, t)
    except FloatingPointError:
        return None


def interference_signal(cfg: ExperimentConfig, t) -> np.ndarray | float:
    """Photodiode signal fraction I(t) >= 0, with I(0) = 0.

    1 - cos(dphi) is evaluated as 2*sin(dphi/2)^2, which neither cancels nor
    underflows at the tiny early-time phase differences.  A time at which
    the model overflows is a DomainError keyed t.
    """
    t = _require_time(t)
    i_signal = _checked_signal(_constants(cfg, cfg.Q), t)
    if i_signal is None:
        raise DomainError(f"the signal model overflows at times up to {float(np.max(t)):.6g} s", key="t")
    return i_signal


def snr(cfg: ExperimentConfig, t) -> np.ndarray | float:
    """Shot-noise SNR sqrt(I * P_avg * eta_det * T_int / (hbar*omega0)).

    The detected-power factor P_avg*eta_det makes the count under the root a
    photon number.  Times are checked as interference_signal checks them.
    """
    return np.sqrt(interference_signal(cfg, t) * cfg.photons)


def _refine_peak(f, a: float, b: float) -> tuple[float, float]:
    # golden-section maximization; deterministic, converges far below the
    # 1e-6 relative contract
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    # the order test stops a search that has run out of floats between a and
    # b; a and b are times, 0 <= a < b, so b is the larger magnitude
    while (b - a) > _PEAK_REL_TOL * b and a < x1 < x2 < b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    t_peak = 0.5 * (a + b)
    return t_peak, f(t_peak)


def _refine_crossing(f, a: float, b: float) -> float:
    # bisection for the first upward crossing f(t) = 1 inside [a, b]
    fa = f(a) - 1.0
    mid = 0.5 * (a + b)
    # a crossing closer to 0 than the smallest float leaves no mid between a and b
    while (b - a) > _CROSS_REL_TOL * b and a < mid < b:
        if fa * (f(mid) - 1.0) <= 0.0:
            b = mid
        else:
            a = mid
            fa = f(a) - 1.0
        mid = 0.5 * (a + b)
    return mid


def _sampled_peak(cfg: ExperimentConfig, n_samples: int, q: float):
    # ((t, I, Sn, index of the largest sample), (t_peak, Sn_peak), Sn at one
    # time of the window) of cfg at quality factor q, on n_samples points.  A
    # largest last sample is refined only where the parabola through the last
    # three samples falls at the window's end, keeping the larger of the
    # refined and sampled values: a scan still rising there costs no more.
    # Each intermediate value of Sn(t) is monotone in t, so a scan finite at
    # both ends of the window is finite at every time the refinement takes.
    window = TRACE_LIFETIMES * q / cfg.omega0
    if not 0.0 < window < math.inf:
        raise ValidationError(
            f"the trace window {TRACE_LIFETIMES:g}*Q/omega0 = {window!r} s must be positive and finite", key="Q"
        )
    k = _constants(cfg, q)
    photons = cfg.photons
    t = np.linspace(0.0, window, n_samples)
    i_signal = _checked_signal(k, t)
    if i_signal is None:
        raise DomainError(
            f"the signal model overflows on its trace window [0, {window:.6g}] s "
            f"(sigma0 = {cfg.sigma0!r}, y_out = {cfg.y_out!r}, n_s = {cfg.n_s!r}, g = {cfg.g!r})",
            key="Q" if _checked_signal(k, t[:1]) is not None else None,  # only the window's end depends on Q
        )
    sn = np.sqrt(i_signal * photons)

    def sn_at(ti: float) -> float:
        return math.sqrt(_signal(k, ti) * photons)

    idx = int(np.argmax(sn))
    t_peak, sn_peak = float(t[idx]), float(sn[idx])
    if 0 < idx < n_samples - 1 and sn_peak > 0.0:
        t_peak, sn_peak = _refine_peak(sn_at, float(t[idx - 1]), float(t[idx + 1]))
    elif idx == n_samples - 1 and 3.0 * sn[-1] - 4.0 * sn[-2] + sn[-3] < 0.0:
        refined = _refine_peak(sn_at, float(t[-2]), t_peak)
        if refined[1] > sn_peak:
            t_peak, sn_peak = refined
    return (t, i_signal, sn, idx), (t_peak, sn_peak), sn_at


def snr_peak(cfg: ExperimentConfig) -> tuple[float, float]:
    """(t_peak, Sn_peak): the maximum of Sn(t) at cfg.Q on the trace window
    [0, cfg.window], sampled at TRACE_SAMPLES points and refined to much
    better than 1e-6 relative in t, also where it lies between the last two
    samples.  The same values as snr_trace's, without its crossing search.

    The maximum is taken on the window only: where Sn still rises at the
    window's end (see TRACE_LIFETIMES), this is the value at the edge.  A
    window that is not finite and positive, or on which the signal model
    overflows, is an error keyed Q (no key for an overflow at t = 0).
    """
    return _sampled_peak(cfg, TRACE_SAMPLES, cfg.Q)[1]


def snr_trace(cfg: ExperimentConfig) -> SnrTrace:
    """Sn(t) at cfg.Q on TRACE_SAMPLES uniform points of the trace window
    [0, cfg.window], with refined peak and crossing.

    The peak, as snr_peak finds it, and the first Sn = 1 crossing (when one
    exists) are located to much better than 1e-6 relative in t.  Both are
    searched on the window only, so where Sn still rises at the window's end
    (see TRACE_LIFETIMES) the peak is the value at the edge.  The window and
    the signal model on it are checked as in snr_peak.
    """
    (t, i_signal, sn, idx), (t_peak, sn_peak), sn_at = _sampled_peak(cfg, TRACE_SAMPLES, cfg.Q)
    t_cross: float | None = None
    above = np.nonzero(sn >= 1.0)[0]
    if above.size:
        first = int(above[0])
        t_cross = _refine_crossing(sn_at, float(t[max(first - 1, 0)]), float(t[first]))
    elif sn_peak >= 1.0:
        t_cross = _refine_crossing(sn_at, float(t[max(idx - 1, 0)]), t_peak)

    return SnrTrace(t=t, i_signal=i_signal, sn=sn, t_peak=t_peak, sn_peak=sn_peak, t_cross=t_cross)


def q_threshold(cfg: ExperimentConfig, q_lo: float, q_hi: float) -> QThresholdResult:
    """Smallest quality factor whose peak SNR reaches 1, by bisection down
    to a bracket of _Q_REL_TOL relative width.

    Sn_peak is strictly increasing in Q (only the decay factor exp(-w0 t/Q)
    depends on it), so bisection on [q_lo, q_hi] is valid; the bracket must
    be finite, with 0 < q_lo < q_hi, and satisfy Sn_peak(q_lo) < 1 < Sn_peak(q_hi).
    A bracket end at which the model cannot be evaluated fails keyed as that
    end, q_lo or q_hi.
    """
    if not 0.0 < q_lo < math.inf:
        raise ValidationError(f"must be finite and > 0, got {q_lo!r}", key="q_lo")
    if not q_lo < q_hi < math.inf:
        raise ValidationError(f"must be finite and > q_lo = {q_lo!r}, got {q_hi!r}", key="q_hi")

    def peak(q: float) -> float:
        return _sampled_peak(cfg, _N_SAMPLES, q)[1][1]

    def end_peak(q: float, key: str) -> float:
        try:
            return peak(q)
        except CavityFallError as exc:
            if exc.key == "Q":
                exc.key = key
            raise

    peak_lo, peak_hi = end_peak(q_lo, "q_lo"), end_peak(q_hi, "q_hi")
    if not (peak_lo < 1.0 < peak_hi):
        raise DomainError(
            f"bracket does not straddle Sn_peak = 1: Sn_peak({q_lo:g}) = {peak_lo:g}, "
            f"Sn_peak({q_hi:g}) = {peak_hi:g}",
            key="q_hi" if peak_lo < 1.0 else "q_lo",
        )

    iterations: list[tuple[float, float, float, float]] = []
    lo, hi = q_lo, q_hi
    while (hi - lo) > _Q_REL_TOL * lo:
        mid = 0.5 * (lo + hi)
        peak_mid = peak(mid)
        iterations.append((lo, hi, mid, peak_mid))
        if peak_mid < 1.0:
            lo = mid
        else:
            hi = mid
    q_min = 0.5 * (lo + hi)
    return QThresholdResult(q_min=q_min, sn_peak=peak(q_min), iterations=tuple(iterations))
