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
from dataclasses import dataclass, replace

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

_PEAK_REL_TOL = 1e-9
_CROSS_REL_TOL = 1e-9
#: Relative width of the final bracket of the Q bisection.
_Q_REL_TOL = 1e-4
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        # the model squares these as Python floats, which raise on overflow
        if not (self.n_s >= 1.0 and self.n_s * self.n_s < math.inf):
            raise ValidationError(f"must be >= 1 with n_s**2 in double range, got {self.n_s!r}", key="n_s")
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
        # cavity of its rest wavelength
        CavitySpec.from_rest_wavelength(self.lambda0, self.n_s)
        # I(t) <= 2, so a finite 2*photons keeps every I*photons finite
        if not 2.0 * self.photons < math.inf:
            raise ValidationError(f"the photon count P_avg*eta_det*T_int/(hbar*omega0) = {self.photons!r} overflows")
        if not 0.0 < self.window < math.inf:
            raise ValidationError(
                f"the trace window {TRACE_LIFETIMES:g}*Q/omega0 = {self.window!r} s must be positive and finite",
                key="Q",
            )
        # Every intermediate value of Sn(t) is monotone in t, so on the trace
        # window it is bounded by its values at t = 0 and at the window end:
        # finite there is finite on every sample.  Only the end depends on Q.
        if not _snr_finite(self, [0.0, self.window]):
            raise DomainError(
                f"the signal model overflows on its trace window [0, {self.window:.6g}] s "
                f"(sigma0 = {self.sigma0!r}, y_out = {self.y_out!r}, n_s = {self.n_s!r}, g = {self.g!r})",
                key="Q" if _snr_finite(self, [0.0]) else None,
            )

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

    @classmethod
    def caf2_reference(cls, Q: float = 7e10, width_model: str = "corrected") -> "ExperimentConfig":
        """Reference CaF2 whispering-gallery configuration: 1064 nm light,
        10 cm initial mode, out-couplers at +/- 50 cm, 1 mW average power,
        1e-3 detection efficiency, one hour integration."""
        return cls(
            lambda0=1.064e-6,
            sigma0=0.1,
            y_out=0.5,
            P_avg=1e-3,
            eta_det=1e-3,
            T_int=3600.0,
            Q=Q,
            n_s=1.43,
            g=9.81,
            width_model=width_model,
        )


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


def _snr_finite(cfg: ExperimentConfig, times: list[float]) -> bool:
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            snr(cfg, np.array(times))
    except FloatingPointError:
        return False
    return True


def _require_time(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("must be finite and >= 0", key="t")
    return arr


def _width_squared(cfg: ExperimentConfig, t: np.ndarray) -> np.ndarray:
    term = c**2 * t / (2.0 * cfg.omega0 * cfg.n_s**2 * cfg.sigma0)
    if cfg.width_model == "paper_verbatim":
        return cfg.sigma0**2 + term
    return cfg.sigma0**2 + term**2


def mode_width(cfg: ExperimentConfig, t) -> np.ndarray | float:
    """Vertical mode width sigma(t) [m] under the configured width model."""
    return np.sqrt(_width_squared(cfg, _require_time(t)))


def _signal(cfg: ExperimentConfig, t):
    # I(t) on checked times: an array, or one float of the trace window.  A
    # float goes through np.exp, np.sin and libm pow for **2, which give the
    # bits of a checked 0-d array; math.exp and x*x differ in the last bit.
    dphi = cfg.omega0 * cfg.g * t * 2.0 * cfg.y_out / c**2
    envelope = np.exp(-cfg.omega0 * t / cfg.Q - cfg.y_out**2 / _width_squared(cfg, t))
    return envelope * 2.0 * np.sin(0.5 * dphi) ** 2


def interference_signal(cfg: ExperimentConfig, t) -> np.ndarray | float:
    """Photodiode signal fraction I(t) >= 0, with I(0) = 0.

    1 - cos(dphi) is evaluated as 2*sin(dphi/2)^2, which neither cancels nor
    underflows at the tiny early-time phase differences.
    """
    return _signal(cfg, _require_time(t))


def snr(cfg: ExperimentConfig, t) -> np.ndarray | float:
    """Shot-noise SNR sqrt(I * P_avg * eta_det * T_int / (hbar*omega0)).

    The detected-power factor P_avg*eta_det makes the count under the root a
    photon number.
    """
    return np.sqrt(interference_signal(cfg, t) * cfg.photons)


def _refine_peak(f, a: float, b: float) -> tuple[float, float]:
    # golden-section maximization; deterministic, converges far below the
    # 1e-6 relative contract
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    # the order test stops a search that has run out of floats between a and b
    while (b - a) > _PEAK_REL_TOL * max(abs(a), abs(b)) and a < x1 < x2 < b:
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


def _refine_crossing(f, a: float, b: float, level: float = 1.0) -> float:
    # bisection for the first upward crossing f(t) = level inside [a, b]
    fa = f(a) - level
    mid = 0.5 * (a + b)
    # a crossing closer to 0 than the smallest float leaves no mid between a and b
    while (b - a) > _CROSS_REL_TOL * b and a < mid < b:
        if fa * (f(mid) - level) <= 0.0:
            b = mid
        else:
            a = mid
            fa = f(a) - level
        mid = 0.5 * (a + b)
    return mid


def _sn_at(cfg: ExperimentConfig):
    # Sn at one time of the trace window, which ExperimentConfig has checked
    photons = cfg.photons
    return lambda ti: math.sqrt(_signal(cfg, ti) * photons)


def _sampled_peak(cfg: ExperimentConfig, n_samples: int):
    # ((t, I, Sn, index of the largest sample), (t_peak, Sn_peak))
    if n_samples < 16:
        raise ValidationError(f"must be >= 16, got {n_samples!r}", key="n_samples")
    t = np.linspace(0.0, cfg.window, n_samples)
    i_signal = _signal(cfg, t)
    sn = np.sqrt(i_signal * cfg.photons)
    idx = int(np.argmax(sn))
    if 0 < idx < n_samples - 1 and sn[idx] > 0.0:
        t_peak, sn_peak = _refine_peak(_sn_at(cfg), float(t[idx - 1]), float(t[idx + 1]))
    else:
        t_peak, sn_peak = float(t[idx]), float(sn[idx])
    return (t, i_signal, sn, idx), (t_peak, sn_peak)


def snr_peak(cfg: ExperimentConfig, n_samples: int = 512) -> tuple[float, float]:
    """(t_peak, Sn_peak): the maximum of Sn(t) on the trace window
    [0, cfg.window], sampled at n_samples points and refined to much better
    than 1e-6 relative in t.  The same values as snr_trace's, without its
    crossing search.

    The maximum is taken on the window only: where the global peak lies past
    it (see TRACE_LIFETIMES), this is the value at the window's edge.
    """
    return _sampled_peak(cfg, n_samples)[1]


def snr_trace(cfg: ExperimentConfig, n_samples: int = 512) -> SnrTrace:
    """Uniformly sampled Sn(t) on the trace window [0, cfg.window] with
    refined peak and crossing.

    The peak and the first Sn = 1 crossing (when one exists) are located to
    much better than 1e-6 relative in t.  Both are searched on the window
    only, so a global peak past it (see TRACE_LIFETIMES) is reported as the
    value at the window's edge.
    """
    (t, i_signal, sn, idx), (t_peak, sn_peak) = _sampled_peak(cfg, n_samples)
    t_cross: float | None = None
    above = np.nonzero(sn >= 1.0)[0]
    if above.size:
        first = int(above[0])
        t_cross = _refine_crossing(_sn_at(cfg), float(t[max(first - 1, 0)]), float(t[first]))
    elif sn_peak >= 1.0:
        t_cross = _refine_crossing(_sn_at(cfg), float(t[max(idx - 1, 0)]), t_peak)

    return SnrTrace(t=t, i_signal=i_signal, sn=sn, t_peak=t_peak, sn_peak=sn_peak, t_cross=t_cross)


def q_threshold(cfg: ExperimentConfig, q_lo: float, q_hi: float) -> QThresholdResult:
    """Smallest quality factor whose peak SNR reaches 1, by bisection down
    to a bracket of _Q_REL_TOL relative width.

    Sn_peak is strictly increasing in Q (only the decay factor exp(-w0 t/Q)
    depends on it), so bisection on [q_lo, q_hi] is valid; the bracket must
    be finite, with 0 < q_lo < q_hi, and satisfy Sn_peak(q_lo) < 1 < Sn_peak(q_hi).
    """
    if not 0.0 < q_lo < math.inf:
        raise ValidationError(f"must be finite and > 0, got {q_lo!r}", key="q_lo")
    if not q_lo < q_hi < math.inf:
        raise ValidationError(f"must be finite and > q_lo = {q_lo!r}, got {q_hi!r}", key="q_hi")

    def peak(q: float) -> float:
        return snr_peak(replace(cfg, Q=q))[1]

    def end_peak(q: float, key: str) -> float:
        # a bracket end the model cannot take at all fails as that end
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
