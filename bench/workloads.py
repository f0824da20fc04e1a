"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into a fixed number of scenario documents and
CLI operations over them.  The same seed always gives the same inputs.

Parameters that set an operation's cost (grid size, step count, k points,
number of Q values, bracket width) take the same evenly spaced levels for
every seed, so each seed's operation list carries the same cost mix; the
seed moves the physics (wavelength, index, g, sigma0, run length) and the
order.  That keeps throughput comparable across seeds while every input
stays distinct.

The physics constants and the signal model below are written out here on
purpose, from the paper's formulas, so that the generator and the output
checks do not lean on the code they measure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C = 299_792_458.0
HBAR = 6.626_070_15e-34 / (2.0 * math.pi)

#: Grid spacing of every generated propagation scenario [m]; sigma0 must
#: exceed 4*DY to stay resolved.
DY = 1.0 / 64.0
#: Edge clearance, in packet widths, that every generated run keeps.
CLEARANCE_SIGMAS = 8.0

#: drop: step ranges per grid size, chosen so that each operation costs about
#: the same (N log N * steps roughly constant; 0.6-1 s on a 2.1 GHz Xeon vCPU),
#: and the variants of each size that follow the shipped scenario.
DROP_STEPS = {4096: (600, 750), 8192: (300, 375), 16384: (150, 188)}
DROP_VARIANTS = 2
DROP_RECORDS = 30

#: trace: operations of each of its three commands.
TRACE_PER_KIND = 10
TRACE_N_POINTS = 2048
TRACE_SIGMA0 = 0.5
TRACE_NUMERIC_STEPS = (100, 300)
TRACE_ANALYTIC_STEPS = (1000, 4000)
TRACE_K_POINTS = (2000, 6000)

#: snr: experiment documents; fig2b and qthreshold operations each; the Q
#: range of the fig2b sweeps; the range of the factors by which a qthreshold
#: bracket reaches below and above the threshold Q.
SNR_DOCS = 16
SNR_PER_KIND = 32
SNR_Q_RANGE = (2e10, 1e11)
SNR_BRACKET_FACTOR = (2.0, 30.0)
#: snr_trace's default window in cavity lifetimes (the peak lies inside it).
TRACE_LIFETIMES = 10.0

WORKLOADS = ("drop", "trace", "snr")

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation: command, index of its scenario document, extra args."""

    command: str
    scenario: int
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    documents: tuple[dict, ...]
    ops: tuple[Op, ...]


def _levels(n: int) -> list[float]:
    """n evenly spaced points of (0, 1)."""
    return [(j + 0.5) / n for j in range(n)]


def _between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _fmt(value: float) -> str:
    return repr(float(value))


# --------------------------------------------------------------------------
# free-fall kinematics of the generated scenarios


def omega0(lambda0: float) -> float:
    return 2.0 * math.pi * C / lambda0


def hbar_over_mass(lambda0: float, n_s: float) -> float:
    """hbar/m for the dielectric photon mass m = hbar*omega0*n_s^2/c^2 [m^2/s]."""
    return C**2 / (n_s**2 * omega0(lambda0))


def packet_width(sigma0: float, lambda0: float, n_s: float, t: float) -> float:
    """Free Gaussian spreading law sigma(t) (a linear potential does not alter it)."""
    tau = hbar_over_mass(lambda0, n_s) * t / (2.0 * sigma0**2)
    return sigma0 * math.sqrt(1.0 + tau**2)


def edge_clearance(doc: dict) -> float:
    """Smallest distance from the centroid to a domain edge over the run, in
    units of the packet width at that time (the drop and the spreading are
    both monotone, so the final time is the worst)."""
    prop, cav, grav = doc["propagation"], doc["cavity"], doc["gravity"]
    t = prop["t_final"]
    y = -0.5 * grav["g"] / grav["n_s"] ** 2 * t**2
    sigma = packet_width(prop["sigma0"], cav["lambda0"], cav["n_s"], t)
    grid = prop["grid"]
    return min(y - grid["y_min"], grid["y_max"] - y) / sigma


def _max_time(sigma0: float, lambda0: float, n_s: float, g: float, half_extent: float) -> float:
    """Longest run that keeps CLEARANCE_SIGMAS of edge clearance (bisection)."""
    g_tilde = g / n_s**2

    def fits(t: float) -> bool:
        return 0.5 * g_tilde * t**2 + CLEARANCE_SIGMAS * packet_width(sigma0, lambda0, n_s, t) <= half_extent

    lo, hi = 0.0, 1.0
    while fits(hi):
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _freefall_doc(
    rng: random.Random, n_points: int, steps: int, sigma0: float, stride: int, time_fraction: tuple[float, float]
) -> dict:
    lambda0 = rng.uniform(0.9e-6, 1.3e-6)
    n_s = round(rng.uniform(1.30, 1.60), 4)
    g = rng.uniform(9.78, 9.83)
    half = 0.5 * n_points * DY
    t_final = _max_time(sigma0, lambda0, n_s, g, half) * rng.uniform(*time_fraction)
    dt = t_final / steps
    return {
        "cavity": {"lambda0": lambda0, "n_s": n_s, "Q": 7e10},
        "gravity": {"g": g, "n_s": n_s},
        "propagation": {
            "grid": {"y_min": -half, "y_max": half, "n_points": n_points},
            "dt": dt,
            "t_final": steps * dt,
            "sigma0": sigma0,
        },
        "output": {"directory": "out", "stride": stride},
    }


def propagation_work(doc: dict) -> int:
    """n_points * n_steps of a freefall-numeric run of this document."""
    prop = doc["propagation"]
    return prop["grid"]["n_points"] * int(round(prop["t_final"] / prop["dt"]))


# --------------------------------------------------------------------------
# interferometer signal model (independent oracle)


def sn_curve(exp: dict, q: float, t):
    """Shot-noise SNR Sn(t) of the two-port interferometer at quality factor q
    (t a float or an array)."""
    w0 = omega0(exp["lambda0"])
    term = C**2 * t / (2.0 * w0 * exp["n_s"] ** 2 * exp["sigma0"])
    width2 = exp["sigma0"] ** 2 + (term if exp["width_model"] == "paper_verbatim" else term**2)
    dphi = w0 * exp["g"] * t * 2.0 * exp["y_out"] / C**2
    signal = np.exp(-w0 * t / q - exp["y_out"] ** 2 / width2) * 2.0 * np.sin(0.5 * dphi) ** 2
    photons = exp["P_avg"] * exp["eta_det"] * exp["T_int"] / (HBAR * w0)
    return np.sqrt(signal * photons)


def sn_peak(exp: dict, q: float) -> tuple[float, float]:
    """Time and value of the peak of Sn(t) over the default trace window:
    dense grid, then golden section."""
    t = np.linspace(0.0, TRACE_LIFETIMES * q / omega0(exp["lambda0"]), 4097)
    values = sn_curve(exp, q, t)
    i = int(np.argmax(values))
    a, b = float(t[max(i - 1, 0)]), float(t[min(i + 1, len(t) - 1)])
    f = lambda x: float(sn_curve(exp, q, x))  # noqa: E731
    # the peak value's error is quadratic in the interval, so 1e-9 in t is ample
    while b - a > 1e-9 * b:
        x1, x2 = b - _PHI * (b - a), a + _PHI * (b - a)
        if f(x1) < f(x2):
            a = x1
        else:
            b = x2
    t_peak = 0.5 * (a + b)
    return (t_peak, f(t_peak)) if f(t_peak) >= values[i] else (float(t[i]), float(values[i]))


def q_star(exp: dict) -> float:
    """Quality factor where the peak SNR crosses 1 (bisection in log Q)."""
    lo, hi = 1e6, 1e18
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if sn_peak(exp, mid)[1] < 1.0 else (lo, mid)
    return math.sqrt(lo * hi)


# --------------------------------------------------------------------------
# workload generators


def _drop(rng: random.Random, shipped: dict) -> Workload:
    docs = [shipped]
    for n_points, (lo, hi) in DROP_STEPS.items():
        for u in _levels(DROP_VARIANTS):
            steps = round(_between(lo, hi, u))
            sigma0 = rng.uniform(0.08, 0.16)
            docs.append(_freefall_doc(rng, n_points, steps, sigma0, max(1, steps // DROP_RECORDS), (0.5, 0.95)))
    ops = [Op("freefall-numeric", i) for i in range(len(docs))]
    rng.shuffle(ops)
    return Workload("drop", tuple(docs), tuple(ops))


def _trace(rng: random.Random) -> Workload:
    docs: list[dict] = []
    ops: list[Op] = []
    for u in _levels(TRACE_PER_KIND):
        for kind, bounds in (("freefall-numeric", TRACE_NUMERIC_STEPS), ("freefall-analytic", TRACE_ANALYTIC_STEPS)):
            docs.append(_freefall_doc(rng, TRACE_N_POINTS, round(_between(*bounds, u)), TRACE_SIGMA0, 1, (0.4, 0.9)))
            ops.append(Op(kind, len(docs) - 1))
        # dispersion reads only the cavity section, so it reuses the last document
        ops.append(Op("dispersion", len(docs) - 1, ("--k-points", str(round(_between(*TRACE_K_POINTS, u))))))
    rng.shuffle(ops)
    return Workload("trace", tuple(docs), tuple(ops))


def _snr(rng: random.Random, shipped: dict) -> Workload:
    base = shipped["experiment"]
    docs = []
    for _ in range(SNR_DOCS):
        exp = dict(base)
        exp.update(
            lambda0=rng.uniform(1.0e-6, 1.15e-6),
            sigma0=rng.uniform(0.08, 0.14),
            y_out=rng.uniform(0.4, 0.6),
            P_avg=rng.uniform(0.5e-3, 2e-3),
            eta_det=rng.uniform(0.5e-3, 2e-3),
            T_int=rng.uniform(1800.0, 7200.0),
            n_s=round(rng.uniform(1.40, 1.46), 4),
            g=rng.uniform(9.78, 9.83),
        )
        docs.append({"experiment": exp, "output": {"directory": "out"}})
    log_q = tuple(map(math.log, SNR_Q_RANGE))
    log_factor = tuple(map(math.log, SNR_BRACKET_FACTOR))
    below, above = _levels(SNR_PER_KIND), _levels(SNR_PER_KIND)
    rng.shuffle(above)
    thresholds: dict[tuple[int, str], float] = {}
    ops: list[Op] = []
    for j in range(SNR_PER_KIND):
        model = ("paper", "corrected")[j % 2]
        n_q = 1 + (j // 2) % 4
        # three significant digits keep the fig2b_Q{q:g}.csv names distinct
        qs: set[float] = set()
        while len(qs) < n_q:
            qs.add(float(f"{math.exp(rng.uniform(*log_q)):.3g}"))
        ops.append(Op("fig2b", rng.randrange(SNR_DOCS), ("--width-model", model, "--q", *map(_fmt, sorted(qs)))))
        scenario = rng.randrange(SNR_DOCS)
        key = (scenario, "paper_verbatim" if model == "paper" else "corrected")
        if key not in thresholds:
            thresholds[key] = q_star(dict(docs[scenario]["experiment"], width_model=key[1]))
        q_lo = thresholds[key] / math.exp(_between(*log_factor, below[j]))
        q_hi = thresholds[key] * math.exp(_between(*log_factor, above[j]))
        ops.append(Op("qthreshold", scenario, ("--width-model", model, "--q-lo", _fmt(q_lo), "--q-hi", _fmt(q_hi))))
    rng.shuffle(ops)
    return Workload("snr", tuple(docs), tuple(ops))


def generate(name: str, seed: int, scenario_dir: Path) -> Workload:
    """The operations of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "drop":
        return _drop(rng, json.loads((scenario_dir / "freefall_caf2.json").read_text()))
    if name == "trace":
        return _trace(rng)
    if name == "snr":
        return _snr(rng, json.loads((scenario_dir / "caf2_wgmc.json").read_text()))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def argv(op: Op, scenario_path: Path, out_dir: Path) -> list[str]:
    return [op.command, "--scenario", str(scenario_path), "--out", str(out_dir), "--quiet", *op.args]
