"""Output checks for one CLI operation, from the benchmark's own oracles.

Tolerances are no looser than the repository's acceptance suite:

    freefall-numeric   centroid vs -g_tilde t^2/2: 1e-6 of the final drop;
                       width vs the free Gaussian spreading law: 1e-6 relative;
                       mean k vs -m g_tilde t / hbar: 1e-6 of the final |k|;
                       |phase gradient| vs omega0 g t / c^2: 1e-4 relative;
                       manifest norm_drift <= 1e-12
    freefall-analytic  y, v, k_y, phase gradient vs closed form: 1e-12
    dispersion         omega^2 = omega0^2 + (c_m k)^2 and v_g = c_m^2 k / omega: 1e-12
    fig2b              one CSV per requested Q; sn = sqrt(I P eta T / (hbar omega0)):
                       1e-12; sn vs the oracle Sn(t): 1e-9; summary peaks of both
                       width models vs the oracle: Sn_peak 1e-9, t_peak 1e-6
    qthreshold         q_lo <= q_min <= q_hi; |ln sn_peak|, as written and as
                       the oracle gives it at q_min, within the bisection
                       tolerance (1e-4 in Q) times the local slope
                       d ln Sn_peak / d ln Q of the oracle

Every command is also checked against its manifest: each listed artifact
exists and hashes to the recorded sha256.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import C, HBAR, Op, hbar_over_mass, omega0, packet_width, sn_curve, sn_peak

QTHRESHOLD_REL_TOL = 1e-4
#: Q sweep of fig2b when no --q is given (the CLI's default).
FIG2B_DEFAULT_Q = ("3e10", "5e10", "7e10")
WIDTH_MODELS = {"paper": "paper_verbatim", "corrected": "corrected"}


@dataclass
class Outcome:
    """What one operation produced: problems found, and the work it did."""

    problems: list[str] = field(default_factory=list)
    shas: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    rows_written: int = 0
    bisection_iters: int = 0
    q_values: int = 0


def _read_csv(path: Path) -> np.ndarray:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _rel(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = np.maximum(np.abs(expected), np.finfo(float).tiny)
    diff = np.abs(actual - expected)
    return float(np.max(np.where(diff == 0.0, 0.0, diff / scale))) if diff.size else 0.0


def _expect(outcome: Outcome, what: str, value: float, limit: float) -> None:
    if not value <= limit:
        outcome.problems.append(f"{what} = {value:.3e} exceeds {limit:.0e}")


def _numeric(doc: dict, out_dir: Path, manifest: dict, outcome: Outcome) -> None:
    data = _read_csv(out_dir / "freefall_numeric.csv")
    t, y, sigma, k, phase_grad = data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 6]
    g, n_s = doc["gravity"]["g"], doc["gravity"]["n_s"]
    lambda0, n_cav = doc["cavity"]["lambda0"], doc["cavity"]["n_s"]
    g_tilde = g / n_s**2
    final_drop = 0.5 * g_tilde * t[-1] ** 2
    _expect(outcome, "centroid vs parabola", float(np.max(np.abs(y + 0.5 * g_tilde * t**2))) / final_drop, 1e-6)
    spreading = np.array([packet_width(doc["propagation"]["sigma0"], lambda0, n_cav, ti) for ti in t])
    _expect(outcome, "width vs spreading law", _rel(sigma, spreading), 1e-6)
    k_law = -g_tilde * t / hbar_over_mass(lambda0, n_cav)
    _expect(outcome, "mean k vs -m g_tilde t/hbar", float(np.max(np.abs(k - k_law)) / abs(k_law[-1])), 1e-6)
    law = omega0(lambda0) * g * t[1:] / C**2
    _expect(outcome, "|phase gradient| vs omega0 g t/c^2", float(np.max(np.abs(np.abs(phase_grad[1:]) - law) / law)), 1e-4)
    _expect(outcome, "norm_drift", manifest["convergence"]["norm_drift"], 1e-12)


def _analytic(doc: dict, out_dir: Path, outcome: Outcome) -> None:
    data = _read_csv(out_dir / "freefall_analytic.csv")
    t = data[:, 0]
    g, n_s = doc["gravity"]["g"], doc["gravity"]["n_s"]
    g_tilde = g / n_s**2
    w0 = omega0(doc["cavity"]["lambda0"])
    v = -g_tilde * t
    for column, expected, name in (
        (1, -0.5 * g_tilde * t**2, "y"),
        (2, v, "v"),
        (3, w0 * n_s**2 * np.abs(v) / C**2, "k_y"),
        (4, w0 * g * t / C**2, "phase gradient"),
    ):
        _expect(outcome, f"analytic {name}", _rel(data[:, column], expected), 1e-12)


def _dispersion(doc: dict, out_dir: Path, outcome: Outcome, k_points: int) -> None:
    data = _read_csv(out_dir / "dispersion.csv")
    if data.shape[0] != k_points:
        outcome.problems.append(f"dispersion has {data.shape[0]} rows, expected {k_points}")
    k, omega, v_g = data[:, 0], data[:, 1], data[:, 2]
    w0 = omega0(doc["cavity"]["lambda0"])
    c_m = C / doc["cavity"]["n_s"]
    shell = np.abs(omega**2 - w0**2 - (c_m * k) ** 2) / omega**2
    _expect(outcome, "dispersion on-shell residual", float(np.max(shell)), 1e-12)
    _expect(outcome, "dispersion v_g", _rel(v_g, c_m**2 * k / omega), 1e-12)


def _fig2b(doc: dict, out_dir: Path, outcome: Outcome, width_model: str, q_values: list[float]) -> None:
    exp = dict(doc["experiment"], width_model=width_model)
    photons = exp["P_avg"] * exp["eta_det"] * exp["T_int"] / (HBAR * omega0(exp["lambda0"]))
    written = sorted(out_dir.glob("fig2b_Q*.csv"))
    if len(written) != len(q_values):
        outcome.problems.append(f"{len(written)} fig2b CSVs for {len(q_values)} Q values")
        return
    summary = json.loads((out_dir / "fig2b_summary.json").read_text(encoding="utf-8"))
    traces, divergence = summary["traces"], summary["width_model_divergence"]
    if [e["Q"] for e in traces] != q_values or [e["Q"] for e in divergence] != q_values:
        outcome.problems.append(f"fig2b summary Q values differ from the requested {q_values}")
        return
    for q, trace, diverged in zip(q_values, traces, divergence):
        data = _read_csv(out_dir / f"fig2b_Q{q:g}.csv")
        _expect(outcome, f"Q={q:g} sn identity", _rel(data[:, 2], np.sqrt(data[:, 1] * photons)), 1e-12)
        _expect(outcome, f"Q={q:g} sn vs oracle", _rel(data[:, 2], sn_curve(exp, q, data[:, 0])), 1e-9)
        peaks = {model: sn_peak(dict(exp, width_model=model), q) for model in WIDTH_MODELS.values()}
        t_peak, value = peaks[width_model]
        _expect(outcome, f"Q={q:g} t_peak vs oracle", _rel(np.array(trace["t_peak"]), np.array(t_peak)), 1e-6)
        for name, written_peak, expected in (
            ("sn_peak", trace["sn_peak"], value),
            ("sn_peak_paper", diverged["sn_peak_paper"], peaks["paper_verbatim"][1]),
            ("sn_peak_corrected", diverged["sn_peak_corrected"], peaks["corrected"][1]),
        ):
            _expect(outcome, f"Q={q:g} {name} vs oracle", _rel(np.array(written_peak), np.array(expected)), 1e-9)
        outcome.q_values += 1


def _qthreshold(doc: dict, out_dir: Path, outcome: Outcome, width_model: str) -> None:
    result = json.loads((out_dir / "qthreshold_result.json").read_text(encoding="utf-8"))
    q_min, q_lo, q_hi = result["q_min"], result["q_lo"], result["q_hi"]
    outcome.bisection_iters = result["n_iterations"]
    if not q_lo <= q_min <= q_hi:
        outcome.problems.append(f"q_min {q_min!r} outside the bracket [{q_lo!r}, {q_hi!r}]")
    exp = dict(doc["experiment"], width_model=width_model)
    eps = 1e-3
    slope = math.log(sn_peak(exp, q_min * (1 + eps))[1] / sn_peak(exp, q_min * (1 - eps))[1]) / math.log((1 + eps) / (1 - eps))
    _expect(outcome, "|ln sn_peak(q_min)|", abs(math.log(result["sn_peak"])), QTHRESHOLD_REL_TOL * slope)
    _expect(outcome, "|ln Sn_peak(q_min)| of the oracle", abs(math.log(sn_peak(exp, q_min)[1])), QTHRESHOLD_REL_TOL * slope)


def _option(op: Op, flag: str, default: str) -> str:
    return op.args[op.args.index(flag) + 1] if flag in op.args else default


def artifacts(out_dir: Path) -> tuple[Outcome, dict]:
    """Check each artifact of a finished operation against the sha256 in its
    manifest, and count what was written; returns the outcome and manifest."""
    outcome = Outcome()
    manifest_path = out_dir / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    outcome.bytes_written = manifest_path.stat().st_size
    for entry in manifest["outputs"]:
        path = out_dir / entry["file"]
        blob = path.read_bytes()
        outcome.bytes_written += len(blob)
        if path.suffix == ".csv":
            outcome.rows_written += blob.count(b"\n") - 1
        outcome.shas[entry["file"]] = entry["sha256"]
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            outcome.problems.append(f"{entry['file']}: sha256 differs from the manifest")
    return outcome, manifest


def check(op: Op, doc: dict, out_dir: Path) -> Outcome:
    """Check the artifacts of one finished operation in out_dir against the
    manifest and the oracles."""
    outcome, manifest = artifacts(out_dir)
    if op.command == "freefall-numeric":
        _numeric(doc, out_dir, manifest, outcome)
    elif op.command == "freefall-analytic":
        _analytic(doc, out_dir, outcome)
    elif op.command == "dispersion":
        _dispersion(doc, out_dir, outcome, int(_option(op, "--k-points", "256")))
    elif op.command in ("fig2b", "qthreshold"):
        model = _option(op, "--width-model", "")
        width_model = WIDTH_MODELS[model] if model else doc["experiment"].get("width_model", "corrected")
        if op.command == "fig2b":
            q_values = op.args[op.args.index("--q") + 1 :] if "--q" in op.args else FIG2B_DEFAULT_Q
            _fig2b(doc, out_dir, outcome, width_model, [float(q) for q in q_values])
        else:
            _qthreshold(doc, out_dir, outcome, width_model)
    return outcome
