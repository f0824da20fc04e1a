"""Command dispatch and reproducible output artifacts.

Commands (all scenario-driven, SI units in, SI units out):

    dispersion        (k_par, omega, v_g) CSV over a wavenumber grid
    freefall-analytic closed-form (t, y, v, k_y, phase gradient) CSV
    freefall-numeric  propagated envelope trace CSV plus run manifest
    fig2b             per-Q interference SNR CSVs plus summary JSON
    qthreshold        quality-factor bisection result plus iteration log

Every run writes its files atomically (temp file + rename) and finishes with
run_manifest.json: resolved parameters, derived quantities, and sha256
checksums of each artifact.  Re-running a command with the manifest's
resolved scenario reproduces the CSV bytes exactly.  Floats are printed as
shortest round-trip decimals to keep regression diffs clean.

Exit codes: 0 success, 2 validation error, 3 numerical-domain error, 4 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import CavitySpec, effective_mass, group_velocity, photon_energy
from .errors import DomainError, ValidationError
from .gravity import freefall_trajectory, phase_gradient
from .interferometry import snr_trace, q_threshold
from .propagator import MAX_ROWS, PropagationScenario, init_gaussian, propagate, recording_schedule
from .scenario import WIDTH_MODEL_ALIASES, ScenarioFile, load_scenario, scenario_to_dict
from .units import c, hbar

DEFAULT_Q_SWEEP = (3e10, 5e10, 7e10)
_FIG2B_SAMPLES = 2001
_DEFAULT_RECORDS = 256


def _write_atomic(path: Path, text: str) -> None:
    # a unique temp name per write, so concurrent runs into one directory
    # never share one; mkstemp creates it 0600, artifacts are 0644
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    # repr of a Python float is its shortest round-trip decimal.  Values are
    # converted one at a time: col.tolist() is a little faster, but its
    # lists of every column's floats fragment the heap and raise the peak
    # memory of a long run of CSV-heavy commands by a quarter.
    cells = [map(repr, map(float, col)) for col in columns]
    _write_atomic(path, "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require(scenario: ScenarioFile, command: str, *sections: str) -> None:
    for name in sections:
        if getattr(scenario, name) is None:
            raise ValidationError(f"{command} requires a '{name}' section in the scenario")


def _derived_block(scenario: ScenarioFile) -> dict:
    derived: dict = {}
    cav = scenario.cavity
    if cav is None and scenario.experiment is not None:
        # the experiment's photon, as the half-wave cavity of its rest wavelength
        cav = CavitySpec.from_rest_wavelength(scenario.experiment.lambda0, scenario.experiment.n_s)
    if cav is not None:
        derived["omega0"] = cav.omega0
        derived["m_parallel"] = cav.rest_energy / c**2
        derived["m_s_parallel"] = effective_mass(cav)
    if scenario.gravity is not None:
        derived["g_tilde"] = scenario.gravity.g_tilde
    elif scenario.experiment is not None:
        derived["g_tilde"] = scenario.experiment.g / scenario.experiment.n_s**2
    return derived


def _resolve_stride(scenario: ScenarioFile, n_steps: int) -> int:
    if scenario.output.stride is not None:
        return scenario.output.stride
    return max(1, n_steps // _DEFAULT_RECORDS)


def _run_dispersion(scenario: ScenarioFile, out_dir: Path, args: dict) -> list[Path]:
    _require(scenario, "dispersion", "cavity")
    cav = scenario.cavity
    k_max = args["k_max"] if args["k_max"] is not None else 2.0 * cav.omega0 / cav.c_medium
    for option, value in (("--k-min", args["k_min"]), ("--k-max", k_max)):
        if not math.isfinite(value):
            raise ValidationError(f"{option}: must be finite, got {value!r}")
    if not k_max > args["k_min"]:
        raise ValidationError(f"dispersion needs k_max > k_min, got {k_max!r} <= {args['k_min']!r}")
    if not 1 <= args["k_points"] <= MAX_ROWS:
        raise ValidationError(f"--k-points: must be between 1 and {MAX_ROWS}, got {args['k_points']!r}")
    args["k_max"] = k_max
    k_grid = np.linspace(args["k_min"], k_max, args["k_points"])
    path = out_dir / "dispersion.csv"
    _write_csv(
        path,
        ("k_par", "omega", "v_g"),
        [k_grid, photon_energy(cav, k_grid) / hbar, group_velocity(cav, k_grid)],
    )
    return [path]


def _run_freefall_analytic(scenario: ScenarioFile, out_dir: Path, stride: int) -> list[Path]:
    cav, profile, prop = scenario.cavity, scenario.gravity, scenario.propagation
    times = np.array([i * prop.dt for i in recording_schedule(prop.n_steps, stride)])
    states = [freefall_trajectory(cav, profile, float(t)) for t in times]
    grads = np.array([phase_gradient(cav.omega0, profile, float(t)) for t in times])
    path = out_dir / "freefall_analytic.csv"
    _write_csv(
        path,
        ("t_si", "y_si", "v_si", "k_si", "phase_grad_si"),
        [
            times,
            np.array([s.y for s in states]),
            np.array([s.v for s in states]),
            np.array([s.k_y for s in states]),
            grads,
        ],
    )
    return [path]


def _run_freefall_numeric(scenario: ScenarioFile, out_dir: Path, stride: int) -> tuple[list[Path], dict]:
    cav, profile, prop = scenario.cavity, scenario.gravity, scenario.propagation
    # SI throughout: hbar enters only through the propagator mass m/hbar [s/m^2]
    run = PropagationScenario(
        mass=effective_mass(cav) / hbar,
        g_tilde=profile.g_tilde,
        dt=prop.dt,
        n_steps=prop.n_steps,
        record_stride=stride,
    )
    _, trace = propagate(init_gaussian(prop.grid, sigma0=prop.sigma0), run)
    path = out_dir / "freefall_numeric.csv"
    _write_csv(
        path,
        ("t_si", "y_si", "sigma_si", "k_si", "norm", "energy_si", "phase_grad_si"),
        [
            trace.t,
            trace.centroid,
            trace.width,
            trace.mean_k,
            trace.norm,
            trace.energy * hbar,
            trace.phase_gradient,
        ],
    )
    convergence = {
        "n_steps": prop.n_steps,
        "record_stride": stride,
        "splitting_order": 2,
        "norm_drift": float(np.max(np.abs(trace.norm - trace.norm[0]))),
        "energy_drift": float(np.max(np.abs(trace.energy - trace.energy[0]) / abs(trace.energy[0]))),
    }
    return [path], convergence


def _run_fig2b(scenario: ScenarioFile, out_dir: Path, args: dict) -> tuple[list[Path], dict]:
    _require(scenario, "fig2b", "experiment")
    base = scenario.experiment
    q_values = tuple(args["q_values"])
    if not q_values or any(q <= 0 for q in q_values):
        raise ValidationError(f"fig2b needs positive Q values, got {q_values!r}")
    paths: list[Path] = []
    traces = []
    traces_summary = []
    divergence = []
    other = "corrected" if base.width_model == "paper_verbatim" else "paper_verbatim"
    for q in q_values:
        cfg = replace(base, Q=q)
        trace = snr_trace(cfg, n_samples=_FIG2B_SAMPLES)
        peak_by_model = {
            base.width_model: trace.sn_peak,
            other: snr_trace(replace(cfg, width_model=other), n_samples=_FIG2B_SAMPLES).sn_peak,
        }
        corrected = peak_by_model["corrected"]
        # a corrected peak that underflows to 0 leaves the ratio undefined
        peak_ratio = peak_by_model["paper_verbatim"] / corrected if corrected > 0.0 else math.inf
        if not math.isfinite(peak_ratio):
            raise DomainError(
                f"experiment: at Q = {q:g} the width models' peak SNR ratio "
                f"{peak_by_model['paper_verbatim']!r}/{corrected!r} is out of double range"
            )
        traces.append(trace)
        traces_summary.append(
            {"Q": q, "t_peak": trace.t_peak, "sn_peak": trace.sn_peak, "t_cross": trace.t_cross}
        )
        divergence.append(
            {
                "Q": q,
                "sn_peak_paper": peak_by_model["paper_verbatim"],
                "sn_peak_corrected": corrected,
                "peak_ratio": peak_ratio,
            }
        )
    # every Q is evaluated before the first file is written
    for q, trace in zip(q_values, traces):
        path = out_dir / f"fig2b_Q{q:g}.csv"
        _write_csv(path, ("t_si", "i_signal", "sn"), [trace.t, trace.i_signal, trace.sn])
        paths.append(path)
    summary_path = out_dir / "fig2b_summary.json"
    _write_json(
        summary_path,
        {
            "width_model": base.width_model,
            "n_samples": _FIG2B_SAMPLES,
            "traces": traces_summary,
            "width_model_divergence": divergence,
        },
    )
    paths.append(summary_path)
    return paths, {"q_values": list(q_values)}


def _run_qthreshold(scenario: ScenarioFile, out_dir: Path, args: dict) -> tuple[list[Path], dict]:
    _require(scenario, "qthreshold", "experiment")
    result = q_threshold(scenario.experiment, args["q_lo"], args["q_hi"])
    iterations = np.array(result.iterations)
    log_path = out_dir / "qthreshold_iterations.csv"
    _write_csv(
        log_path,
        ("iteration", "q_lo", "q_hi", "q_mid", "sn_peak_mid"),
        [
            np.arange(len(result.iterations), dtype=float),
            iterations[:, 0],
            iterations[:, 1],
            iterations[:, 2],
            iterations[:, 3],
        ],
    )
    result_path = out_dir / "qthreshold_result.json"
    _write_json(
        result_path,
        {
            "q_lo": args["q_lo"],
            "q_hi": args["q_hi"],
            "q_min": result.q_min,
            "sn_peak": result.sn_peak,
            "n_iterations": len(result.iterations),
        },
    )
    return [log_path, result_path], {"q_lo": args["q_lo"], "q_hi": args["q_hi"]}


def run(
    command: str,
    scenario: ScenarioFile,
    out_dir,
    *,
    width_model: str | None = None,
    q_values=DEFAULT_Q_SWEEP,
    q_lo: float = 1e9,
    q_hi: float = 1e12,
    k_min: float = 0.0,
    k_max: float | None = None,
    k_points: int = 256,
    quiet: bool = True,
) -> dict:
    """Execute one command against a validated scenario; returns the manifest."""
    started = time.perf_counter()
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    if width_model is not None:
        if scenario.experiment is None:
            raise ValidationError(f"--width-model given but {command} scenario has no experiment section")
        if width_model not in WIDTH_MODEL_ALIASES:
            raise ValidationError(f"unknown width model {width_model!r}")
        scenario = replace(
            scenario, experiment=replace(scenario.experiment, width_model=WIDTH_MODEL_ALIASES[width_model])
        )

    command_args: dict = {}
    convergence: dict | None = None
    resolved_stride = scenario.output.stride

    if command == "dispersion":
        command_args = {"k_min": k_min, "k_max": k_max, "k_points": k_points}
        outputs = _run_dispersion(scenario, out_path, command_args)
    elif command in ("freefall-analytic", "freefall-numeric"):
        _require(scenario, command, "cavity", "gravity", "propagation")
        resolved_stride = _resolve_stride(scenario, scenario.propagation.n_steps)
        if command == "freefall-analytic":
            outputs = _run_freefall_analytic(scenario, out_path, resolved_stride)
        else:
            outputs, convergence = _run_freefall_numeric(scenario, out_path, resolved_stride)
    elif command == "fig2b":
        command_args = {"q_values": list(q_values)}
        outputs, command_args = _run_fig2b(scenario, out_path, command_args)
    elif command == "qthreshold":
        outputs, command_args = _run_qthreshold(scenario, out_path, {"q_lo": q_lo, "q_hi": q_hi})
    else:
        raise ValidationError(f"unknown command {command!r}")

    manifest = {
        "tool": "cavityfall",
        "version": __version__,
        "command": command,
        "command_args": command_args,
        "resolved_scenario": scenario_to_dict(scenario, resolved_stride=resolved_stride),
        "derived": _derived_block(scenario),
        "outputs": [
            {"file": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size} for p in outputs
        ],
        "duration_s": time.perf_counter() - started,
    }
    if convergence is not None:
        manifest["convergence"] = convergence
    manifest_path = out_path / "run_manifest.json"
    _write_json(manifest_path, manifest)

    if not quiet:
        for p in outputs:
            print(f"wrote {p}")
        print(f"wrote {manifest_path}")
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    # run()'s signature is the one home of the option defaults: options not
    # given stay out of the namespace, and the help text quotes the signature
    defaults = {name: p.default for name, p in inspect.signature(run).parameters.items()}
    parser = argparse.ArgumentParser(
        prog="cavityfall",
        description="Massive cavity photons: dispersion, gravitational free fall, interferometer SNR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--scenario", required=True, help="path to a JSON scenario file (SI units)")
        p.add_argument("--out", help="output directory (default: scenario output.directory)")
        p.add_argument("--quiet", action="store_true", default=False, help="suppress per-file progress lines")
        return p

    p_disp = command("dispersion", "dump (k_par, omega, v_g) over a wavenumber grid")
    p_disp.add_argument("--k-min", type=float, help=f"default: {defaults['k_min']}")
    p_disp.add_argument("--k-max", type=float, help="default: 2*omega0/c_medium")
    p_disp.add_argument("--k-points", type=int, help=f"default: {defaults['k_points']}")

    command("freefall-analytic", "closed-form free-fall trace")
    command("freefall-numeric", "propagated envelope free-fall trace")

    p_fig = command("fig2b", "interference SNR traces over a Q sweep")
    p_fig.add_argument("--width-model", choices=("paper", "corrected"), help="default: the scenario's")
    q_sweep = " ".join(f"{q:g}" for q in defaults["q_values"])
    p_fig.add_argument("--q", dest="q_values", metavar="Q", type=float, nargs="+", help=f"Q sweep (default: {q_sweep})")

    p_qt = command("qthreshold", "bisect for the smallest Q with peak SNR >= 1")
    p_qt.add_argument("--width-model", choices=("paper", "corrected"), help="default: the scenario's")
    p_qt.add_argument("--q-lo", type=float, help=f"default: {defaults['q_lo']:g}")
    p_qt.add_argument("--q-hi", type=float, help=f"default: {defaults['q_hi']:g}")

    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    command, scenario_path, out = options.pop("command"), options.pop("scenario"), options.pop("out", None)
    try:
        scenario = load_scenario(scenario_path)
        run(command, scenario, out if out is not None else scenario.output.directory, **options)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
