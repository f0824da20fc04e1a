"""Command dispatch and reproducible output artifacts.

Commands (all scenario-driven, SI units in, SI units out):

    dispersion        (k_par, omega, v_g) CSV for k_par from 0 to 2 omega0/c_medium
    freefall-analytic closed-form (t, y, v, k_y, phase gradient) CSV
    freefall-numeric  propagated envelope trace CSV plus run manifest
    fig2b             per-Q interference SNR CSVs plus summary JSON
    qthreshold        quality-factor bisection result plus iteration log

Every run writes its files atomically (temp file + rename) and finishes with
run_manifest.json: resolved parameters, derived quantities, the sha256 and
size of the bytes written for each artifact, and the environment (cavityfall, Python and
numpy versions, platform, numpy's ufunc dispatch targets, the malloc
thresholds main() pinned).  Re-running a command with the manifest's
resolved scenario reproduces the CSV bytes exactly on a host with the same
numpy version, ufunc dispatch, OpenBLAS kernel and BLAS thread count (the
manifest records the first two only): the propagator's moments reduce with
OpenBLAS ddot, so freefall_numeric.csv changes under the Haswell,
Sandybridge and Prescott kernels (OPENBLAS_CORETYPE), and 16384-point
freefall-numeric CSVs change between 1 and 2 BLAS threads.  Floats are
printed as shortest round-trip decimals to keep regression diffs clean.

Exit codes: 0 success, 2 validation error, 3 numerical-domain error, 4 I/O;
an error prints its key (an option or scenario key path) and message.

run() takes a scenario and its command's own options; main() writes --width-model
into the scenario's experiment, and prints each file's path unless --quiet.
main() builds the argument parser once per process, on its first call;
importing this module builds none.  The same first call pins glibc's malloc
thresholds, so that numpy's FFT scratch stays in the process (_pin_malloc).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import CavitySpec, effective_mass, group_velocity, photon_energy
from .errors import CavityFallError, DomainError, ValidationError
from .gravity import FreefallState, freefall_trajectory, phase_gradient
from .interferometry import TRACE_SAMPLES, q_threshold, snr_peak, snr_trace
from .propagator import MAX_GRID_POINTS, MAX_ROWS, init_gaussian, propagate, recording_schedule
from .scenario import WIDTH_MODEL_ALIASES, ScenarioFile, load_scenario, scenario_to_dict
from .units import c, hbar

DEFAULT_Q_SWEEP = (3e10, 5e10, 7e10)
_DEFAULT_RECORDS = 256
# twice the largest grid's complex array: 32 MiB, the largest mmap threshold
# glibc accepts on 64-bit
_MALLOC_THRESHOLD = 2 * MAX_GRID_POINTS * np.dtype(complex).itemsize


def _write_atomic(path: Path, data: bytes) -> None:
    # a unique temp name per write, so concurrent runs into one directory
    # never share one; mkstemp creates it 0600, artifacts are 0644
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _write(path: Path, text: str) -> dict:
    """Write text as UTF-8; returns the manifest entry of the bytes written."""
    data = text.encode()
    _write_atomic(path, data)
    return {"file": path.name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _csv(header: tuple[str, ...], columns: list[np.ndarray]) -> str:
    # repr of a Python float is its shortest round-trip decimal.  Each cell
    # is read straight from its column's float64 buffer (strided or not) as
    # one Python float, with no NumPy scalar in between.  No col.tolist():
    # its lists of every column's floats fragment the heap and raise the
    # peak memory of a long run of CSV-heavy commands by a quarter.
    cells = [map(repr, memoryview(np.asarray(col, dtype=float))) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells)), ""])


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@functools.cache
def _environment() -> dict:
    # once per process, on the first manifest: platform.platform() runs
    # uname and reads the C library's version
    return {
        "cavityfall": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "ufunc_dispatch": _ufunc_dispatch(),
    }


def _ufunc_dispatch() -> str:
    """The CPU targets of the ufunc kernels numpy chose on this host, e.g.
    "X86_V3 baseline(X86_V2)": with the numpy version, they fix the bytes."""
    loops = np.lib.introspect.opt_func_info().values()
    return " ".join(sorted({target["current"] for signatures in loops for target in signatures.values()}))


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


def _run_dispersion(scenario: ScenarioFile, *, k_points: int = 256) -> dict:
    cav = scenario.cavity
    # the cavity's own range, k = 0 to 2*omega0/c_medium: only the cavity can
    # put it out of double range, so no check names a key
    k_max = 2.0 * cav.omega0 / cav.c_medium
    if not math.isfinite(k_max):
        raise ValidationError(f"k_max = 2*omega0/c_medium must be finite, got {k_max!r}")
    # omega grows with k, so finite at k_max is finite on every sample
    if not math.isfinite(float(photon_energy(cav, k_max)) / hbar):
        raise ValidationError(f"the photon energy omega(k) is out of double range at k_max = {k_max!r}")
    if not 1 <= k_points <= MAX_ROWS:
        raise ValidationError(f"must be between 1 and {MAX_ROWS}, got {k_points!r}", key="--k-points")
    k_grid = np.linspace(0.0, k_max, k_points)
    columns = [k_grid, photon_energy(cav, k_grid) / hbar, group_velocity(cav, k_grid)]
    artifacts = {"dispersion.csv": (("k_par", "omega", "v_g"), columns)}
    return {"command_args": {"k_points": k_points}, "artifacts": artifacts}


def _freefall(scenario: ScenarioFile) -> FreefallState:
    """The closed-form fall at the recorded times, its column t; raises where
    the fall leaves its validity domain, for both free-fall commands alike."""
    prop = scenario.propagation
    # step indices can pass int64, so each time is a Python int times dt
    times = np.array([i * prop.dt for i in recording_schedule(prop.n_steps, scenario.output.stride)])
    return freefall_trajectory(scenario.cavity, scenario.gravity, times)


def _run_freefall_analytic(scenario: ScenarioFile) -> dict:
    cav, profile = scenario.cavity, scenario.gravity
    state = _freefall(scenario)
    grads = phase_gradient(cav, profile, state.t)
    header = ("t_si", "y_si", "v_si", "k_si", "phase_grad_si")
    columns = [state.t, state.y, state.v, state.k_y, grads]
    return {"command_args": {}, "artifacts": {"freefall_analytic.csv": (header, columns)}}


def _run_freefall_numeric(scenario: ScenarioFile) -> dict:
    cav, profile, prop, stride = scenario.cavity, scenario.gravity, scenario.propagation, scenario.output.stride
    _freefall(scenario)
    # SI throughout: hbar enters only through the propagator mass m/hbar [s/m^2]
    trace = propagate(
        prop.grid,
        init_gaussian(prop.grid, prop.sigma0),
        mass=effective_mass(cav) / hbar,
        g_tilde=profile.g_tilde,
        dt=prop.dt,
        n_steps=prop.n_steps,
        stride=stride,
    )
    header = ("t_si", "y_si", "sigma_si", "k_si", "norm", "energy_si", "phase_grad_si")
    columns = [
        trace.t, trace.centroid, trace.width, trace.mean_k, trace.norm, trace.energy * hbar, trace.phase_gradient
    ]
    # propagate checks the amplitudes, not the observables made from them:
    # (F t)^2 in the energy can overflow before the phase does
    finite = np.logical_and.reduce([np.isfinite(column) for column in columns])
    if not finite.all():
        row = int(np.argmin(finite))
        name = next(name for name, column in zip(header, columns) if not math.isfinite(column[row]))
        raise DomainError(f"{name} leaves double range at t = {trace.t[row]:.6g} s")
    # not a number where E0 = 0, or where the ratio overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        energy_drift = float(np.max(np.abs(trace.energy - trace.energy[0]) / abs(trace.energy[0])))
    convergence = {
        "n_steps": prop.n_steps,
        "splitting_order": 2,
        "norm_drift": float(np.max(np.abs(trace.norm - trace.norm[0]))),
        "energy_drift": energy_drift if math.isfinite(energy_drift) else None,
    }
    return {"command_args": {}, "artifacts": {"freefall_numeric.csv": (header, columns)}, "convergence": convergence}


def _run_fig2b(scenario: ScenarioFile, *, q_values=DEFAULT_Q_SWEEP) -> dict:
    base = scenario.experiment
    q_values = tuple(q_values)
    if not q_values:
        raise ValidationError("needs at least one value", key="--q")
    if len(q_values) * TRACE_SAMPLES > MAX_ROWS:
        limit = f"at most {MAX_ROWS // TRACE_SAMPLES} values ({TRACE_SAMPLES} rows each, {MAX_ROWS} in all)"
        raise ValidationError(f"takes {limit}, got {len(q_values)}", key="--q")
    # two values that print alike under {q:g} would overwrite one another's CSV
    names = [f"fig2b_Q{q:g}.csv" for q in q_values]
    if len(set(names)) < len(names):
        raise ValidationError(f"the values {list(q_values)!r} do not give distinct files {names}", key="--q")
    artifacts = {}
    traces_summary = []
    divergence = []
    other = "corrected" if base.width_model == "paper_verbatim" else "paper_verbatim"
    for name, q in zip(names, q_values):
        cfg = replace(base, Q=q)
        trace = snr_trace(cfg)
        peak_by_model = {
            base.width_model: trace.sn_peak,
            other: snr_peak(replace(cfg, width_model=other))[1],
        }
        corrected = peak_by_model["corrected"]
        # a corrected peak that underflows to 0 leaves the ratio undefined
        peak_ratio = peak_by_model["paper_verbatim"] / corrected if corrected > 0.0 else math.inf
        if not math.isfinite(peak_ratio):
            raise DomainError(
                f"at Q = {q:g} the width models' peak SNR ratio "
                f"{peak_by_model['paper_verbatim']!r}/{corrected!r} is out of double range",
                key="Q",
            )
        artifacts[name] = (("t_si", "i_signal", "sn"), [trace.t, trace.i_signal, trace.sn])
        traces_summary.append({"Q": q, "t_peak": trace.t_peak, "sn_peak": trace.sn_peak, "t_cross": trace.t_cross})
        divergence.append(
            {
                "Q": q,
                "sn_peak_paper": peak_by_model["paper_verbatim"],
                "sn_peak_corrected": corrected,
                "peak_ratio": peak_ratio,
            }
        )
    artifacts["fig2b_summary.json"] = {
        "width_model": base.width_model,
        "n_samples": TRACE_SAMPLES,
        "traces": traces_summary,
        "width_model_divergence": divergence,
    }
    return {"command_args": {"q_values": list(q_values)}, "artifacts": artifacts}


def _run_qthreshold(scenario: ScenarioFile, *, q_lo: float = 1e9, q_hi: float = 1e12) -> dict:
    result = q_threshold(scenario.experiment, q_lo, q_hi)
    # a bracket already inside the tolerance takes no iteration: (0, 4)
    iterations = np.array(result.iterations).reshape(-1, 4)
    header = ("iteration", "q_lo", "q_hi", "q_mid", "sn_peak_mid")
    columns = [np.arange(len(result.iterations), dtype=float), *iterations.T]
    summary = {
        "q_lo": q_lo,
        "q_hi": q_hi,
        "q_min": result.q_min,
        "sn_peak": result.sn_peak,
        "n_iterations": len(result.iterations),
    }
    artifacts = {"qthreshold_iterations.csv": (header, columns), "qthreshold_result.json": summary}
    return {"command_args": {"q_lo": q_lo, "q_hi": q_hi}, "artifacts": artifacts}


_FREEFALL = ("propagation", "cavity", "gravity")
#: Per command: its runner, the scenario sections it requires (the first also
#: the key of a library error raised without one), and the option or scenario
#: key of each library key it sets.  A runner takes the scenario, and its own
#: options as keyword-only parameters; it writes nothing.  It returns its
#: artifacts, {file name: (header, columns) of a CSV, or the payload dict of a
#: JSON file} in the order they are written, with its manifest blocks:
#: command_args, and convergence where it has one.
_COMMANDS = {
    "dispersion": (_run_dispersion, ("cavity",), {}),
    "freefall-analytic": (_run_freefall_analytic, _FREEFALL, {"stride": "output.stride"}),
    "freefall-numeric": (
        _run_freefall_numeric,
        _FREEFALL,
        {"stride": "output.stride", "mass": "cavity", "sigma0": "propagation.sigma0"},
    ),
    "fig2b": (_run_fig2b, ("experiment",), {"Q": "--q"}),
    "qthreshold": (_run_qthreshold, ("experiment",), {"q_lo": "--q-lo", "q_hi": "--q-hi"}),
}


def run(command: str, scenario: ScenarioFile, out_dir, **options) -> dict:
    """Execute one command against a validated scenario; returns the manifest.

    options are the command's own, the keyword-only parameters of its
    runner; another command's option is a TypeError.  The scenario carries
    everything else, the experiment's width model included.  A command that
    requires propagation runs with the default output.stride written into
    the scenario, so the manifest's resolved scenario carries it.  The runner
    returns its artifacts and writes nothing: out_dir is made, each artifact
    written and then the manifest only once it has returned, so a command
    that fails writes no file and makes no directory."""
    started = time.perf_counter()
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    runner, sections, library_keys = _COMMANDS[command]
    for name in sections:
        if getattr(scenario, name) is None:
            raise ValidationError(f"the {command} command requires this section", key=name)
    if "propagation" in sections and scenario.output.stride is None:
        stride = max(1, scenario.propagation.n_steps // _DEFAULT_RECORDS)
        scenario = replace(scenario, output=replace(scenario.output, stride=stride))

    try:
        blocks = runner(scenario, **options)
    except CavityFallError as exc:
        exc.key = sections[0] if exc.key is None else library_keys.get(exc.key, exc.key)
        raise

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    # one text at a time: each is freed once written
    outputs = [
        _write(out_path / name, _json(content) if isinstance(content, dict) else _csv(*content))
        for name, content in blocks.pop("artifacts").items()
    ]

    manifest = {
        "tool": "cavityfall",
        "version": __version__,
        "command": command,
        **blocks,
        "outputs": outputs,
        "resolved_scenario": scenario_to_dict(scenario),
        "derived": _derived_block(scenario),
        "duration_s": time.perf_counter() - started,
        "environment": {**_environment(), "malloc_thresholds": _pinned_malloc_thresholds()},
    }
    _write(out_path / "run_manifest.json", _json(manifest))
    return manifest


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and reused: parse_args
    # keeps its results in a fresh namespace, so no call sees another's.
    # the runners' signatures are the one home of the option defaults: options
    # not given stay out of the namespace, and the help text quotes them
    defaults = {
        name: p.default for runner, *_ in _COMMANDS.values() for name, p in inspect.signature(runner).parameters.items()
    }
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

    p_disp = command("dispersion", "dump (k_par, omega, v_g) for k_par from 0 to 2*omega0/c_medium")
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


@functools.cache
def _pin_malloc() -> dict | None:
    # numpy's pocketfft mallocs its scratch, 16 B a point, on every
    # transform.  From glibc's default 128 KiB mmap threshold (8192 points)
    # up, each block is mapped, unmapped on free and faulted back in on the
    # next call.  Setting one threshold stops glibc from raising either at run
    # time, and each alone still lets the block go (mapped, or trimmed from
    # the top of the heap); with both at _MALLOC_THRESHOLD the freed scratch
    # stays on the heap for reuse.
    # Returns {name: bytes} of the thresholds set, None where none was.
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or a name this system lacks
        libc = ""
    if not libc.startswith("glibc"):
        return None
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    params = (("M_MMAP_THRESHOLD", -3), ("M_TRIM_THRESHOLD", -1))
    pinned = {name: _MALLOC_THRESHOLD for name, param in params if mallopt(param, _MALLOC_THRESHOLD)}
    return pinned or None


def _pinned_malloc_thresholds() -> dict | None:
    # read at each manifest without pinning: run() may be called before
    # main(), or without it
    pinned = _pin_malloc() if _pin_malloc.cache_info().currsize else None
    return dict(pinned) if pinned else None


def _usable_path(path: str, key: str) -> str:
    # Path("") is the current directory, and open() and mkdir raise
    # ValueError on a NUL, or on a lone surrogate that the file system
    # encoding cannot encode, which would end main() in a traceback
    if not path or "\0" in path:
        raise ValidationError(f"must be a non-empty path with no NUL character, got {path!r}", key=key)
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ValidationError(f"must be encodable as a file name, got {path!r}", key=key) from None
    return path


def main(argv=None) -> int:
    _pin_malloc()
    options = vars(_build_parser().parse_args(argv))
    command, scenario_path, out = options.pop("command"), options.pop("scenario"), options.pop("out", None)
    quiet, width_model = options.pop("quiet"), options.pop("width_model", None)
    try:
        scenario = load_scenario(_usable_path(scenario_path, "--scenario"))
        # without an experiment, run() names the missing section
        if width_model is not None and scenario.experiment is not None:
            experiment = replace(scenario.experiment, width_model=WIDTH_MODEL_ALIASES[width_model])
            scenario = replace(scenario, experiment=experiment)
        out_key, directory = ("--out", out) if out is not None else ("output.directory", scenario.output.directory)
        out_path = Path(_usable_path(directory, out_key))
        manifest = run(command, scenario, out_path, **options)
        if not quiet:
            for name in [*(entry["file"] for entry in manifest["outputs"]), "run_manifest.json"]:
                # a path from undecodable bytes holds surrogates, which a
                # strict stdout cannot encode: escaped, as stderr escapes them
                print(f"wrote {out_path / name}".encode(errors="backslashreplace").decode())
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
