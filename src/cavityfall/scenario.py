"""Scenario files: JSON documents describing a run, all values in SI units.

Sections (each optional; commands check for the ones they need):

    cavity       {L, j | lambda0, n_s, Q}     exactly one of (L, j) or lambda0
    gravity      {g, n_s}
    propagation  {grid{y_min, y_max, n_points}, dt, t_final, sigma0}
    experiment   {lambda0, sigma0, y_out, P_avg, eta_det, T_int, Q,
                  n_s, g, width_model}
    output       {directory, stride}

Unknown keys are rejected with the offending path; values must be plain JSON
numbers (no unit suffixes: "1064nm" is an error, 1.064e-6 is a meter).  The
propagation grid (a propagator.Grid1D in meters) is periodic and takes no
boundary key: the packet must keep 4 sigma of clearance from the grid edges
throughout the run.  An experiment next to cavity or gravity must agree with
them on the rest frequency, n_s and g.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dispersion import CavitySpec
from .errors import ValidationError
from .gravity import GravityProfile
from .interferometry import ExperimentConfig
from .propagator import Grid1D
from .units import g_earth

_SECTION_KEYS = {
    "": {"cavity", "gravity", "propagation", "experiment", "output"},
    "cavity": {"L", "j", "lambda0", "n_s", "Q"},
    "gravity": {"g", "n_s"},
    "propagation": {"grid", "dt", "t_final", "sigma0"},
    "propagation.grid": {"y_min", "y_max", "n_points"},
    "experiment": {
        "lambda0", "sigma0", "y_out", "P_avg", "eta_det", "T_int", "Q", "n_s", "g", "width_model",
    },
    "output": {"directory", "stride"},
}

WIDTH_MODEL_ALIASES = {"paper": "paper_verbatim", "paper_verbatim": "paper_verbatim", "corrected": "corrected"}


@dataclass(frozen=True)
class PropagationSettings:
    """SI-valued propagation request (grid and sigma0 in meters, dt and
    t_final in seconds), passed to the propagator unchanged."""

    grid: Grid1D
    dt: float
    t_final: float
    sigma0: float

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValidationError("propagation.dt: must be > 0")
        if not self.t_final >= self.dt:
            raise ValidationError("propagation.t_final: must be >= dt")
        if not math.isfinite(self.t_final / self.dt):
            raise ValidationError(f"propagation.t_final: t_final/dt must be finite, got {self.t_final!r}/{self.dt!r}")
        if not self.sigma0 > 0.0:
            raise ValidationError("propagation.sigma0: must be > 0")

    @property
    def n_steps(self) -> int:
        """Number of dt steps covering t_final (at least 1); the only place it is rounded."""
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    stride: int | None = None


@dataclass(frozen=True)
class ScenarioFile:
    """Validated, defaulted scenario; sections absent from the file are None."""

    cavity: CavitySpec | None = None
    gravity: GravityProfile | None = None
    propagation: PropagationSettings | None = None
    experiment: ExperimentConfig | None = None
    output: OutputSettings = OutputSettings()


def _check_keys(path: str, mapping: dict) -> None:
    allowed = _SECTION_KEYS[path]
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ValidationError(f"{where}: unknown key (allowed here: {sorted(allowed)})")


def _mapping(path: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path or 'scenario'}: expected an object, got {type(value).__name__}")
    _check_keys(path, value)
    return value


def _number(path: str, value, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = " (write plain SI numbers, no unit suffixes)" if isinstance(value, str) else ""
        raise ValidationError(f"{path}: expected a number, got {value!r}{hint}")
    if not math.isfinite(value):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value!r}")
    return float(value)


def _integer(path: str, value, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value!r}")
    return value


def _parse_cavity(section: dict) -> CavitySpec:
    has_geometry = "L" in section or "j" in section
    has_wavelength = "lambda0" in section
    if has_geometry and has_wavelength:
        raise ValidationError("cavity: give either (L, j) or lambda0, not both")
    n_s = _number("cavity.n_s", section.get("n_s", 1.0), minimum=1.0)
    q_value = section.get("Q")
    quality = None if q_value is None else _number("cavity.Q", q_value)
    try:
        if has_wavelength:
            return CavitySpec.from_rest_wavelength(
                _number("cavity.lambda0", section["lambda0"]), n_s=n_s, Q=quality
            )
        if "L" in section and "j" in section:
            return CavitySpec(
                L=_number("cavity.L", section["L"]),
                j=_integer("cavity.j", section["j"]),
                n_s=n_s,
                Q=quality,
            )
    except ValidationError as exc:
        raise ValidationError(f"cavity: {exc}") from None
    raise ValidationError("cavity: requires either lambda0 or both L and j")


def _parse_gravity(section: dict, cavity: CavitySpec | None) -> GravityProfile:
    g = _number("gravity.g", section.get("g", g_earth), minimum=0.0)
    default_ns = cavity.n_s if cavity is not None else 1.0
    n_s = _number("gravity.n_s", section.get("n_s", default_ns), minimum=1.0)
    if cavity is not None and n_s != cavity.n_s:
        raise ValidationError(
            f"gravity.n_s: must match cavity.n_s (single medium), got {n_s!r} vs {cavity.n_s!r}"
        )
    return GravityProfile(g=g, n_s=n_s)


def _parse_propagation(section: dict) -> PropagationSettings:
    if "grid" not in section:
        raise ValidationError("propagation.grid: required")
    grid = _mapping("propagation.grid", section["grid"])
    for key in ("y_min", "y_max", "n_points"):
        if key not in grid:
            raise ValidationError(f"propagation.grid.{key}: required")
    for key in ("dt", "t_final", "sigma0"):
        if key not in section:
            raise ValidationError(f"propagation.{key}: required")
    y_min = _number("propagation.grid.y_min", grid["y_min"])
    y_max = _number("propagation.grid.y_max", grid["y_max"])
    n_points = _integer("propagation.grid.n_points", grid["n_points"])
    try:
        grid_si = Grid1D(y_min=y_min, y_max=y_max, n_points=n_points)
    except ValidationError as exc:
        raise ValidationError(f"propagation.grid: {exc}") from None
    return PropagationSettings(
        grid=grid_si,
        dt=_number("propagation.dt", section["dt"]),
        t_final=_number("propagation.t_final", section["t_final"]),
        sigma0=_number("propagation.sigma0", section["sigma0"]),
    )


def _parse_experiment(section: dict) -> ExperimentConfig:
    required = ("lambda0", "sigma0", "y_out", "P_avg", "eta_det", "T_int", "Q")
    for key in required:
        if key not in section:
            raise ValidationError(f"experiment.{key}: required")
    model_raw = section.get("width_model", "corrected")
    model = WIDTH_MODEL_ALIASES.get(model_raw)
    if model is None:
        raise ValidationError(
            f"experiment.width_model: expected one of {sorted(set(WIDTH_MODEL_ALIASES))}, got {model_raw!r}"
        )
    try:
        return ExperimentConfig(
            lambda0=_number("experiment.lambda0", section["lambda0"]),
            sigma0=_number("experiment.sigma0", section["sigma0"]),
            y_out=_number("experiment.y_out", section["y_out"]),
            P_avg=_number("experiment.P_avg", section["P_avg"]),
            eta_det=_number("experiment.eta_det", section["eta_det"]),
            T_int=_number("experiment.T_int", section["T_int"]),
            Q=_number("experiment.Q", section["Q"]),
            n_s=_number("experiment.n_s", section.get("n_s", 1.0)),
            g=_number("experiment.g", section.get("g", g_earth)),
            width_model=model,
        )
    except ValidationError as exc:
        message = str(exc)
        raise ValidationError(message if message.startswith("experiment") else f"experiment: {message}") from None


def _parse_output(section: dict) -> OutputSettings:
    directory = section.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ValidationError(f"output.directory: expected a non-empty string, got {directory!r}")
    stride = section.get("stride")
    return OutputSettings(
        directory=directory,
        stride=None if stride is None else _integer("output.stride", stride),
    )


def _check_shared_physics(
    experiment: ExperimentConfig, cavity: CavitySpec | None, gravity: GravityProfile | None
) -> None:
    """The experiment describes the photon of the cavity section in the field
    of the gravity section, so the values they share must agree."""
    # the two rest frequencies come from different float paths
    # (2*pi*c/lambda0 vs pi*j*c/(L*n_s)), so equality is to 1e-12
    if cavity is not None and abs(experiment.omega0 - cavity.omega0) > 1e-12 * cavity.omega0:
        raise ValidationError(
            f"experiment.lambda0: rest frequency {experiment.omega0!r} rad/s disagrees with cavity's {cavity.omega0!r}"
        )
    medium, section = (cavity, "cavity") if cavity is not None else (gravity, "gravity")
    if medium is not None and experiment.n_s != medium.n_s:
        raise ValidationError(
            f"experiment.n_s: must match {section}.n_s (single medium), got {experiment.n_s!r} vs {medium.n_s!r}"
        )
    if gravity is not None and experiment.g != gravity.g:
        raise ValidationError(f"experiment.g: must match gravity.g, got {experiment.g!r} vs {gravity.g!r}")


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate a scenario document; every violation is reported
    with the path of the offending key."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario syntax error: {exc}") from None
    root = _mapping("", document)

    cavity = _parse_cavity(_mapping("cavity", root["cavity"])) if "cavity" in root else None
    gravity = _parse_gravity(_mapping("gravity", root["gravity"]), cavity) if "gravity" in root else None
    propagation = _parse_propagation(_mapping("propagation", root["propagation"])) if "propagation" in root else None
    experiment = _parse_experiment(_mapping("experiment", root["experiment"])) if "experiment" in root else None
    if experiment is not None:
        _check_shared_physics(experiment, cavity, gravity)
    output = _parse_output(_mapping("output", root["output"])) if "output" in root else OutputSettings()

    return ScenarioFile(
        cavity=cavity, gravity=gravity, propagation=propagation, experiment=experiment, output=output
    )


def load_scenario(path) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def scenario_to_dict(scenario: ScenarioFile, resolved_stride: int | None = None) -> dict:
    """Serialize back to a document that re-parses to the same scenario, with
    all defaults materialized (used for the replayable run manifest)."""
    document: dict = {}
    if scenario.cavity is not None:
        cav = scenario.cavity
        section: dict = {"L": cav.L, "j": cav.j, "n_s": cav.n_s}
        if cav.Q is not None:
            section["Q"] = cav.Q
        document["cavity"] = section
    if scenario.gravity is not None:
        document["gravity"] = {"g": scenario.gravity.g, "n_s": scenario.gravity.n_s}
    if scenario.propagation is not None:
        prop = scenario.propagation
        document["propagation"] = {
            "grid": {"y_min": prop.grid.y_min, "y_max": prop.grid.y_max, "n_points": prop.grid.n_points},
            "dt": prop.dt,
            "t_final": prop.t_final,
            "sigma0": prop.sigma0,
        }
    if scenario.experiment is not None:
        exp = scenario.experiment
        document["experiment"] = {
            "lambda0": exp.lambda0,
            "sigma0": exp.sigma0,
            "y_out": exp.y_out,
            "P_avg": exp.P_avg,
            "eta_det": exp.eta_det,
            "T_int": exp.T_int,
            "Q": exp.Q,
            "n_s": exp.n_s,
            "g": exp.g,
            "width_model": exp.width_model,
        }
    stride = resolved_stride if resolved_stride is not None else scenario.output.stride
    output: dict = {"directory": scenario.output.directory}
    if stride is not None:
        output["stride"] = stride
    document["output"] = output
    return document
