"""Scenario files: JSON documents describing a run, all values in SI units.

Each section is optional (commands check for the ones they need) and is read
into one dataclass: cavity into dispersion.CavitySpec (lambda0 may stand in
for L and j), gravity into gravity.GravityProfile (n_s defaults to the
cavity's), propagation into PropagationSettings (its grid a propagator.Grid1D,
periodic: the packet must keep 4 sigma of clearance from its edges), experiment
into interferometry.ExperimentConfig ("paper" names paper_verbatim) and output
into OutputSettings.  A section's keys are the fields of its dataclass: a key
is required when its field has no default, and its value is read by the
field's annotated type (float: a finite JSON number in plain SI, so "1064nm"
is an error; int: a JSON integer; str: a non-empty string; X | None: also
null).  Unknown keys are rejected with their path.  The range checks live in
the dataclasses alone; their errors' keys get the section path in front.  An
experiment next to cavity or gravity must agree with them on the rest
frequency, n_s and g.  A file that is not UTF-8, or JSON nested too deeply to
decode, is a validation error too.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, fields
from functools import partial

from .dispersion import CavitySpec
from .errors import CavityFallError, ValidationError
from .gravity import GravityProfile
from .interferometry import ExperimentConfig
from .propagator import Grid1D

WIDTH_MODEL_ALIASES = {"paper": "paper_verbatim", "paper_verbatim": "paper_verbatim", "corrected": "corrected"}


@dataclass(frozen=True)
class PropagationSettings:
    """SI-valued propagation request (grid and sigma0 in meters, dt and
    t_final in seconds), passed to the propagator unchanged.  t_final/dt
    rounds to the step count n_steps, and the last recorded time
    n_steps*dt must be a finite number too."""

    grid: Grid1D
    dt: float
    t_final: float
    sigma0: float

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValidationError("must be > 0", key="dt")
        if not self.t_final >= self.dt:
            raise ValidationError("must be >= dt", key="t_final")
        if not math.isfinite(self.t_final / self.dt):
            raise ValidationError(f"t_final/dt must be finite, got {self.t_final!r}/{self.dt!r}", key="t_final")
        # t_final/dt can round up past t_final: every recorded time i*dt is at most n_steps*dt
        if not math.isfinite(self.n_steps * self.dt):
            last = f"{self.n_steps}*{self.dt!r}"
            raise ValidationError(f"the last recorded time n_steps*dt must be finite, got {last}", key="t_final")
        if not self.sigma0 > 0.0:
            raise ValidationError("must be > 0", key="sigma0")

    @property
    def n_steps(self) -> int:
        """Number of dt steps covering t_final (at least 1); the only place it is rounded."""
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    stride: int | None = None

    def __post_init__(self) -> None:
        if self.stride is not None and not (type(self.stride) is int and self.stride >= 1):
            raise ValidationError(f"must be an integer >= 1, got {self.stride!r}", key="stride")


@dataclass(frozen=True)
class ScenarioFile:
    """Validated, defaulted scenario; sections absent from the file are None."""

    cavity: CavitySpec | None = None
    gravity: GravityProfile | None = None
    propagation: PropagationSettings | None = None
    experiment: ExperimentConfig | None = None
    output: OutputSettings = OutputSettings()


def _mapping(path: str, value, allowed) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"expected an object, got {type(value).__name__}", key=path or "scenario")
    for key in value:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ValidationError(f"unknown key (allowed here: {sorted(allowed)})", key=where)
    return value


def _number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = " (write plain SI numbers, no unit suffixes)" if isinstance(value, str) else ""
        raise ValidationError(f"expected a number, got {value!r}{hint}", key=path)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond double range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"must be finite, got {value!r}", key=path)
    return number


def _integer(path: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", key=path)
    return value


def _string(path: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"expected a non-empty string, got {value!r}", key=path)
    return value


def _width_model(path: str, value) -> str:
    model = WIDTH_MODEL_ALIASES.get(value) if isinstance(value, str) else None
    if model is None:
        raise ValidationError(f"expected one of {sorted(WIDTH_MODEL_ALIASES)}, got {value!r}", key=path)
    return model


def _build(path: str, make, kwargs: dict):
    """make(**kwargs), its errors' keys put under the section path."""
    try:
        return make(**kwargs)
    except CavityFallError as exc:
        exc.key = path if exc.key is None else f"{path}.{exc.key}"
        raise


def _read(path: str, value, readers: dict) -> dict:
    """The JSON object at path as keyword arguments: each key must be one of
    readers, and is read by its reader."""
    section = _mapping(path, value, readers)
    return {key: readers[key](f"{path}.{key}", item) for key, item in section.items()}


def _section(cls: type, path: str, value):
    """cls built from the JSON object at path; a field without a default is
    required."""
    kwargs = _read(path, value, _READERS[cls])
    for key in _REQUIRED[cls]:
        if key not in kwargs:
            raise ValidationError("required", key=f"{path}.{key}")
    return _build(path, cls, kwargs)


def _reader(kind):
    """Reader of a value annotated kind: float, int, str, a section
    dataclass, or X | None for one of these."""
    options = typing.get_args(kind)
    if type(None) in options:
        read = _reader(options[0])
        return lambda path, value: None if value is None else read(path, value)
    return {float: _number, int: _integer, str: _string}.get(kind) or partial(_section, kind)


_SECTIONS = (Grid1D, CavitySpec, GravityProfile, PropagationSettings, ExperimentConfig, OutputSettings)
_READERS = {cls: {name: _reader(kind) for name, kind in typing.get_type_hints(cls).items()} for cls in _SECTIONS}
# a width model may also be named by its alias, and a cavity by its rest
# wavelength in place of (L, j)
_READERS[ExperimentConfig]["width_model"] = _width_model
_CAVITY_READERS = {**_READERS[CavitySpec], "lambda0": _number}
_REQUIRED = {cls: [field.name for field in fields(cls) if field.default is MISSING] for cls in _SECTIONS}
# named once, not by fields() per call: each fresh tuple it frees stays on CPython's free list
_FIELDS = {cls: [field.name for field in fields(cls)] for cls in (*_SECTIONS, ScenarioFile)}


def _parse_cavity(value) -> CavitySpec:
    section = _read("cavity", value, _CAVITY_READERS)
    if "lambda0" not in section:
        if "L" in section and "j" in section:
            return _build("cavity", CavitySpec, section)
        raise ValidationError("requires either lambda0 or both L and j", key="cavity")
    if "L" in section or "j" in section:
        raise ValidationError("give either (L, j) or lambda0, not both", key="cavity")
    return _build("cavity", CavitySpec.from_rest_wavelength, section)


def _parse_gravity(value, cavity: CavitySpec | None) -> GravityProfile:
    section = _read("gravity", value, _READERS[GravityProfile])
    if cavity is not None:
        section.setdefault("n_s", cavity.n_s)
    gravity = _build("gravity", GravityProfile, section)
    if cavity is not None and gravity.n_s != cavity.n_s:
        raise ValidationError(
            f"must match cavity.n_s (single medium), got {gravity.n_s!r} vs {cavity.n_s!r}", key="gravity.n_s"
        )
    return gravity


def _check_shared_physics(
    experiment: ExperimentConfig, cavity: CavitySpec | None, gravity: GravityProfile | None
) -> None:
    """The experiment describes the photon of the cavity section in the field
    of the gravity section, so the values they share must agree."""
    # the two rest frequencies come from different float paths
    # (2*pi*c/lambda0 vs pi*j*c/(L*n_s)), so equality is to 1e-12
    if cavity is not None and abs(experiment.omega0 - cavity.omega0) > 1e-12 * cavity.omega0:
        raise ValidationError(
            f"rest frequency {experiment.omega0!r} rad/s disagrees with cavity's {cavity.omega0!r}",
            key="experiment.lambda0",
        )
    medium, section = (cavity, "cavity") if cavity is not None else (gravity, "gravity")
    if medium is not None and experiment.n_s != medium.n_s:
        raise ValidationError(
            f"must match {section}.n_s (single medium), got {experiment.n_s!r} vs {medium.n_s!r}",
            key="experiment.n_s",
        )
    if gravity is not None and experiment.g != gravity.g:
        raise ValidationError(f"must match gravity.g, got {experiment.g!r} vs {gravity.g!r}", key="experiment.g")


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate a scenario document; every violation is reported
    with the path of the offending key."""
    try:
        # ValueError: bad JSON or an integer past the digit limit; RecursionError: nesting too deep
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"syntax error: {exc}", key="scenario") from None
    root = _mapping("", document, _FIELDS[ScenarioFile])

    cavity = _parse_cavity(root["cavity"]) if "cavity" in root else None
    gravity = _parse_gravity(root["gravity"], cavity) if "gravity" in root else None
    propagation = _section(PropagationSettings, "propagation", root["propagation"]) if "propagation" in root else None
    experiment = _section(ExperimentConfig, "experiment", root["experiment"]) if "experiment" in root else None
    if experiment is not None:
        _check_shared_physics(experiment, cavity, gravity)
    output = _section(OutputSettings, "output", root.get("output", {}))

    return ScenarioFile(cavity, gravity, propagation, experiment, output)


def load_scenario(path) -> ScenarioFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_scenario(handle.read())
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})", key="scenario") from None


def _as_dict(obj) -> dict:
    """The fields of a dataclass, nested ones as dicts too, without None values."""
    values = ((key, getattr(obj, key)) for key in _FIELDS[type(obj)])
    return {key: _as_dict(value) if type(value) in _FIELDS else value for key, value in values if value is not None}


def scenario_to_dict(scenario: ScenarioFile) -> dict:
    """Serialize back to a document that re-parses to the same scenario, with
    all defaults materialized (used for the replayable run manifest)."""
    return _as_dict(scenario)
