"""cavityfall: cavity-confined photons as massive particles.

Exact in-plane dispersion and effective mass of light standing in a planar
cavity, weak-field gravitational optics and the Newtonian free fall of the
standing wavepacket, split-step spectral propagation of the envelope, and
the shot-noise SNR model of the free-fall interferometry experiment.
"""

__version__ = "0.1.0"

from .dispersion import (
    CavitySpec,
    effective_mass,
    group_velocity,
    photon_energy,
)
from .errors import CavityFallError, DomainError, ValidationError
from .gravity import (
    FreefallState,
    GravityProfile,
    freefall_trajectory,
    phase_gradient,
)
from .interferometry import (
    ExperimentConfig,
    QThresholdResult,
    SnrTrace,
    interference_signal,
    mode_width,
    q_threshold,
    snr,
    snr_peak,
    snr_trace,
)
from .propagator import (
    Grid1D,
    Trace,
    init_gaussian,
    propagate,
)
from .scenario import (
    OutputSettings,
    PropagationSettings,
    ScenarioFile,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)

__all__ = [
    "__version__",
    "CavityFallError",
    "DomainError",
    "ValidationError",
    "CavitySpec",
    "effective_mass",
    "photon_energy",
    "group_velocity",
    "GravityProfile",
    "FreefallState",
    "freefall_trajectory",
    "phase_gradient",
    "Grid1D",
    "Trace",
    "init_gaussian",
    "propagate",
    "ExperimentConfig",
    "SnrTrace",
    "QThresholdResult",
    "mode_width",
    "interference_signal",
    "snr",
    "snr_peak",
    "snr_trace",
    "q_threshold",
    "ScenarioFile",
    "PropagationSettings",
    "OutputSettings",
    "parse_scenario",
    "load_scenario",
    "scenario_to_dict",
]
