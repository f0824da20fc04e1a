"""cavityfall: cavity-confined photons as massive particles.

Exact in-plane dispersion and effective mass of light standing in a planar
cavity, weak-field gravitational optics and the Newtonian free fall of the
standing wavepacket, split-step spectral propagation of the envelope with
closed-form oracles, and the shot-noise SNR model of the free-fall
interferometry experiment.
"""

__version__ = "0.1.0"

from .dispersion import (
    CavitySpec,
    effective_mass,
    group_velocity,
    kg_residual,
    photon_energy,
)
from .errors import CavityFallError, DomainError, ValidationError
from .gravity import (
    FreefallState,
    GravityProfile,
    freefall_trajectory,
    index_correction,
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
    snr_trace,
)
from .propagator import (
    GaussianMoments,
    Grid1D,
    PropagationScenario,
    Trace,
    WaveState,
    analytic_gaussian_oracle,
    exact_accelerating_gaussian,
    init_gaussian,
    observables,
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
    "kg_residual",
    "GravityProfile",
    "FreefallState",
    "index_correction",
    "freefall_trajectory",
    "phase_gradient",
    "Grid1D",
    "WaveState",
    "PropagationScenario",
    "Trace",
    "GaussianMoments",
    "init_gaussian",
    "observables",
    "propagate",
    "analytic_gaussian_oracle",
    "exact_accelerating_gaussian",
    "ExperimentConfig",
    "SnrTrace",
    "QThresholdResult",
    "mode_width",
    "interference_signal",
    "snr",
    "snr_trace",
    "q_threshold",
    "ScenarioFile",
    "PropagationSettings",
    "OutputSettings",
    "parse_scenario",
    "load_scenario",
    "scenario_to_dict",
]
