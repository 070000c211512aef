"""Sequence-based anytime control: buffered controllers under random processor
availability, closed-form stochastic-stability certificates, and a seeded
Monte-Carlo experiment harness."""

from .availability import (IidAvailability, MarkovAvailability,
                           from_execution_time, make_sampler, validate)
from .controller import (ControllerKind, Ring, controller_step, drain,
                         effective_lengths, tentative_sequence)
from .errors import (CertificateViolation, ConfigError, DegenerateStateError,
                     DimensionError, DivergenceError)
from .plants import DisturbanceModel, PlantModel, make_builtin_plant, step
from .simulation import (CostSummary, SimConfig, SimTrace, empirical_cost,
                         improvement_pct, monte_carlo, run_episode)
from .stability import CertificateInputs, StabilityReport, evaluate

__all__ = [
    "IidAvailability", "MarkovAvailability", "from_execution_time",
    "make_sampler", "validate",
    "ControllerKind", "Ring", "controller_step", "drain", "effective_lengths",
    "tentative_sequence",
    "CertificateViolation", "ConfigError", "DegenerateStateError",
    "DimensionError", "DivergenceError",
    "DisturbanceModel", "PlantModel", "make_builtin_plant", "step",
    "CostSummary", "SimConfig", "SimTrace", "empirical_cost",
    "improvement_pct", "monte_carlo", "run_episode",
    "CertificateInputs", "StabilityReport", "evaluate",
]
