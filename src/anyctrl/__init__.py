"""Sequence-based anytime control: buffered controllers under random processor
availability, closed-form stochastic-stability certificates, and a seeded
Monte-Carlo experiment harness."""

from .availability import (IidAvailability, MarkovAvailability,
                           from_execution_time, make_sampler)
from .controller import ControllerKind, effective_lengths
from .errors import CertificateViolation, ConfigError, DivergenceError
from .plants import DisturbanceModel, PlantModel, make_builtin_plant
from .simulation import (CostSummary, SimConfig, SimTrace, improvement_pct,
                         monte_carlo, run_episode)
from .stability import CertificateInputs, StabilityReport, evaluate

__all__ = [
    "IidAvailability", "MarkovAvailability", "from_execution_time", "make_sampler",
    "ControllerKind", "effective_lengths",
    "CertificateViolation", "ConfigError", "DivergenceError",
    "DisturbanceModel", "PlantModel", "make_builtin_plant",
    "CostSummary", "SimConfig", "SimTrace", "improvement_pct",
    "monte_carlo", "run_episode",
    "CertificateInputs", "StabilityReport", "evaluate",
]
