"""Feedback-aware RF energy harvesting and transmission scheduling.

The harvested energy of an RF-powered transmitter depends on the energy
already in its capacitor, so transmission scheduling feeds back into
harvesting.  This package models that loop, computes offline-optimal
schedules with a Newton method over the residuals at the arrivals,
replays the classic fixed-tunnel baseline each scenario is drawn from
and two greedy/online policies, and provides a Monte Carlo harness plus
a brute-force oracle for validation.
"""

__version__ = "0.1.0"

from .charge import (
    ChargeCircuit,
    harvest_sensitivity,
    harvested_energy,
    optimal_residual,
    packet_length_for,
)
from .exceptions import (
    BudgetError,
    ConfigError,
    GenerationError,
    InfeasibleError,
    SolverError,
)
from .oracle import GridSpec, OracleResult, brute_force_optimize
from .scheduling import (
    EnergyScenario,
    HarvestTrace,
    SolveReport,
    TransmissionSchedule,
    solve,
)
from .simulator import (
    ChannelLink,
    ExperimentConfig,
    future_impact_probe,
    generate_scenario,
    monte_carlo,
    optimal_schedule,
    replay,
)
from .strategies import OnlinePredictivePolicy, max_harvest_schedule

__all__ = [
    "__version__",
    "ChargeCircuit",
    "harvested_energy",
    "optimal_residual",
    "harvest_sensitivity",
    "packet_length_for",
    "EnergyScenario",
    "TransmissionSchedule",
    "HarvestTrace",
    "SolveReport",
    "solve",
    "OnlinePredictivePolicy",
    "max_harvest_schedule",
    "ChannelLink",
    "ExperimentConfig",
    "replay",
    "optimal_schedule",
    "generate_scenario",
    "monte_carlo",
    "future_impact_probe",
    "GridSpec",
    "OracleResult",
    "brute_force_optimize",
    "InfeasibleError",
    "SolverError",
    "GenerationError",
    "BudgetError",
    "ConfigError",
]
