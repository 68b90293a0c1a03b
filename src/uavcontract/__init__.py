"""Contract menus and learned strategies for UAV-collected defense data.

A ground control station (GCS) buys valid defense data (VDD) from UAV
honeypots of unknown type.  The package solves the optimal menu under
asymmetric information (with bunching when the natural ordering breaks),
provides complete-information, linear, and uniform baselines, models the
air-ground channel that prices each type's delay, and trains two-tier
tabular learners that discover contracts online.
"""

from .config import ExperimentConfig, PhcRun, load_config, parse_config
from .environment import (ChannelParams, UavKinematics, a2g_pathloss,
                          derived_delay, los_probability, step_mobility,
                          transmission_delay)
from .errors import (InsufficientData, NonFiniteOutput, NotConverged,
                     ParseError, SpeedViolation, UavContractError,
                     ValidationError, ZeroCapacity)
from .game import (ContractItem, ContractMenu, FeasibilityReport, Scenario,
                   UavType, defensive_effectiveness, gcs_utility,
                   uav_utility, verify_feasibility)
# importable but not exported: no mode calls it; `Scenario.eligible` is
# the eligible order it copies
from .game import eligible_types  # noqa: F401
from .phc import (EpisodeLog, PhcParams, Tables, TrainResult,
                  action_grids, convergence_check, convergence_slot,
                  hotboot, perturb_scenario, train, with_default_r_max)
from .runner import (MetricsRow, run_compare, run_mode, run_phc, run_solve,
                     run_sweep_cost, run_sweep_population)
from .solver import (SolverTrace, brute_force_oracle, linear_contract,
                     menu_utilities, optimal_rewards, oracle_resolution_bound,
                     solve_complete_info, solve_partial_info,
                     uniform_contract)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "PhcRun", "load_config", "parse_config",
    "ChannelParams", "UavKinematics", "a2g_pathloss", "derived_delay",
    "los_probability", "step_mobility", "transmission_delay",
    "InsufficientData", "NonFiniteOutput", "NotConverged", "ParseError",
    "SpeedViolation", "UavContractError", "ValidationError", "ZeroCapacity",
    "ContractItem", "ContractMenu", "FeasibilityReport", "Scenario",
    "UavType", "defensive_effectiveness", "gcs_utility", "uav_utility",
    "verify_feasibility",
    "EpisodeLog", "PhcParams", "Tables", "TrainResult",
    "action_grids", "convergence_check", "convergence_slot", "hotboot",
    "perturb_scenario", "train", "with_default_r_max",
    "MetricsRow", "run_compare", "run_mode", "run_phc", "run_solve",
    "run_sweep_cost", "run_sweep_population",
    "SolverTrace", "brute_force_oracle", "linear_contract",
    "menu_utilities", "optimal_rewards", "oracle_resolution_bound",
    "solve_complete_info", "solve_partial_info", "uniform_contract",
]
