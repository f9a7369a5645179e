"""Joint beam-hopping + carrier-aggregation planning toolkit.

Synthesizes multi-beam satellite scenarios, assembles and solves the joint
illumination/aggregation MILP, runs the conventional beam-hopping baseline,
and reports demand-matching and fairness metrics.
"""

from .scenario import (
    ConfigError,
    Scenario,
    SystemConfig,
    adjacency_pairs,
    generate_scenario,
    load_config,
)
from .linkbudget import ModcodTable, RateTable, compute_rate_table
from .model import (
    AllocationPlan,
    InfeasibleSolutionError,
    ModelInstance,
    StructuralError,
    VariableCatalog,
    ViolationReport,
    build_model,
    decode_plan,
    validate_solution,
)
from .simplex import LpSolution, solve_dense
from .solver import MilpSolution, SolverOptions, branch_and_bound, brute_force, solve_lp, solve_milp
from .lp_format import ParsedLp, export_lp, parse_lp, round_trip_matches
from .baseline import BhPlan, build_bh_model, distribute_slots, solve_bh
from .metrics import MetricsReport, build_report, jain_index, report_csv, report_json

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "BhPlan",
    "ConfigError",
    "InfeasibleSolutionError",
    "LpSolution",
    "MetricsReport",
    "MilpSolution",
    "ModcodTable",
    "ModelInstance",
    "ParsedLp",
    "RateTable",
    "Scenario",
    "SolverOptions",
    "StructuralError",
    "SystemConfig",
    "VariableCatalog",
    "ViolationReport",
    "adjacency_pairs",
    "branch_and_bound",
    "build_bh_model",
    "build_model",
    "build_report",
    "brute_force",
    "compute_rate_table",
    "decode_plan",
    "distribute_slots",
    "export_lp",
    "generate_scenario",
    "jain_index",
    "load_config",
    "parse_lp",
    "report_csv",
    "report_json",
    "round_trip_matches",
    "solve_bh",
    "solve_dense",
    "solve_lp",
    "solve_milp",
    "validate_solution",
]
