"""Dynamic constellation observation scheduling toolkit."""

from .problem import (
    Downlink,
    DynamicProblem,
    Request,
    Snapshot,
    Task,
    check_constraints,
    dynamic_utility,
    static_utility,
)
from .solvers import SOLVER_NAMES, SolverConfig
from .sim import run

__all__ = [
    "Downlink",
    "DynamicProblem",
    "Request",
    "Snapshot",
    "Task",
    "check_constraints",
    "dynamic_utility",
    "static_utility",
    "SOLVER_NAMES",
    "SolverConfig",
    "run",
]
