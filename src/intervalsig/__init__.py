"""Discrete-time simulator of resource congestion under information provision.

A central authority observes per-resource loads, turns them into scalar or
interval cost signals, and broadcasts them to a population of risk-typed
agents that re-routes every period. The package covers both the abstract
M-action model and the network (traffic assignment) model, plus the
experiment drivers and a CLI.
"""

__version__ = "0.1.0"

from .abstract_model import (
    AbstractConfig,
    FlappingSpec,
    convergence_check,
    convergence_demo_config,
    flapping_demo,
    run_abstract,
)
from .engine import (
    RunConfig,
    RunResult,
    Summary,
    diamond_system_optimum,
    run,
    summarize,
    write_csv,
)
from .instances import load_instance
from .network import parse_network, parse_trips
from .signaling import (
    Scheme,
    extreme_scheme,
    full_extreme_scheme,
    mean_scheme,
    now_scheme,
    scheme_from_name,
    subinterval_scheme,
)

__all__ = [
    "AbstractConfig",
    "FlappingSpec",
    "RunConfig",
    "RunResult",
    "Scheme",
    "Summary",
    "convergence_check",
    "convergence_demo_config",
    "diamond_system_optimum",
    "extreme_scheme",
    "flapping_demo",
    "full_extreme_scheme",
    "load_instance",
    "mean_scheme",
    "now_scheme",
    "parse_network",
    "parse_trips",
    "run",
    "run_abstract",
    "scheme_from_name",
    "subinterval_scheme",
    "summarize",
    "write_csv",
]
