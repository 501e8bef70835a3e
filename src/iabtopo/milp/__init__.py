"""Mixed-integer models for the throughput and energy problems."""

from ..problem import (
    ContinuousPower,
    DiscretePower,
    FixedPower,
    NetworkSolution,
    PowerMode,
    SolveStatus,
    default_power_levels,
)
from .backend import RawSolution, SolverOptions, beats, solve
from .builder import (
    ENERGY,
    THROUGHPUT,
    BuiltModel,
    build_energy_model,
    build_throughput_model,
)
from .extract import extract_solution, frontend_power
from .ir import (
    ModelIR,
    Sense,
    VarKind,
    linearize_binary_product,
    linearize_indicator,
)

__all__ = [
    "BuiltModel",
    "ContinuousPower",
    "DiscretePower",
    "ENERGY",
    "FixedPower",
    "ModelIR",
    "NetworkSolution",
    "PowerMode",
    "RawSolution",
    "Sense",
    "SolveStatus",
    "SolverOptions",
    "THROUGHPUT",
    "VarKind",
    "beats",
    "build_energy_model",
    "build_throughput_model",
    "default_power_levels",
    "extract_solution",
    "frontend_power",
    "linearize_binary_product",
    "linearize_indicator",
    "solve",
]
