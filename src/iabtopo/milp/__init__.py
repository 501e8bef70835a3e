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
from .backend import RawSolution, SolverOptions, beats, solve, write_model
from .builder import (
    ENERGY,
    THROUGHPUT,
    BuiltModel,
    build_energy_model,
    build_throughput_model,
    model_bound,
)
from .extract import extract_solution, frontend_powers
from .ir import ModelIR, Sense, VarKind


def build(instance, problem, fixed_powers=None, routing_edges=None) -> BuiltModel:
    """``problem``'s model, from this package's builder attribute, so its wrappers see it."""
    builder = build_throughput_model if problem == THROUGHPUT else build_energy_model
    return builder(instance, fixed_powers=fixed_powers, routing_edges=routing_edges)


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
    "build",
    "build_energy_model",
    "build_throughput_model",
    "default_power_levels",
    "extract_solution",
    "frontend_powers",
    "model_bound",
    "solve",
    "write_model",
]
