"""Mixed-integer models for the throughput and energy problems.

``build`` and ``solve_extracted``, the one solve-and-extract path, look what
they call up on this package, so wrappers set on its attributes see each call.
"""

from ..problem import NetworkSolution, SolveStatus, default_power_levels
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
from .ir import ModelIR


def build(instance, problem, fixed_powers=None, routing_edges=None, start=None) -> BuiltModel:
    """``problem``'s model, from this package's builder attribute, so its wrappers see it.

    ``start`` (mW by frontend id, throughput only) is handed on only when given.
    """
    builder = build_throughput_model if problem == THROUGHPUT else build_energy_model
    given = {} if start is None else {"start": start}
    return builder(instance, fixed_powers=fixed_powers, routing_edges=routing_edges, **given)


def solve_extracted(built: BuiltModel, options: SolverOptions | None = None) -> NetworkSolution:
    """``built`` solved, extracted and re-validated; see ``extract_solution`` for errors."""
    return extract_solution(built, solve(built.ir, options))


__all__ = [
    "BuiltModel",
    "ENERGY",
    "ModelIR",
    "NetworkSolution",
    "RawSolution",
    "SolveStatus",
    "SolverOptions",
    "THROUGHPUT",
    "beats",
    "build",
    "build_energy_model",
    "build_throughput_model",
    "default_power_levels",
    "extract_solution",
    "frontend_powers",
    "model_bound",
    "solve",
    "solve_extracted",
    "write_model",
]
