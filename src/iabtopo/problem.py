"""Shared problem and solution containers.

A ProblemInstance bundles everything both optimization formulations need:
the measurement graph, the commodities, radio and power-model parameters,
the capacity ladder and the transmit-power mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Union

from .capacity import CapacityTable, default_table
from .channel import RadioParams
from .energy import PowerModelParams
from .errors import ParseError
from .graph import Commodity, EdgeKey, MeasurementGraph, read_json, write_json


# -- power modes ----------------------------------------------------------


@dataclass(frozen=True)
class FixedPower:
    """Every frontend transmits (when active) at a preset power in mW."""

    powers_mw: Mapping[int, float]


@dataclass(frozen=True)
class ContinuousPower:
    """Frontend powers are free in [0, p_max]; throughput problem only."""


@dataclass(frozen=True)
class DiscretePower:
    """Frontend powers picked from a finite grid that includes 0."""

    levels_mw: tuple[float, ...]

    def __post_init__(self):
        levels = tuple(self.levels_mw)
        if sorted(set(levels)) != list(levels):
            raise ValueError("power levels must be sorted and unique")
        if not levels or levels[0] != 0.0:
            raise ValueError("power grid must start at 0")
        if not all(map(math.isfinite, levels)):
            raise ValueError("power levels must be finite")


PowerMode = Union[FixedPower, ContinuousPower, DiscretePower]


def default_power_levels(p_max_mw: float, n_levels: int = 9) -> tuple[float, ...]:
    """Evenly spaced grid {0, p_max/(n-1), ..., p_max}."""
    if n_levels < 2:
        raise ValueError("need at least two levels")
    step = p_max_mw / (n_levels - 1)
    return tuple(round(i * step, 9) for i in range(n_levels))


# -- instance --------------------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    graph: MeasurementGraph
    commodities: tuple[Commodity, ...]
    radio: RadioParams = field(default_factory=RadioParams)
    power_model: PowerModelParams = field(default_factory=PowerModelParams)
    capacity_table: CapacityTable = field(default_factory=default_table)
    power_mode: PowerMode = field(default_factory=ContinuousPower)

    def __post_init__(self):
        donor_id = self.graph.donor.id
        ue_ids = {n.id for n in self.graph.ues}
        ids: set[int] = set()
        dests: set[int] = set()
        for c in self.commodities:
            if c.source != donor_id:
                raise ValueError(f"commodity {c.id}: source {c.source} is not the donor")
            if c.dest not in ue_ids:
                raise ValueError(f"commodity {c.id}: dest {c.dest} is not a UE")
            if c.id in ids:
                raise ValueError(f"commodity id {c.id} appears twice")
            if c.dest in dests:
                raise ValueError(f"commodity {c.id}: UE {c.dest} already has a commodity")
            ids.add(c.id)
            dests.add(c.dest)
        if isinstance(self.power_mode, FixedPower):
            for n in self.graph.frontends:
                if n.id not in self.power_mode.powers_mw:
                    raise ValueError(f"fixed power mode misses frontend {n.id}")

    def with_power_mode(self, mode: PowerMode) -> "ProblemInstance":
        return replace(self, power_mode=mode)

    def with_demands(self, demand_mbps: float) -> "ProblemInstance":
        commodities = tuple(replace(c, demand_mbps=demand_mbps) for c in self.commodities)
        return replace(self, commodities=commodities)


# -- solutions ---------------------------------------------------------------


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    # Solved against an objective cutoff and nothing strictly better was
    # returned; says nothing else about the model (no values, not infeasible).
    CUTOFF = "cutoff"


@dataclass
class NetworkSolution:
    """Extracted, validated network configuration.

    ``flows`` maps commodity id -> edge -> value: Mbps for the throughput
    problem, 0/1 routing indicators for the energy problem.  ``powers_mw``
    holds effective transmit powers (0 for sleeping frontends).
    """

    problem: str  # "throughput" | "energy"
    status: SolveStatus
    objective: float
    chosen_edges: tuple[EdgeKey, ...]
    flows: dict[int, dict[EdgeKey, float]]
    airtimes: dict[EdgeKey, float]
    powers_mw: dict[int, float]
    activations: dict[int, int]
    capacities_mbps: dict[EdgeKey, float]
    per_ue_mbps: dict[int, float]
    gap: float = 0.0

    @property
    def min_ue_mbps(self) -> float:
        if not self.per_ue_mbps:
            return 0.0
        return min(self.per_ue_mbps.values())

    @property
    def activated_count(self) -> int:
        return sum(1 for v in self.activations.values() if v)


def _edge_key_str(key: EdgeKey) -> str:
    return f"{key[0]}->{key[1]}"


def _parse_edge_key(text: str) -> EdgeKey:
    try:
        src, dst = text.split("->")
        return int(src), int(dst)
    except ValueError as exc:
        raise ParseError(f"bad edge key {text!r}") from exc


def solution_payload(solution: NetworkSolution) -> dict:
    """JSON-ready dict in the solution file schema."""
    return {
        "problem": solution.problem,
        "status": solution.status.value,
        "objective": solution.objective,
        "gap": solution.gap,
        "chosen_edges": [list(k) for k in solution.chosen_edges],
        "flows": {
            str(k): {_edge_key_str(e): v for e, v in per_edge.items()}
            for k, per_edge in solution.flows.items()
        },
        "airtimes": {_edge_key_str(e): v for e, v in solution.airtimes.items()},
        "powers_mw": {str(k): v for k, v in solution.powers_mw.items()},
        "activations": {str(k): v for k, v in solution.activations.items()},
        "capacities_mbps": {_edge_key_str(e): v for e, v in solution.capacities_mbps.items()},
        "per_ue_mbps": {str(k): v for k, v in solution.per_ue_mbps.items()},
    }


def save_solution(solution: NetworkSolution, path) -> None:
    write_json(path, solution_payload(solution))


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def load_solution(path) -> NetworkSolution:
    """Read a solution file; another problem or a non-finite value raises ParseError."""
    raw = read_json(path)
    try:
        if raw["problem"] not in ("throughput", "energy"):
            raise ValueError(f"unknown problem {raw['problem']!r}")
        return NetworkSolution(
            problem=raw["problem"],
            status=SolveStatus(raw["status"]),
            objective=_finite(raw["objective"]),
            gap=float(raw.get("gap", 0.0)),  # HiGHS's relative gap is inf at a 0 objective
            chosen_edges=tuple((int(a), int(b)) for a, b in raw["chosen_edges"]),
            flows={
                int(k): {_parse_edge_key(e): _finite(v) for e, v in per_edge.items()}
                for k, per_edge in raw["flows"].items()
            },
            airtimes={_parse_edge_key(e): _finite(v) for e, v in raw["airtimes"].items()},
            powers_mw={int(k): _finite(v) for k, v in raw["powers_mw"].items()},
            activations={int(k): int(v) for k, v in raw["activations"].items()},
            capacities_mbps={
                _parse_edge_key(e): _finite(v) for e, v in raw["capacities_mbps"].items()
            },
            per_ue_mbps={int(k): _finite(v) for k, v in raw["per_ue_mbps"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
