"""Affine frontend power model with sleep state, and network totals.

A transmitting frontend draws a static baseline plus a slope term scaled
by its transmit duty cycle (the summed airtime of its outgoing wireless
links); a silent frontend drops to sleep power.  All figures in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .errors import InconsistentSolution, PowerOutOfRange, ZeroPower

if TYPE_CHECKING:
    from .graph import EdgeKey, MeasurementGraph
    from .problem import NetworkSolution


@dataclass(frozen=True)
class PowerModelParams:
    """Micro-cell power model constants (configurable defaults)."""

    n_trx: int = 2
    p0_w: float = 56.0
    delta_p: float = 2.6
    p_sleep_w: float = 39.0
    p_active_unit_w: float = 0.0  # optional per-active-unit baseband adder

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.p_sleep_w > self.p0_w:
            raise ValueError("sleep power above idle baseline")


def frontend_power(params: PowerModelParams, p_tx_w: float, airtime_alpha: float) -> float:
    """Consumed power of one frontend at the given transmit power and duty cycle."""
    if not 0 <= p_tx_w < math.inf:
        raise PowerOutOfRange(f"p_tx {p_tx_w} W must be finite and >= 0")
    if not 0 <= airtime_alpha <= 1:
        raise PowerOutOfRange(f"airtime {airtime_alpha} outside [0, 1]")
    if p_tx_w == 0:
        return params.n_trx * params.p_sleep_w
    return params.n_trx * params.p0_w + airtime_alpha * params.delta_p * p_tx_w


@dataclass(frozen=True)
class EnergyReport:
    per_frontend_w: dict[int, float]
    total_w: float
    active_count: int


def total_power(
    solution: "NetworkSolution",
    params: PowerModelParams,
    graph: "MeasurementGraph | None" = None,
) -> EnergyReport:
    """Network power of a solution's activations, powers and airtimes."""
    return network_power(
        solution.powers_mw, solution.activations, solution.airtimes, params, graph
    )


def network_power(
    powers_mw: Mapping[int, float],
    activations: Mapping[int, int],
    airtimes: Mapping["EdgeKey", float],
    params: PowerModelParams,
    graph: "MeasurementGraph | None" = None,
) -> EnergyReport:
    """Aggregate network power from activations, powers (mW) and airtimes.

    ``graph`` is only needed when the per-active-unit adder is nonzero.
    """
    airtime_by_src: dict[int, float] = {}
    for (src, _dst), alpha in airtimes.items():
        airtime_by_src[src] = airtime_by_src.get(src, 0.0) + alpha

    per_frontend: dict[int, float] = {}
    active = 0
    for frontend_id, p_mw in sorted(powers_mw.items()):
        on = activations.get(frontend_id, 0)
        if not on:
            if p_mw > 0:
                raise InconsistentSolution(
                    f"frontend {frontend_id} sleeps but reports {p_mw} mW"
                )
            per_frontend[frontend_id] = params.n_trx * params.p_sleep_w
            continue
        active += 1
        alpha = airtime_by_src.get(frontend_id, 0.0)
        per_frontend[frontend_id] = (
            params.n_trx * params.p0_w + alpha * params.delta_p * p_mw / 1000.0
        )

    total = sum(per_frontend.values())
    if params.p_active_unit_w > 0:
        if graph is None:
            raise ValueError("per-unit power adder needs the graph for unit grouping")
        active_units = {graph.node(fid).unit_id for fid, on in activations.items() if on}
        total += params.p_active_unit_w * len(active_units)
    return EnergyReport(per_frontend_w=per_frontend, total_w=total, active_count=active)


def energy_efficiency(throughput_guarantee_mbps: float, total_w: float) -> float:
    """Guaranteed rate per consumed watt (Mbps/W)."""
    if total_w <= 0:
        raise ZeroPower(f"total power {total_w} W must be positive")
    return throughput_guarantee_mbps / total_w
