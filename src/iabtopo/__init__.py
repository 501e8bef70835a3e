"""Measurement-graph construction, capacity modeling and joint
routing/airtime/power optimization for wireless access/backhaul trees."""

from .capacity import CapacityTable, McsEntry, Ts38306Params, capacity_from_sinr, default_table, load_table, ts38306_rate
from .channel import RadioParams, link_budgets, link_signal, o2i_loss, pathloss_umi
from .energy import EnergyReport, PowerModelParams, energy_efficiency, frontend_power, total_power
from .graph import (
    Commodity,
    Edge,
    EdgeKind,
    MeasurementGraph,
    Node,
    NodeKind,
    build_graph,
    load_graph,
    save_graph,
    validate_tree,
)
from .problem import (
    ContinuousPower,
    DiscretePower,
    FixedPower,
    NetworkSolution,
    ProblemInstance,
    SolveStatus,
    default_power_levels,
    load_solution,
    save_solution,
)

__version__ = "0.1.0"
