"""Turn raw solver values into validated network solutions.

Extraction is deliberately paranoid: binaries must sit within tolerance
of integers, ladder indicators must agree with a direct SINR recompute at
the extracted powers, and the assembled solution must pass the oracle's
full numeric validation.  Any failure raises ExtractionMismatch rather
than silently accepting a model/tolerance bug.
"""

from __future__ import annotations

import math

from .. import oracle
from ..capacity import ladder_position
from ..channel import link_budget
from ..errors import BackendError, ExtractionMismatch
from ..graph import EdgeKey
from ..problem import NetworkSolution, SolveStatus
from .backend import RawSolution
from .builder import ENERGY, MIN_ON_POWER_FRACTION, BuiltModel

_BIN_TOL = 1e-6
_FLOW_TOL = 1e-6
# Matches the oracle's level-granting slack (solver row tolerance).
_BOUNDARY_SLACK = 1e-4


def _value(raw: RawSolution, idx: int) -> float:
    return float(raw.values[idx])


def _binary(raw: RawSolution, idx: int, what: str) -> int:
    v = _value(raw, idx)
    r = round(v)
    if abs(v - r) > _BIN_TOL:
        raise ExtractionMismatch(f"{what}: binary value {v} not within 1e-6 of an integer")
    return int(r)


def frontend_power(built: BuiltModel, raw: RawSolution, fid: int) -> float:
    """Effective transmit power of one frontend in a solved model.

    Continuous powers under the model's minimum-on threshold mean "off"
    (they grant no ladder level) and are snapped to exactly zero.
    """
    reps = built.power_reps
    j = reps.col[fid]
    if reps.cont[j] >= 0:
        p = max(_value(raw, int(reps.cont[j])), 0.0)
        if p < MIN_ON_POWER_FRACTION * built.instance.radio.p_max_mw:
            p = 0.0
        return p
    levels, binaries = reps.levels.group(j)
    if not len(binaries):  # a constant
        return float(reps.lo[j])
    return sum(
        lvl * _binary(raw, idx, f"power level of {fid}")
        for lvl, idx in zip(levels.tolist(), binaries.tolist())
    )


def extract_solution(built: BuiltModel, raw: RawSolution) -> NetworkSolution:
    if raw.values is None:
        raise BackendError(f"cannot extract from status {raw.status.value} without values")

    powers: dict[int, float] = {}
    activations: dict[int, int] = {}
    for fid, act in zip(built.power_reps.col, built.power_reps.act.tolist()):
        p = frontend_power(built, raw, fid)
        powers[fid] = p
        if built.problem == ENERGY:
            activations[fid] = 0 if act < 0 else _binary(raw, act, f"act[{fid}]")
        else:
            activations[fid] = 1 if p > 0 else 0

    # Flows and chosen edges.
    flows: dict[int, dict[EdgeKey, float]] = {}
    chosen: set[EdgeKey] = set()
    routing = built.routing_wireless + built.routing_wired
    for comm in built.commodities:
        per_edge: dict[EdgeKey, float] = {}
        for e in routing:
            idx = built.flow[(comm.id, e.key)]
            if built.problem == ENERGY:
                v = float(_binary(raw, idx, f"f[k{comm.id},{e.key}]"))
            else:
                v = max(_value(raw, idx), 0.0)
                if v < _FLOW_TOL:
                    v = 0.0
            if v:
                per_edge[e.key] = v
                chosen.add(e.key)
        flows[comm.id] = per_edge

    airtimes: dict[EdgeKey, float] = {}
    capacities: dict[EdgeKey, float] = {}
    for e in built.routing_wireless:
        if e.key in chosen:
            airtimes[e.key] = min(max(_value(raw, built.alpha[e.key]), 0.0), 1.0)
            capacities[e.key] = max(_value(raw, built.cap[e.key]), 0.0)
        else:
            airtimes[e.key] = 0.0
            capacities[e.key] = 0.0

    # Ladder levels against a direct SINR recompute.  The solver may leave
    # an indicator at 0 despite a met threshold (a within-tolerance
    # violation on an unused edge, which only wastes capacity); granting a
    # level the physics denies is the bug this check exists to catch.
    table = built.instance.capacity_table
    for e in built.routing_wireless:
        floor = built.phi_floor[e.key]
        # The floor's levels hold only while the source transmits.
        model_count = floor if powers[e.src] > 0 else 0
        for i, idx in enumerate(built.phi_vars[e.key], start=floor):
            b = _binary(raw, idx, f"phi[{e.key},{i}]")
            if b and model_count < i:
                raise ExtractionMismatch(f"phi chain broken on edge {e.key} at level {i}")
            model_count += b
        budget = link_budget(e, powers, built.instance.graph, built.instance.radio)
        pos = ladder_position(table, budget.signal_mw, budget.interference_mw)
        direct_count = 0 if pos is None else pos + 1
        for j in range(direct_count, model_count):
            th = table.thresholds_linear[j]
            lhs, rhs = budget.signal_mw, th * budget.interference_mw
            if abs(lhs - rhs) > _BOUNDARY_SLACK * max(lhs, rhs, 1e-30):
                raise ExtractionMismatch(
                    f"edge {e.key}: model grants {model_count} ladder levels, "
                    f"direct recompute grants {direct_count}"
                )

    per_ue: dict[int, float] = {}
    for comm in built.commodities:
        if built.problem == ENERGY:
            per_ue[comm.dest] = comm.demand_mbps
        else:
            inflow = sum(v for (src, dst), v in flows[comm.id].items() if dst == comm.dest)
            outflow = sum(v for (src, dst), v in flows[comm.id].items() if src == comm.dest)
            per_ue[comm.dest] = inflow - outflow

    status = raw.status
    if status is SolveStatus.TIME_LIMIT:
        status = SolveStatus.FEASIBLE  # incumbent available

    solution = NetworkSolution(
        problem=built.problem,
        status=status,
        objective=raw.objective if raw.objective is not None else math.nan,
        chosen_edges=tuple(sorted(chosen)),
        flows=flows,
        airtimes=airtimes,
        powers_mw=powers,
        activations=activations,
        capacities_mbps=capacities,
        per_ue_mbps=per_ue,
        gap=raw.gap,
    )

    report = oracle.validate_solution(built.instance, solution)
    if not report.ok:
        summary = "; ".join(str(v) for v in report.violations[:8])
        raise ExtractionMismatch(f"solution failed re-validation: {summary}", report)
    return solution
