"""Turn raw solver values into validated network solutions.

Extraction is deliberately paranoid: binaries must sit within tolerance
of integers, ladder indicators must agree with a direct SINR recompute at
the extracted powers, the assembled solution must pass the oracle's
full numeric validation, and its objective must not beat the model's
proven bound.  Any failure raises ExtractionMismatch rather than
silently accepting a model/tolerance bug.  A result without values
raises ModelInfeasible when HiGHS proved the model infeasible, and
BackendError otherwise.
"""

from __future__ import annotations

import numpy as np

from .. import oracle
from ..channel import link_budgets
from ..errors import BackendError, ExtractionMismatch, ModelInfeasible
from ..graph import EdgeKey
from ..problem import NetworkSolution, SolveStatus
from .backend import RawSolution
from .builder import ENERGY, MIN_ON_POWER_FRACTION, BuiltModel
from .ir import ModelIR

_BIN_TOL = 1e-6
_FLOW_TOL = 1e-6
_BOUND_TOL = 1e-6  # relative to the answer


def _bits(ir: ModelIR, values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``values[cols]`` as 0/1 flags; a value off an integer by over 1e-6 raises."""
    v = values[cols]
    off = np.abs(v - np.rint(v)) > _BIN_TOL
    if off.any():
        k = int(np.argmax(off))
        raise ExtractionMismatch(
            f"{ir.var_names[cols.flat[k]]}: binary value {v.flat[k]} "
            "not within 1e-6 of an integer"
        )
    return v > 0.5


def frontend_powers(built: BuiltModel, raw: RawSolution) -> dict[int, float]:
    """Effective transmit power of every frontend in a solved model, by id.

    Continuous powers under the model's minimum-on threshold mean "off"
    (they grant no ladder level) and are snapped to exactly zero.
    """
    reps = built.power_reps
    has = reps.level_col >= 0
    p = reps.lo.copy()  # a constant's power; 0 where level binaries or ptx give it
    on = _bits(built.ir, raw.values, reps.level_col[has])
    np.add.at(p, np.nonzero(has)[0], reps.level_mw[has] * on)
    cont = reps.cont >= 0
    pc = np.maximum(raw.values[reps.cont[cont]], 0.0)
    p[cont] = np.where(pc < MIN_ON_POWER_FRACTION * built.instance.radio.p_max_mw, 0.0, pc)
    return dict(zip(reps.col, p.tolist()))


def extract_solution(built: BuiltModel, raw: RawSolution) -> NetworkSolution:
    if raw.status is SolveStatus.INFEASIBLE:
        raise ModelInfeasible("HiGHS proved the model infeasible")
    if raw.values is None:
        raise BackendError(f"cannot extract from status {raw.status.value} without values")
    x, ir = raw.values, built.ir

    powers = frontend_powers(built, raw)
    if built.problem == ENERGY:
        act = built.power_reps.act
        on = np.zeros(len(act), dtype=bool)
        on[act >= 0] = _bits(ir, x, act[act >= 0])
    else:
        on = np.array(list(powers.values())) > 0
    activations = dict(zip(powers, on.astype(int).tolist()))

    # Flows and chosen edges.
    if built.problem == ENERGY:
        f = _bits(ir, x, built.flows).astype(float)
    else:
        f = x[built.flows]
        f = np.where(f >= _FLOW_TOL, f, 0.0)
    keys = [e.key for e in built.routing_wireless + built.routing_wired]
    flows: dict[int, dict[EdgeKey, float]] = {
        comm.id: {k: v for k, v in zip(keys, row) if v}
        for comm, row in zip(built.commodities, f.tolist())
    }
    used = (f != 0).any(axis=0).tolist()
    chosen = {k for k, u in zip(keys, used) if u}

    n_wl = len(built.routing_wireless)
    alpha, cap = x[built.v0].tolist(), x[built.v0 + 2].tolist()
    airtimes = {
        k: min(max(a, 0.0), 1.0) if u else 0.0 for k, a, u in zip(keys, alpha, used[:n_wl])
    }
    capacities = {k: max(c, 0.0) if u else 0.0 for k, c, u in zip(keys, cap, used[:n_wl])}

    # Ladder levels against a direct SINR recompute.  The solver may leave
    # an indicator at 0 despite a met threshold (a within-tolerance
    # violation on an unused edge, which only wastes capacity); granting a
    # level the physics denies is the bug this check exists to catch.
    inst = built.instance
    table = inst.capacity_table
    budgets = link_budgets(inst.graph, built.routing_wireless, inst.radio)(powers)
    ladder = np.arange(len(table.thresholds_linear))
    floor = built.floor[:, None]
    levels = (floor <= ladder) & (ladder < built.top[:, None])
    phi = np.zeros(levels.shape, dtype=bool)
    phi[levels] = _bits(ir, x, (built.v0[:, None] + 3 + ladder - floor)[levels])
    for e, f, t, bits in zip(
        built.routing_wireless, built.floor.tolist(), built.top.tolist(), phi.tolist()
    ):
        # The floor's levels hold only while the source transmits.
        model_count = f if powers[e.src] > 0 else 0
        for i, bit in enumerate(bits[f:t], start=f):
            if bit and model_count < i:
                raise ExtractionMismatch(f"phi chain broken on edge {e.key} at level {i}")
            model_count += bit
        granted = oracle.granted_levels(table, *budgets[e.key])
        if model_count > granted:
            raise ExtractionMismatch(
                f"edge {e.key}: model grants {model_count} ladder levels, "
                f"direct recompute grants {granted}"
            )

    per_ue: dict[int, float] = {}
    for comm in built.commodities:
        if built.problem == ENERGY:
            per_ue[comm.dest] = comm.demand_mbps
        else:
            per_ue[comm.dest] = sum(v for (_, dst), v in flows[comm.id].items() if dst == comm.dest)

    status = raw.status
    if status is SolveStatus.TIME_LIMIT:
        status = SolveStatus.FEASIBLE  # incumbent available

    solution = NetworkSolution(
        problem=built.problem,
        status=status,
        objective=raw.objective,
        chosen_edges=tuple(sorted(chosen)),
        flows=flows,
        airtimes=airtimes,
        powers_mw=powers,
        activations=activations,
        capacities_mbps=capacities,
        per_ue_mbps=per_ue,
        gap=raw.gap,
    )

    report = oracle.validate_solution(inst, solution)
    if not report.ok:
        summary = "; ".join(str(v) for v in report.violations[:8])
        raise ExtractionMismatch(f"solution failed re-validation: {summary}", report)
    # Report the objective the solution's own values give; the validator has
    # just checked HiGHS's value against it.
    solution.objective = report.recomputed_objective
    bound, z = built.bound, solution.objective
    excess = z - bound if ir.objective.sense == "max" else bound - z
    if excess > _BOUND_TOL * max(abs(z), 1.0):
        what = "network power" if built.problem == ENERGY else "min rate"
        raise ExtractionMismatch(f"{what} {z!r} beats the model's proven bound {bound!r}")
    return solution
