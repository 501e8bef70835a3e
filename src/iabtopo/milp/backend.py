"""Pluggable solve step; ships a HiGHS backend via scipy.optimize.milp."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..errors import BackendError
from ..problem import SolveStatus
from .ir import ModelIR, Sense, VarKind


@dataclass(frozen=True)
class SolverOptions:
    time_limit_s: float = 60.0
    rel_gap: float = 0.0
    # The bundled HiGHS presolve returns wrong optima on some of these
    # big-M models (verified against pinned assignments); off by default.
    presolve: bool = False

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.rel_gap < 0:
            raise ValueError("rel_gap must be >= 0")


@dataclass
class RawSolution:
    status: SolveStatus
    values: np.ndarray | None
    objective: float | None
    gap: float = 0.0

    def value(self, idx: int) -> float:
        if self.values is None:
            raise BackendError("no incumbent values available")
        return float(self.values[idx])


Backend = Callable[[ModelIR, SolverOptions], RawSolution]


def _scipy_backend(ir: ModelIR, options: SolverOptions) -> RawSolution:
    n = ir.num_vars
    if n == 0:
        return RawSolution(SolveStatus.OPTIMAL, np.zeros(0), ir.objective.constant)

    minimize = ir.objective.sense == "min"
    c = np.zeros(n)
    for coeff, idx in ir.objective.terms:
        c[idx] += coeff if minimize else -coeff

    integrality = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    for v in ir.variables:
        lb[v.idx] = v.lb
        ub[v.idx] = v.ub
        if v.kind is VarKind.BINARY:
            integrality[v.idx] = 1

    constraints = []
    if ir.constraints:
        data, rows, cols = [], [], []
        c_lo = np.full(len(ir.constraints), -np.inf)
        c_hi = np.full(len(ir.constraints), np.inf)
        for r, con in enumerate(ir.constraints):
            for coeff, idx in con.terms:
                data.append(coeff)
                rows.append(r)
                cols.append(idx)
            if con.sense is Sense.LE:
                c_hi[r] = con.rhs
            elif con.sense is Sense.GE:
                c_lo[r] = con.rhs
            else:
                c_lo[r] = c_hi[r] = con.rhs
        a = sparse.csc_matrix((data, (rows, cols)), shape=(len(ir.constraints), n))
        constraints.append(LinearConstraint(a, c_lo, c_hi))

    try:
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options={
                "disp": False,
                "presolve": options.presolve,
                "time_limit": options.time_limit_s,
                "mip_rel_gap": options.rel_gap,
            },
        )
    except Exception as exc:  # scipy raises on malformed inputs only
        raise BackendError(f"milp backend failed: {exc}") from exc

    gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else 0.0
    if res.status == 0:
        # HiGHS's own verdict: optimal within its gap tolerances, which may
        # leave a gap above rel_gap; the gap travels with the solution.
        status = SolveStatus.OPTIMAL
    elif res.status == 1:
        status = SolveStatus.TIME_LIMIT
    elif res.status == 2:
        return RawSolution(SolveStatus.INFEASIBLE, None, None)
    else:
        raise BackendError(f"backend status {res.status}: {res.message}")

    values = None if res.x is None else np.asarray(res.x, dtype=float)
    objective = None
    if values is not None:
        raw = float(c @ values)
        objective = (raw if minimize else -raw) + ir.objective.constant
    return RawSolution(status, values, objective, gap)


def solve(ir: ModelIR, options: SolverOptions | None = None, backend: Backend | None = None) -> RawSolution:
    """Run the model through a backend (default: scipy/HiGHS)."""
    options = options or SolverOptions()
    backend = backend or _scipy_backend
    return backend(ir, options)
