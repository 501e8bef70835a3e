"""Pluggable solve step; ships a HiGHS backend via scipy.optimize.milp."""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import warnings
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
    cutoff: float | None = None
    """Objective (model sense, constant included) a solution must strictly beat."""

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

try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C runtime reachable this way; fd 1 is left alone
    _LIBC = None


@contextlib.contextmanager
def _native_stdout_to_stderr():
    """Send what native code prints to file descriptor 1 to descriptor 2.

    HiGHS prints some debug lines with C ``printf``, past ``disp=False``
    and past ``sys.stdout`` (seen under an objective bound); they must not
    mix into a caller's standard output.  The C buffer is flushed on both
    sides of the switch, so each line lands where it was printed.
    """
    if _LIBC is None:
        yield
        return
    sys.stdout.flush()
    _LIBC.fflush(None)
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        _LIBC.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


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

    highs_options = {
        "disp": False,
        "presolve": options.presolve,
        "time_limit": options.time_limit_s,
        "mip_rel_gap": options.rel_gap,
    }
    if options.cutoff is not None:
        # HiGHS minimises c without the constant; scipy passes the option
        # through verbatim.
        bound = options.cutoff - ir.objective.constant
        highs_options["objective_bound"] = bound if minimize else -bound
    try:
        with warnings.catch_warnings(), _native_stdout_to_stderr():
            warnings.filterwarnings(
                "ignore", "Unrecognized options detected", RuntimeWarning
            )
            res = milp(
                c=c,
                constraints=constraints,
                integrality=integrality,
                bounds=Bounds(lb, ub),
                options=highs_options,
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


def beats(sense: str, objective: float, cutoff: float) -> bool:
    """Whether ``objective`` is strictly better than ``cutoff`` in ``sense``."""
    return objective < cutoff if sense == "min" else objective > cutoff


def solve(ir: ModelIR, options: SolverOptions | None = None, backend: Backend | None = None) -> RawSolution:
    """Run the model through a backend (default: scipy/HiGHS).

    Under ``options.cutoff`` a proven result that does not strictly beat
    the cutoff is ``CUTOFF``, without values: it means only that nothing
    beats the cutoff.  HiGHS reports that as "infeasible", or as "optimal"
    at a worse point (it also ignores the bound on pure LPs).
    """
    options = options or SolverOptions()
    raw = (backend or _scipy_backend)(ir, options)
    cutoff = options.cutoff
    if cutoff is None or raw.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
        return raw
    if raw.objective is not None and beats(ir.objective.sense, raw.objective, cutoff):
        return raw
    return RawSolution(SolveStatus.CUTOFF, None, None)
