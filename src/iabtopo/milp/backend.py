"""The solve step: HiGHS through the binding scipy bundles."""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsStatus,
    _Highs,
    cb,
    kHighsInf,
    kSolutionStatusFeasible,
)

from ..errors import BackendError
from ..problem import SolveStatus
from .ir import ModelIR


@dataclass(frozen=True)
class SolverOptions:
    time_limit_s: float = 60.0
    cutoff: float | None = None
    """Objective (model sense, constant included) a solution must strictly beat."""

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")


@dataclass
class RawSolution:
    status: SolveStatus
    values: np.ndarray | None
    objective: float | None
    gap: float = 0.0
    dropped: int = 0  # coefficients HiGHS dropped at load (below its small_matrix_value)


try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C runtime reachable this way; fd 1 is left alone
    _LIBC = None


@contextlib.contextmanager
def _native_stdout_to_stderr():
    """Send what native code prints to file descriptor 1 to descriptor 2.

    HiGHS prints some debug lines with C ``printf``, past ``disp=False``
    and past ``sys.stdout`` (feasibility jump can trigger one); they must
    not mix into a caller's standard output.  The C buffer is flushed
    on both sides of the switch, so each line lands where it was printed.
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


_MS = HighsModelStatus
# scipy.optimize.milp's status code for each HiGHS model status; any other is 4.
_SCIPY_STATUS = {
    _MS.kOptimal: 0,
    _MS.kTimeLimit: 1,
    _MS.kIterationLimit: 1,
    _MS.kInfeasible: 2,
    _MS.kModelError: 2,
    _MS.kUnbounded: 3,
}
_LIMITS = (_MS.kTimeLimit, _MS.kIterationLimit, _MS.kSolutionLimit)


def _reaches(objective: float, stop: float) -> bool:
    """Whether an incumbent's ``objective`` meets the proven bound ``stop`` (both minimised)."""
    return objective - stop <= 1e-9 * max(1.0, abs(stop))


def _load(highs, c, integrality, bounds, constraints) -> int | None:
    """Hand ``highs`` the model column-wise, minimised, with no offset.

    Returns how many matrix coefficients HiGHS dropped (those below its
    ``small_matrix_value``), or None when it refuses the model.
    """
    n = len(c)
    if constraints:
        (con,) = constraints
        a, row_lb, row_ub = con.A, con.lb, con.ub
    else:
        a, row_lb, row_ub = sparse.csc_matrix((0, n)), np.zeros(0), np.zeros(0)
    status = highs.passModel(
        n, a.shape[0], a.nnz, 1, 1, 0.0, c, bounds.lb, bounds.ub, row_lb, row_ub,
        a.indptr, a.indices, a.data, np.asarray(integrality, dtype=np.int32),
    )
    return None if status == HighsStatus.kError else a.nnz - highs.getNumNz()


def milp(c, *, integrality, bounds, constraints, options, seed=(), stop=None) -> OptimizeResult:
    """Minimise ``c @ x`` on a fresh HiGHS instance.

    Takes and returns what ``scipy.optimize.milp`` does for the arguments
    the backend uses (at most one ``LinearConstraint``; the options
    ``disp``, ``presolve`` and HiGHS option names) and answers as it does:
    the same status codes, ``x`` only at an optimum or, for a MIP, at a
    limit with an incumbent, and ``mip_*`` fields only for a MIP with
    ``x``.  It reads no basis or duals.  ``dropped`` is ``_load``'s count.

    ``seed`` (column indices and their values; scipy has no such
    argument) adds a first run on the same instance with each of those
    columns pinned at its value.  Its point, when it finds one, starts
    the full run (``setSolution``), and its seconds come out of
    ``time_limit``, so the full run gets what is left.  The answer is the
    full run's.

    ``stop`` (scipy has none either) is a proven bound on ``c @ x``.  A
    ``kCallbackMipInterrupt`` callback ends the run once the incumbent's
    objective is within 1e-9 relative of it (Land & Doig, Econometrica
    28, 1960); that run comes back optimal, with the gap and dual bound
    taken against ``stop``.  It reads the incumbent's objective, not
    ``mip_primal_bound``, which equals an ``objective_bound`` before any
    incumbent exists.  Any other interrupt stays status 4.
    """
    highs = _Highs()
    for key, value in options.items():
        if key == "disp":
            key = "log_to_console"
        elif key == "presolve":
            value = "on" if value else "off"
        if highs.setOptionValue(key, value) != HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={value!r}")
    dropped = _load(highs, c, integrality, bounds, constraints)
    loaded = dropped is not None
    if loaded and stop is not None:

        def interrupt(kind, message, out, data_in, user_data):
            data_in.user_interrupt = _reaches(out.objective_function_value, stop)

        highs.setCallback(interrupt, None)
        highs.startCallback(cb.HighsCallbackType.kCallbackMipInterrupt)
    if loaded and len(seed):
        cols, values = seed
        _start_from_seed(highs, np.asarray(cols, dtype=np.int32), values, bounds)
    ran = loaded and highs.run() != HighsStatus.kError
    # scipy reports a model HiGHS refuses to load as a model error.
    model_status = highs.getModelStatus() if loaded else _MS.kModelError
    info = highs.getInfo()
    # Only the callback interrupts, and only at an incumbent that meets the stop.
    stopped = model_status == _MS.kInterrupt and _reaches(info.objective_function_value, stop)
    if stopped:
        model_status = _MS.kOptimal
    res = OptimizeResult(
        status=_SCIPY_STATUS.get(model_status, 4),
        message=highs.modelStatusToString(model_status),
        x=None, mip_gap=None, mip_node_count=None, mip_dual_bound=None, dropped=dropped,
    )
    if not ran:
        return res
    is_mip = bool(np.any(integrality))
    if model_status == _MS.kOptimal or (
        is_mip and model_status in _LIMITS and info.objective_function_value != kHighsInf
    ):
        res.x = np.array(highs.getSolution().col_value)
        if is_mip:
            res.update(
                mip_gap=info.mip_gap,
                mip_node_count=info.mip_node_count,
                mip_dual_bound=info.mip_dual_bound,
            )
        if stopped:
            z = info.objective_function_value
            res.update(mip_gap=abs(z - stop) / max(1.0, abs(z)), mip_dual_bound=stop)
    return res


def _start_from_seed(highs, cols: np.ndarray, values: np.ndarray, bounds) -> None:
    """Run with each of ``cols`` pinned at its value; the run's point starts the next run.

    The next run gets the time limit less this run's seconds.
    """
    n = len(cols)
    highs.changeColsBounds(n, cols, values, values)
    ran = highs.run() != HighsStatus.kError
    start = highs.getSolution()
    highs.changeColsBounds(n, cols, bounds.lb[cols], bounds.ub[cols])
    _, limit = highs.getOptionValue("time_limit")
    highs.setOptionValue("time_limit", max(limit - highs.getRunTime(), 0.0))
    if ran and highs.getInfo().primal_solution_status == kSolutionStatusFeasible:
        highs.setSolution(start)


def _arrays(ir: ModelIR) -> dict:
    """``ir`` as ``backend.milp`` takes it: minimise ``c @ x`` (negated for a max, no constant)."""
    obj = ir.objective
    c = np.zeros(ir.num_vars)
    c[obj.cols] = obj.coefs if obj.sense == "min" else -obj.coefs
    constraints = []
    if ir.num_rows:
        rows, cols, coefs = ir.coo()
        a = sparse.csc_matrix((coefs, (rows, cols)), shape=(ir.num_rows, ir.num_vars))
        constraints.append(LinearConstraint(a, *ir.row_bounds()))
    return dict(
        c=c, constraints=constraints, integrality=ir.binary.astype(float),
        bounds=Bounds(ir.lb, ir.ub),
    )


def write_model(ir: ModelIR, path) -> None:
    """Write the model HiGHS holds for ``ir`` to ``path``, in the format of its suffix.

    It is loaded as for a solve, so the file holds what HiGHS minimises
    (``_arrays``) less the coefficients it drops at load, with the IR's
    column and row names.  HiGHS's LP reader takes the ``->`` in names
    such as ``w[1->20,l0]`` for indicator syntax, so only an ``.mps`` file
    reads back.  Any other suffix, or a path that cannot be opened, is a
    ``BackendError``.
    """
    if os.path.splitext(path)[1] not in (".lp", ".mps"):
        raise BackendError(f"{path}: the suffix must be .lp or .mps")
    try:  # HiGHS's LP writer crashes on a path it cannot open
        open(path, "w").close()
    except OSError as exc:
        raise BackendError(f"{path}: {exc.strerror}") from exc
    highs = _Highs()
    highs.setOptionValue("log_to_console", False)
    loaded = _load(highs, **_arrays(ir)) is not None
    for j, name in enumerate(ir.var_names):
        highs.passColName(j, name)
    for i, name in enumerate(ir.row_names):
        highs.passRowName(i, name)
    if not loaded or highs.writeModel(str(path)) == HighsStatus.kError:
        raise BackendError(f"{path}: HiGHS could not write the model")


def _scipy_backend(ir: ModelIR, options: SolverOptions) -> RawSolution:
    if ir.num_vars == 0:
        return RawSolution(SolveStatus.OPTIMAL, np.zeros(0), ir.objective.constant)

    minimize = ir.objective.sense == "min"
    arrays = _arrays(ir)
    highs_options = {
        "disp": False,
        # The bundled HiGHS presolve returns wrong optima on some of these
        # big-M models (verified against pinned assignments).
        "presolve": False,
        "time_limit": options.time_limit_s,
        "mip_rel_gap": 0.0,
    }

    def highs_sense(value):
        """``value`` (model sense, constant included) as HiGHS minimises c: no constant."""
        value -= ir.objective.constant
        return value if minimize else -value

    seed = ir.seed
    stop = None if ir.bound is None else highs_sense(ir.bound)
    if options.cutoff is not None:
        highs_options["objective_bound"] = highs_sense(options.cutoff)
        # Such a solve only asks whether anything beats the bound; HiGHS's
        # feasibility-jump heuristic, run before the root LP, costs more
        # than the rest of a small trial.  Other solves keep it: without it
        # some exact models return a tied optimum extraction rejects.  Nor
        # does it start from a seed: a start point proves nothing.
        highs_options["mip_heuristic_run_feasibility_jump"] = False
        seed = ()
    try:
        with _native_stdout_to_stderr():
            res = milp(**arrays, options=highs_options, seed=seed, stop=stop)
    except (TypeError, ValueError) as exc:  # malformed inputs or a rejected option
        raise BackendError(f"milp backend failed: {exc}") from exc

    gap = float(res.mip_gap) if getattr(res, "mip_gap", None) is not None else 0.0
    dropped = res.get("dropped") or 0
    if res.status == 0:
        # HiGHS's own verdict: optimal within its gap tolerances, which may
        # leave a gap above mip_rel_gap; the gap travels with the solution.
        status = SolveStatus.OPTIMAL
    elif res.status == 1:
        status = SolveStatus.TIME_LIMIT
    elif res.status == 2:
        return RawSolution(SolveStatus.INFEASIBLE, None, None, dropped=dropped)
    else:
        raise BackendError(f"backend status {res.status}: {res.message}")

    values = None if res.x is None else np.asarray(res.x, dtype=float)
    objective = None
    if values is not None:
        raw = float(arrays["c"] @ values)
        objective = (raw if minimize else -raw) + ir.objective.constant
    return RawSolution(status, values, objective, gap, dropped)


def beats(sense: str, objective: float, cutoff: float) -> bool:
    """Whether ``objective`` is strictly better than ``cutoff`` in ``sense``."""
    return objective < cutoff if sense == "min" else objective > cutoff


def solve(ir: ModelIR, options: SolverOptions | None = None) -> RawSolution:
    """Run the model through HiGHS.

    This is the one place a result is held to ``options.cutoff``: a
    result that does not strictly beat it comes back without values.  It
    is ``CUTOFF`` when proven, meaning only that nothing beats the cutoff
    (HiGHS reports that as "infeasible", or as "optimal" at a worse point;
    it also ignores the bound on pure LPs), and ``TIME_LIMIT`` when the
    time limit stopped it.
    """
    options = options or SolverOptions()
    cutoff = options.cutoff
    raw = _scipy_backend(ir, options)
    if cutoff is None or (
        raw.objective is not None and beats(ir.objective.sense, raw.objective, cutoff)
    ):
        return raw
    status = SolveStatus.TIME_LIMIT if raw.status is SolveStatus.TIME_LIMIT else SolveStatus.CUTOFF
    return RawSolution(status, None, None, dropped=raw.dropped)
