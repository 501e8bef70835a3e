"""Two-phase local search and selective-reduction pruning.

Local search keeps every solve small by fixing frontend powers and only
moving one frontend per trial.  Every phase is the same sweep: pass over
the frontends in id order, try one move per frontend, take it when an
acceptance rule holds, and repeat passes until one leaves the objective
unchanged.  The phases differ only in the move and the rule:

- phase one toggles a frontend between 0 and full power, ties allowed;
- a certify pass repeats the toggles under strict gain, so its last clean
  pass proves no single on/off flip improves the phase-one powers;
- phase two frees one frontend's power at a time, strict gain;
- energy refinement frees one frontend on a power grid, strict decrease.

The strict sweeps only need to know whether a trial beats the best
objective by the acceptance tolerance, so they solve each trial against an
objective cutoff half that tolerance past the best: a trial that ties the
best is pruned inside HiGHS, and no accepted trial sits near the cutoff.
A ``CUTOFF`` result means only that nothing beats the cutoff; it is a
rejection, never an optimum.  A trial that beats the cutoff is solved again
without it on the same model, so the search sees the same objectives and
powers as without a cutoff.  Phase one keeps full solves: it must see ties.

Selective reduction shrinks the routing edge set to each receiver's top-k
ranked incoming links and re-solves the exact model, widening k until
feasible.  Interference always accumulates over the full graph, so a
pruned-feasible solution stays feasible unpruned.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Callable

from . import milp, oracle
from .channel import RadioParams, serving_gains_dbi
from .errors import (
    BackendError,
    DemandExceedsMaxMin,
    NoFeasibleStart,
    NoFeasibleWithinKmax,
)
from .graph import Edge, MeasurementGraph, build_graph
from .milp import SolverOptions
from .problem import (
    ContinuousPower,
    DiscretePower,
    NetworkSolution,
    ProblemInstance,
    SolveStatus,
    default_power_levels,
)

_IMPROVE_TOL = 1e-6


@dataclass(frozen=True)
class SearchOptions:
    solve_time_limit_s: float = 60.0
    global_budget_s: float = 2400.0
    rel_gap: float = 0.0
    power_levels: int = 9  # grid size for the energy refinement sweeps

    def solver(
        self, remaining_s: float | None = None, cutoff: float | None = None
    ) -> SolverOptions:
        limit = self.solve_time_limit_s
        if remaining_s is not None:
            limit = max(min(limit, remaining_s), 0.05)
        return SolverOptions(time_limit_s=limit, rel_gap=self.rel_gap, cutoff=cutoff)


@dataclass(frozen=True)
class PruneParams:
    k0: int = 5
    k_max: int = 10
    step: int = 1

    def __post_init__(self):
        if not 1 <= self.k0 <= self.k_max:
            raise ValueError("need 1 <= k0 <= k_max")
        if self.step < 1:
            raise ValueError("step must be >= 1")


@dataclass
class LogEntry:
    iteration: int
    timestamp_s: float
    objective: float


@dataclass
class SearchState:
    """Best-so-far powers and the accepted-objective trace of one run."""

    curr_best_sol: dict[int, float]
    curr_best_obj: float
    log: list[LogEntry] = field(default_factory=list)
    phase1_powers: dict[int, float] | None = None

    def record(self, iteration: int, timestamp_s: float, objective: float) -> None:
        self.log.append(LogEntry(iteration, timestamp_s, objective))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "timestamp_s", "objective"])
            for entry in self.log:
                writer.writerow(
                    [entry.iteration, f"{entry.timestamp_s:.6f}", repr(entry.objective)]
                )


class _Clock:
    def __init__(self, budget_s: float):
        self.t0 = time.monotonic()
        self.budget_s = budget_s

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def remaining(self) -> float:
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0


def _objective_of(raw: milp.RawSolution) -> float | None:
    return None if raw.values is None else raw.objective


# Acceptance rules: (trial objective, best objective) -> take the move.
def _tie_or_gain(z: float, best: float) -> bool:
    return z >= best


def _strict_gain(z: float, best: float) -> bool:
    return z > best + _IMPROVE_TOL


def _strict_decrease(z: float, best: float) -> bool:
    return z < best - _IMPROVE_TOL


# Cutoffs of the strict rules, half their tolerance past the best objective.
def _above(state: SearchState) -> float:
    return state.curr_best_obj + _IMPROVE_TOL / 2


def _below(state: SearchState) -> float:
    return state.curr_best_obj - _IMPROVE_TOL / 2


# Objective (None without one) and every frontend's power of one solve.
_Solved = tuple[float | None, dict[int, float]]
_REJECTED: _Solved = (None, {})


def _memo_solve(
    build: Callable[..., milp.BuiltModel], options: SearchOptions, clock: _Clock
) -> Callable[..., _Solved]:
    """``build`` and solve a trial model, once per (instance, fixed powers).

    Only proven results (optimal or infeasible) are remembered, so a
    time-limited incumbent is never reused.  No model outlives its solve.

    With a ``cutoff``, a trial nothing beats is rejected and its key kept
    with that cutoff, so a repeat under a cutoff no looser needs no build;
    any other answer is solved again without the cutoff on the same model.
    """
    seen: dict[tuple, _Solved] = {}
    rejected: dict[tuple, tuple[str, float]] = {}  # key -> (sense, cutoff)

    def solve(
        model: ProblemInstance, fixed: dict[int, float], cutoff: float | None = None
    ) -> _Solved:
        key = (id(model), tuple(sorted(fixed.items())))
        if key in seen:
            return seen[key]
        if cutoff is not None and key in rejected:
            sense, old = rejected[key]
            if not milp.beats(sense, old, cutoff):
                return _REJECTED
        built = build(model, fixed_powers=fixed)
        if cutoff is not None:
            raw = milp.solve(built.ir, options.solver(clock.remaining(), cutoff))
            if raw.status is SolveStatus.CUTOFF:
                rejected[key] = (built.ir.objective.sense, cutoff)
                return _REJECTED
        raw = milp.solve(built.ir, options.solver(clock.remaining()))
        z = _objective_of(raw)
        powers = {} if z is None else {
            fid: milp.frontend_power(built, raw, fid) for fid in built.power_reps
        }
        if raw.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
            seen[key] = (z, powers)
        return z, powers

    return solve


def _sweep(
    state: SearchState,
    frontends: list[int],
    clock: _Clock,
    iteration: int,
    trial: Callable[[int], _Solved],
    accept: Callable[[float, float], bool],
) -> int:
    """Pass over ``frontends`` until a pass leaves the objective unchanged.

    ``trial(u)`` solves the model of one move of frontend ``u``; an
    accepted move takes ``u``'s power from that solution.  Returns the
    iteration count, advanced by one per trial.
    """
    prev = None
    while state.curr_best_obj != prev and not clock.expired():
        prev = state.curr_best_obj
        for u in frontends:
            if clock.expired():
                break
            z, powers = trial(u)
            iteration += 1
            if z is not None and accept(z, state.curr_best_obj):
                state.curr_best_sol[u] = powers[u]
                state.curr_best_obj = z
                state.record(iteration, clock.elapsed(), z)
    return iteration


def _one_free(state: SearchState, u: int) -> dict[int, float]:
    return {v: p for v, p in state.curr_best_sol.items() if v != u}


def _start(
    obj: float | None, powers: dict[int, float], clock: _Clock, what: str
) -> SearchState:
    if obj is None:
        raise NoFeasibleStart(f"{what} found no solution")
    state = SearchState(curr_best_sol=dict(powers), curr_best_obj=obj)
    state.record(0, clock.elapsed(), obj)
    return state


def _finish(
    state: SearchState,
    clock: _Clock,
    iteration: int,
    built: milp.BuiltModel,
    raw: milp.RawSolution,
    what: str,
) -> tuple[NetworkSolution, SearchState]:
    if _objective_of(raw) is None:
        raise BackendError(f"final {what} solve ended {raw.status.value}")
    solution = milp.extract_solution(built, raw)
    state.curr_best_obj = solution.objective
    state.record(iteration + 1, clock.elapsed(), solution.objective)
    return solution, state


def _throughput_search(
    instance: ProblemInstance, options: SearchOptions, clock: _Clock
) -> tuple[SearchState, int]:
    """Phase one, certify and phase two; returns the state and iteration count."""
    frontends = sorted(n.id for n in instance.graph.frontends)
    # "Full power" and the phase-2 refinement domain follow the instance's
    # power mode, so the search never leaves the declared power space.
    discrete = isinstance(instance.power_mode, DiscretePower)
    p_max = max(instance.power_mode.levels_mw) if discrete else instance.radio.p_max_mw
    refine = instance if discrete else instance.with_power_mode(ContinuousPower())

    solve = _memo_solve(milp.build_throughput_model, options, clock)
    powers = {u: p_max for u in frontends}
    state = _start(solve(instance, powers)[0], powers, clock, "initial all-on solve")

    def toggle(u: int, cutoff: float | None = None):
        trial = dict(state.curr_best_sol)
        trial[u] = p_max if trial[u] == 0 else 0.0
        return solve(instance, trial, cutoff)

    # Phase one must see ties, so only the strict sweeps get a cutoff.
    iteration = _sweep(state, frontends, clock, 0, toggle, _tie_or_gain)
    iteration = _sweep(
        state, frontends, clock, iteration,
        lambda u: toggle(u, _above(state)), _strict_gain,
    )
    state.phase1_powers = dict(state.curr_best_sol)
    # Phase 2 is continuous in [0, p_max] unless the instance itself
    # restricts powers to a grid.
    iteration = _sweep(
        state, frontends, clock, iteration,
        lambda u: solve(refine, _one_free(state, u), _above(state)), _strict_gain,
    )
    return state, iteration


def local_search_throughput(
    instance: ProblemInstance, options: SearchOptions | None = None
) -> tuple[NetworkSolution, SearchState]:
    """Iterated on/off toggling plus one-at-a-time continuous power refinement."""
    options = options or SearchOptions()
    clock = _Clock(options.global_budget_s)
    state, iteration = _throughput_search(instance, options, clock)
    # The returned solution always comes from a full-budget fixed-power
    # solve, even when the sweep budget ran dry.
    built = milp.build_throughput_model(instance, fixed_powers=state.curr_best_sol)
    raw = milp.solve(built.ir, options.solver())
    return _finish(state, clock, iteration, built, raw, "fixed-power")


def local_search_energy(
    instance: ProblemInstance, options: SearchOptions | None = None
) -> tuple[NetworkSolution, SearchState]:
    """Throughput search for a power seed, then energy refinement sweeps."""
    options = options or SearchOptions()
    tput_state, _ = _throughput_search(instance, options, _Clock(options.global_budget_s))
    z = tput_state.curr_best_obj
    for comm in instance.commodities:
        if comm.demand_mbps > 0 and comm.demand_mbps >= z:
            raise DemandExceedsMaxMin(
                f"demand {comm.demand_mbps} Mbps >= reachable max-min rate {z}"
            )

    clock = _Clock(options.global_budget_s)
    frontends = sorted(n.id for n in instance.graph.frontends)
    if isinstance(instance.power_mode, DiscretePower):
        levels = instance.power_mode.levels_mw
    else:
        levels = default_power_levels(instance.radio.p_max_mw, options.power_levels)
    gridded = instance.with_power_mode(DiscretePower(levels))

    solve = _memo_solve(milp.build_energy_model, options, clock)
    powers = tput_state.curr_best_sol
    state = _start(
        solve(instance, powers)[0], powers, clock, "energy solve at throughput powers"
    )

    iteration = _sweep(
        state, frontends, clock, 0,
        lambda u: solve(gridded, _one_free(state, u), _below(state)), _strict_decrease,
    )

    built = milp.build_energy_model(instance, fixed_powers=state.curr_best_sol)
    raw = milp.solve(built.ir, options.solver())
    return _finish(state, clock, iteration, built, raw, "energy")


# -- selective reduction -------------------------------------------------------


def rank_edges(graph: MeasurementGraph, radio_params) -> list[Edge]:
    """Wireless edges sorted by gain minus pathloss, best first.

    Ties break on (src, dst) ascending so rankings are input-order
    invariant.
    """

    def metric(e: Edge) -> float:
        g_tx, g_rx = serving_gains_dbi(graph, e, radio_params)
        return g_tx + g_rx - e.pathloss_db

    return sorted(graph.wireless_edges, key=lambda e: (-metric(e), e.src, e.dst))


def prune_graph(graph: MeasurementGraph, k: int, radio_params=None) -> MeasurementGraph:
    """Keep each node's k best-ranked incoming wireless edges (wired survive)."""
    if k < 1:
        raise ValueError("retention count must be >= 1")
    ranked = rank_edges(graph, radio_params or RadioParams())
    kept: list[Edge] = list(graph.wired_edges)
    per_node: dict[int, int] = {}
    for e in ranked:
        if per_node.get(e.dst, 0) < k:
            kept.append(e)
            per_node[e.dst] = per_node.get(e.dst, 0) + 1
    kept.sort(key=lambda e: (e.src, e.dst))
    return build_graph(graph.nodes, kept)


def selective_reduction(
    instance: ProblemInstance,
    prune_params: PruneParams,
    problem_kind: str,
    options: SearchOptions | None = None,
    radio_params=None,
) -> tuple[NetworkSolution, int]:
    """Solve the exact model on a top-k pruned edge set, widening k on infeasibility.

    Returns the solution and the retention count that produced it.  The
    solution is re-validated against the unpruned instance (the model's
    interference terms already span the full graph).
    """
    if problem_kind not in (milp.THROUGHPUT, milp.ENERGY):
        raise ValueError(f"unknown problem kind {problem_kind!r}")
    options = options or SearchOptions()
    clock = _Clock(options.global_budget_s)

    k = prune_params.k0
    while k <= prune_params.k_max:
        pruned = prune_graph(instance.graph, k, radio_params or instance.radio)
        retained = [e.key for e in pruned.edges]
        if problem_kind == milp.THROUGHPUT:
            built = milp.build_throughput_model(instance, routing_edges=retained)
        else:
            built = milp.build_energy_model(instance, routing_edges=retained)
        raw = milp.solve(built.ir, options.solver(clock.remaining()))
        if raw.status is SolveStatus.INFEASIBLE:
            k += prune_params.step
            continue
        if raw.values is None:
            raise BackendError(f"pruned solve at k={k} ended {raw.status.value}")
        solution = milp.extract_solution(built, raw)
        report = oracle.validate_solution(instance, solution)
        if not report.ok:
            raise BackendError(
                f"pruned solution invalid in full graph: {report.violations[:4]}"
            )
        return solution, k
    raise NoFeasibleWithinKmax(
        f"infeasible for every retention count in [{prune_params.k0}, {prune_params.k_max}]"
    )
