"""Two-phase local search and selective-reduction pruning.

Local search keeps every solve small by fixing frontend powers and only
moving one frontend per trial.  Every phase is the same sweep: pass over
the frontends in id order, try one move per frontend, and repeat passes
until one moves the objective by at most the tolerance (1e-6).  The
phases differ only in the move and in how far the cutoff sits from the
best objective:

- phase one toggles a frontend between 0 and full power, ties allowed:
  the cutoff is the tolerance worse than the best (a ``FixedPower``
  instance keeps its powers, so no phase moves a frontend);
- a certify pass repeats the toggles with the cutoff the tolerance better
  than the best, so its last clean pass proves no single on/off flip
  improves the phase-one powers;
- phase two frees one frontend's power at a time, cutoff the tolerance
  better; a freed power counts only if, fixed, it beats the cutoff too;
- energy refinement frees one frontend on a power grid, cutoff the
  tolerance better (lower).

One rule decides a move: a trial is solved against its cutoff, and the
move is taken exactly when the solve returns values (a phase-two trial
that does adds one fixed-power solve).  A trial whose proven bound
(``milp.model_bound``, asked before the build) does not beat the cutoff
is rejected unbuilt; otherwise ``milp.solve`` alone holds the result to
the cutoff: one that does not strictly beat it, proven or stopped by the
time limit, has no values.  Objectives are compared only through the
cutoff, so last-bit differences between HiGHS answers move no decision.
Trials are never extracted; the final solve of the best powers and every
selective-reduction solve go through ``milp.solve_extracted``, which
returns only a re-validated answer.

Selective reduction shrinks the routing edge set to each receiver's top-k
ranked incoming links and re-solves the exact model, widening k while
HiGHS proves it infeasible (extraction raises ``ModelInfeasible``) or, for
throughput, while some UE has no donor path that carries a rate.
Interference always accumulates over the full graph, so a pruned-feasible
solution stays feasible unpruned.  For throughput it
first runs the throughput search once on the unpruned instance, and
every k's exact model starts from the search's powers.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from . import milp
from .channel import RadioParams, serving_gains_dbi
from .errors import DemandExceedsMaxMin, ModelInfeasible, NoFeasibleStart, NoFeasibleWithinKmax
from .graph import Edge, MeasurementGraph, build_graph
from .milp import SolverOptions
from .problem import (
    DiscretePower,
    FixedPower,
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
    power_levels: int = 9  # grid size for the energy refinement sweeps

    def solver(
        self, remaining_s: float | None = None, cutoff: float | None = None
    ) -> SolverOptions:
        limit = self.solve_time_limit_s
        if remaining_s is not None:
            limit = max(min(limit, remaining_s), 0.05)
        return SolverOptions(time_limit_s=limit, cutoff=cutoff)


@dataclass(frozen=True)
class PruneParams:
    k0: int = 5
    k_max: int = 10

    def __post_init__(self):
        if not 1 <= self.k0 <= self.k_max:
            raise ValueError("need 1 <= k0 <= k_max")


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


# Objective (None without one) and every frontend's power of one solve.
_Solved = tuple[float | None, dict[int, float]]
_REJECTED: _Solved = (None, {})


def _memo_solve(problem: str, options: SearchOptions, clock: _Clock) -> Callable[..., _Solved]:
    """Build and solve a ``problem`` trial model against the caller's ``cutoff``.

    Each (instance, fixed powers) keeps one number, the value no point of
    the trial beats.  It starts at the model's proven bound, asked of
    ``milp.model_bound`` before any build, and only tightens with proven
    solves: to the optimum, to the cutoff it did not beat, or to the worst
    value if the trial is infeasible.  A call whose cutoff that value does
    not beat is rejected unbuilt; every other call builds and solves, and
    no model outlives its solve.
    """
    unbeaten: dict[tuple, float] = {}
    sense, worse = ("max", min) if problem == milp.THROUGHPUT else ("min", max)

    def solve(
        model: ProblemInstance, fixed: dict[int, float], cutoff: float | None = None
    ) -> _Solved:
        key = (id(model), tuple(sorted(fixed.items())))
        if key not in unbeaten:
            unbeaten[key] = milp.model_bound(model, problem, fixed)
        if cutoff is not None and not milp.beats(sense, unbeaten[key], cutoff):
            return _REJECTED
        built = milp.build(model, problem, fixed)
        raw = milp.solve(built.ir, options.solver(clock.remaining(), cutoff))
        # A call that reaches here has a value that beats its cutoff, so a
        # cutoff it did not beat is tighter; an optimum may sit a solver
        # tolerance past the bound.
        if raw.status is SolveStatus.OPTIMAL:
            unbeaten[key] = worse(unbeaten[key], raw.objective)
        elif raw.status is SolveStatus.CUTOFF:
            unbeaten[key] = cutoff
        elif raw.status is SolveStatus.INFEASIBLE:
            unbeaten[key] = -math.inf if sense == "max" else math.inf
        if raw.values is None:
            return _REJECTED
        return raw.objective, milp.frontend_powers(built, raw)

    return solve


def _sweep(
    state: SearchState,
    frontends: list[int],
    clock: _Clock,
    iteration: int,
    trial: Callable[[int, float], _Solved],
    offset: float,
) -> int:
    """Pass over ``frontends`` until a pass moves the objective by at most 1e-6.

    ``trial(u, cutoff)`` solves the model of one move of frontend ``u``
    against ``cutoff``, the best objective plus ``offset``; a move whose
    solve beats it is taken, with ``u``'s power from that solution.
    Returns the iteration count, advanced by one per trial.
    """
    while not clock.expired():
        start = state.curr_best_obj
        for u in frontends:
            if clock.expired():
                break
            z, powers = trial(u, state.curr_best_obj + offset)
            iteration += 1
            if z is not None:
                state.curr_best_sol[u] = powers[u]
                state.curr_best_obj = z
                state.record(iteration, clock.elapsed(), z)
        if abs(state.curr_best_obj - start) <= _IMPROVE_TOL:
            break
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
    problem: str, instance: ProblemInstance,
    options: SearchOptions, clock: _Clock, state: SearchState, iteration: int,
) -> tuple[NetworkSolution, SearchState]:
    """The solution of a full-budget fixed-power solve of the best powers.

    It is solved even when the sweep budget ran dry.
    """
    built = milp.build(instance, problem, state.curr_best_sol)
    solution = milp.solve_extracted(built, options.solver())
    state.curr_best_obj = solution.objective
    state.record(iteration + 1, clock.elapsed(), solution.objective)
    return solution, state


def _throughput_search(
    instance: ProblemInstance, options: SearchOptions, clock: _Clock
) -> tuple[SearchState, int]:
    """Phase one, certify and phase two; returns the state and iteration count."""
    # "Full power" and the phase-2 refinement domain follow the instance's
    # power mode, so the search never leaves the declared power space: a
    # fixed mode starts at its powers and moves no frontend.
    mode = instance.power_mode
    fixed = isinstance(mode, FixedPower)
    p_max = max(mode.levels_mw) if isinstance(mode, DiscretePower) else instance.radio.p_max_mw
    frontends = sorted(n.id for n in instance.graph.frontends)
    powers = {u: mode.powers_mw[u] if fixed else p_max for u in frontends}
    movable = [] if fixed else frontends

    solve = _memo_solve(milp.THROUGHPUT, options, clock)
    state = _start(solve(instance, powers)[0], powers, clock, "initial all-on solve")

    def toggle(u: int, cutoff: float) -> _Solved:
        trial = dict(state.curr_best_sol)
        trial[u] = p_max if trial[u] == 0 else 0.0
        return solve(instance, trial, cutoff)

    iteration = _sweep(state, movable, clock, 0, toggle, -_IMPROVE_TOL)
    iteration = _sweep(state, movable, clock, iteration, toggle, _IMPROVE_TOL)
    state.phase1_powers = dict(state.curr_best_sol)

    # Phase 2 frees one power in the instance's own mode: continuous in
    # [0, p_max], or its grid.  A one-free answer counts only if its
    # power, fixed, beats the cutoff too: the final solve fixes every
    # power, so the best objective is that model's value.
    def free(u: int, cutoff: float) -> _Solved:
        z, powers = solve(instance, _one_free(state, u), cutoff)
        if z is None:
            return _REJECTED
        z, _ = solve(instance, {**state.curr_best_sol, u: powers[u]}, cutoff)
        return _REJECTED if z is None else (z, powers)

    iteration = _sweep(state, movable, clock, iteration, free, _IMPROVE_TOL)
    return state, iteration


def local_search_throughput(
    instance: ProblemInstance, options: SearchOptions | None = None
) -> tuple[NetworkSolution, SearchState]:
    """Iterated on/off toggling plus one-at-a-time continuous power refinement."""
    options = options or SearchOptions()
    clock = _Clock(options.global_budget_s)
    state, iteration = _throughput_search(instance, options, clock)
    return _finish(milp.THROUGHPUT, instance, options, clock, state, iteration)


def local_search_energy(
    instance: ProblemInstance, options: SearchOptions | None = None
) -> tuple[NetworkSolution, SearchState]:
    """Throughput search for a power seed, then energy refinement, on one clock."""
    options = options or SearchOptions()
    clock = _Clock(options.global_budget_s)
    tput_state, _ = _throughput_search(instance, options, clock)
    z = tput_state.curr_best_obj
    for comm in instance.commodities:
        if comm.demand_mbps > 0 and comm.demand_mbps >= z:
            raise DemandExceedsMaxMin(
                f"demand {comm.demand_mbps} Mbps >= reachable max-min rate {z}"
            )

    frontends = sorted(n.id for n in instance.graph.frontends)
    if isinstance(instance.power_mode, DiscretePower):
        levels = instance.power_mode.levels_mw
    else:
        levels = default_power_levels(instance.radio.p_max_mw, options.power_levels)
    gridded = instance.with_power_mode(DiscretePower(levels))

    solve = _memo_solve(milp.ENERGY, options, clock)
    powers = tput_state.curr_best_sol
    state = _start(
        solve(instance, powers)[0], powers, clock, "energy solve at throughput powers"
    )

    iteration = _sweep(
        state, frontends, clock, 0,
        lambda u, cutoff: solve(gridded, _one_free(state, u), cutoff), -_IMPROVE_TOL,
    )
    return _finish(milp.ENERGY, instance, options, clock, state, iteration)


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


def prune_graph(graph: MeasurementGraph, k: int, radio_params: RadioParams) -> MeasurementGraph:
    """Keep each node's k best-ranked incoming wireless edges (wired survive)."""
    if k < 1:
        raise ValueError("retention count must be >= 1")
    ranked = rank_edges(graph, radio_params)
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
) -> tuple[NetworkSolution, int]:
    """Solve the exact model on a top-k pruned edge set, widening k on infeasibility.

    A k whose throughput rate bound is 0 (Z = 0 feasible, but a UE
    without a donor path that carries a rate) is widened without a build.

    For throughput with free powers, the throughput search runs first on
    the unpruned instance, on the same clock, and each exact model starts
    from its powers (``milp.build(..., start=)``); without a feasible
    start point the exact models keep their all-max seed.

    Returns the solution and the retention count that produced it.  The
    solution is extracted against the unpruned instance, so extraction's
    oracle check covers the full graph (the model's interference terms
    already span it).
    """
    if problem_kind not in (milp.THROUGHPUT, milp.ENERGY):
        raise ValueError(f"unknown problem kind {problem_kind!r}")
    options = options or SearchOptions()
    clock = _Clock(options.global_budget_s)
    start = None
    if problem_kind == milp.THROUGHPUT and not isinstance(instance.power_mode, FixedPower):
        try:
            start = _throughput_search(instance, options, clock)[0].curr_best_sol
        except NoFeasibleStart:
            pass

    for k in range(prune_params.k0, prune_params.k_max + 1):
        pruned = prune_graph(instance.graph, k, instance.radio)
        retained = [e.key for e in pruned.edges]
        if (
            problem_kind == milp.THROUGHPUT
            and milp.model_bound(instance, problem_kind, routing_edges=retained) == 0.0
        ):
            continue  # some UE has no donor path that carries a rate
        built = milp.build(instance, problem_kind, routing_edges=retained, start=start)
        try:
            return milp.solve_extracted(built, options.solver(clock.remaining())), k
        except ModelInfeasible:
            continue
    raise NoFeasibleWithinKmax(
        f"infeasible for every retention count in [{prune_params.k0}, {prune_params.k_max}]"
    )
