"""Experiment driver: scenario generation, solving, sweeps, reports, validation.

Emits plot-ready CSVs rather than figures.  Results CSV columns are
stable: hour,method,problem,status,objective,min_ue_mbps,
activated_frontends,p_total_w,eta_mbps_per_w,runtime_s.
Exit codes: 0 ok, 1 validation failure, 2 input error.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import click

from . import heuristics, milp, oracle
from .capacity import default_table, load_table
from .energy import energy_efficiency, total_power
from .errors import EmptyResults, IabError, ParseError
from .graph import Commodity, load_graph, save_graph
from .heuristics import PruneParams, SearchOptions, SearchState
from .problem import (
    ContinuousPower,
    DiscretePower,
    FixedPower,
    NetworkSolution,
    ProblemInstance,
    default_power_levels,
    load_solution,
    save_solution,
)
from .scenario import ScenarioConfig, config_from_json, generate, load_profile_csv

RESULT_COLUMNS = [
    "hour",
    "method",
    "problem",
    "status",
    "objective",
    "min_ue_mbps",
    "activated_frontends",
    "p_total_w",
    "eta_mbps_per_w",
    "runtime_s",
]

METHODS = ("local-search", "selective-reduction", "exact")
PROBLEMS = ("throughput", "energy")

# Fraction of the final objective an iterate must reach to count as
# "near final" in evolution reports.
NEAR_FINAL_FRACTION = 0.01


@click.group()
def main():
    """Access/backhaul tree optimization experiments."""


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_power_mode(name: str, problem: str, method: str) -> str:
    """The power mode a run uses when ``name`` is asked for.

    The energy model cannot keep powers continuous, so the exact model and
    selective reduction fall back to the discrete grid.  Local search keeps
    the mode asked for: every model it builds fixes each power or grids
    the one it frees.
    """
    if problem == "energy" and name == "continuous" and method != "local-search":
        return "discrete"
    return name


def _load_config(path, demand_mbps) -> ScenarioConfig:
    """``path``'s config (defaults without one); a given ``demand_mbps`` replaces its demand."""
    config = config_from_json(path) if path else ScenarioConfig()
    return config if demand_mbps is None else replace(config, demand_mbps=demand_mbps)


def _build_instance(graph, config, power_mode_name, levels, mcs_table):
    table = load_table(mcs_table) if mcs_table else default_table(
        config.radio.bandwidth_mhz, config.radio.mimo_layers
    )
    donor = graph.donor.id
    commodities = tuple(
        Commodity(i, donor, ue.id, config.demand_mbps) for i, ue in enumerate(graph.ues)
    )
    p_max = config.radio.p_max_mw
    if power_mode_name == "fixed-max":
        mode = FixedPower({n.id: p_max for n in graph.frontends})
    elif power_mode_name == "continuous":
        mode = ContinuousPower()
    elif power_mode_name == "discrete":
        mode = DiscretePower(default_power_levels(p_max, levels))
    else:
        raise ValueError(f"unknown power mode {power_mode_name!r}")
    return ProblemInstance(
        graph=graph,
        commodities=commodities,
        radio=config.radio,
        power_model=config.power_model,
        capacity_table=table,
        power_mode=mode,
    )


class _Real(click.FloatRange):
    """A float range that refuses NaN, and with ``finite`` also the infinities."""

    def __init__(self, finite: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.finite = finite

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv) or (self.finite and math.isinf(rv)):
            self.fail(f"{rv} is not a {'finite ' if self.finite else ''}number.", param, ctx)
        return rv


_POSITIVE = _Real(min=0.0, min_open=True)  # time budgets: inf means no limit
# Demand per UE: given, it replaces the config's demand_mbps; else the config decides.
_demand_flag = click.option("--demand-mbps", type=_Real(finite=True, min=0.0), default=None)


def _search_flags(command):
    """Declare the search flags; ``command`` gets ``options`` and ``prune`` instead."""

    @functools.wraps(command)
    def run(time_limit, global_budget, k0, k_max, levels, **kwargs):
        options = SearchOptions(
            solve_time_limit_s=time_limit, global_budget_s=global_budget, power_levels=levels
        )
        try:
            prune = PruneParams(k0=k0, k_max=k_max)
        except ValueError as exc:
            _fail(f"--k0 {k0} --k-max {k_max}: {exc}")
        return command(options=options, prune=prune, **kwargs)

    for flag in (
        click.option("--levels", type=click.IntRange(min=2), default=9, show_default=True),
        click.option("--k-max", type=int, default=10, show_default=True),
        click.option("--k0", type=int, default=5, show_default=True),
        click.option("--global-budget", type=_POSITIVE, default=2400.0, show_default=True),
        click.option("--time-limit", type=_POSITIVE, default=60.0, show_default=True),
    ):
        run = flag(run)
    return run


def _run_method(instance, method, problem, options, prune, built=None):
    """Returns (solution, state-or-None); ``exact`` solves ``built`` when given."""
    if method == "local-search":
        if problem == "throughput":
            return heuristics.local_search_throughput(instance, options)
        return heuristics.local_search_energy(instance, options)
    if method == "selective-reduction":
        solution, _k = heuristics.selective_reduction(instance, prune, problem, options)
        return solution, None
    built = built or milp.build(instance, problem)
    return milp.solve_extracted(built, options.solver()), None


def _record(hour, method, problem, solution, graph, power_model, runtime_s) -> dict:
    report = total_power(solution, power_model, graph)
    min_rate = solution.min_ue_mbps
    eta = (
        energy_efficiency(min_rate, report.total_w) if report.total_w > 0 else math.nan
    )
    return {
        "hour": hour,
        "method": method,
        "problem": problem,
        "status": solution.status.value,
        "objective": f"{solution.objective:.6f}",
        "min_ue_mbps": f"{min_rate:.6f}",
        "activated_frontends": solution.activated_count,
        "p_total_w": f"{report.total_w:.6f}",
        "eta_mbps_per_w": f"{eta:.6f}",
        "runtime_s": f"{runtime_s:.3f}",
    }


def _error_record(hour, method, problem, exc, runtime_s) -> dict:
    return {
        **dict.fromkeys(RESULT_COLUMNS, ""),
        "hour": hour,
        "method": method,
        "problem": problem,
        "status": f"error:{type(exc).__name__}",
        "runtime_s": f"{runtime_s:.3f}",
    }


# -- scenario-gen -----------------------------------------------------------


@main.command("scenario-gen")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--hour", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_scenario_gen(config_path, profile_path, hour, out_path):
    """Generate one hour's measurement graph to JSON."""
    try:
        config = config_from_json(config_path)
        profile = load_profile_csv(profile_path)
        graph, _ = generate(config, profile, hour)
    except IabError as exc:
        _fail(str(exc))
    save_graph(graph, out_path)
    click.echo(f"wrote {out_path}: {len(graph.nodes)} nodes, {len(graph.edges)} edges")


# -- solve -------------------------------------------------------------------


@main.command("solve")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--problem", type=click.Choice(PROBLEMS), required=True)
@click.option("--method", type=click.Choice(METHODS), default="local-search", show_default=True)
@_demand_flag
@click.option(
    "--power-mode",
    type=click.Choice(["fixed-max", "continuous", "discrete"]),
    default="continuous",
    show_default=True,
)
@click.option("--mcs-table", type=click.Path(exists=True), default=None)
@_search_flags
@click.option("--out-solution", type=click.Path(), default=None)
@click.option("--out-state", type=click.Path(), default=None)
@click.option("--lp-out", type=click.Path(), default=None)
def cmd_solve(
    graph_path,
    config_path,
    problem,
    method,
    demand_mbps,
    power_mode,
    mcs_table,
    options,
    prune,
    out_solution,
    out_state,
    lp_out,
):
    """Solve one problem on one graph file."""
    try:
        graph = load_graph(graph_path)
        build = functools.partial(
            _build_instance, graph, _load_config(config_path, demand_mbps),
            levels=options.power_levels, mcs_table=mcs_table,
        )
        instance = build(_resolve_power_mode(power_mode, problem, method))
        built = None
        if lp_out:  # the model --method exact would solve with these flags
            exact = build(_resolve_power_mode(power_mode, problem, "exact"))
            built = milp.build(exact, problem)
            milp.write_model(built.ir, lp_out)
    except IabError as exc:
        _fail(str(exc))

    start = time.monotonic()
    try:
        solution, state = _run_method(instance, method, problem, options, prune, built)
    except IabError as exc:
        _fail(str(exc), code=1)
    runtime = time.monotonic() - start
    click.echo(
        f"{problem}/{method}: status={solution.status.value} "
        f"objective={solution.objective:.6f} min_ue={solution.min_ue_mbps:.6f} "
        f"activated={solution.activated_count} runtime={runtime:.2f}s"
    )
    if out_solution:
        save_solution(solution, out_solution)
    if out_state and state is not None:
        state.write_csv(out_state)


# -- sweep --------------------------------------------------------------------


def _parse_hours(text: str) -> list[int]:
    """Hours of ``text``, a comma list of hours and ascending ranges ``lo-hi``."""
    hours: set[int] = set()
    for part in filter(None, (p.strip() for p in text.split(","))):
        lo, _, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            _fail(f"--hours {text!r}: {part!r} is not an hour or a range lo-hi")
        if lo > hi:
            _fail(f"--hours {text!r}: range {part!r} runs backwards")
        hours.update(range(lo, hi + 1))
    if not hours:
        _fail(f"--hours {text!r}: no hours given")
    return sorted(hours)


def _parse_names(text: str, allowed: tuple[str, ...], what: str) -> list[str]:
    names = sorted(n.strip() for n in text.split(",") if n.strip())
    for n in names:
        if n not in allowed:
            _fail(f"unknown {what} {n!r}")
    return names


def _sweep_one(
    config, profile, options, prune, task
) -> tuple[dict, NetworkSolution | None, SearchState | None]:
    """One ``task`` (hour, method, problem); returns (row, solution, search state)."""
    hour, method, problem = task
    start = time.monotonic()
    try:
        graph, _ = generate(config, profile, hour)
        mode = _resolve_power_mode("continuous", problem, method)
        instance = _build_instance(graph, config, mode, options.power_levels, None)
        solution, state = _run_method(instance, method, problem, options, prune)
    except Exception as exc:
        return _error_record(hour, method, problem, exc, time.monotonic() - start), None, None
    runtime = time.monotonic() - start
    row = _record(hour, method, problem, solution, graph, config.power_model, runtime)
    return row, solution, state


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--hours", default="0-23", show_default=True)
@click.option("--methods", default="local-search,selective-reduction", show_default=True)
@click.option("--problems", default="throughput", show_default=True)
@click.option("--seed", type=int, required=True)
@_demand_flag
@_search_flags
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out-dir", required=True, type=click.Path())
def cmd_sweep(
    config_path,
    profile_path,
    hours,
    methods,
    problems,
    seed,
    demand_mbps,
    options,
    prune,
    workers,
    out_dir,
):
    """Generate each hour, run every method/problem, write each row as it finishes.

    Tasks run in the row order of results.csv.  A task's row, solution
    JSON and search-state CSV are written once it and every task before it
    have finished, so an interrupted sweep keeps every finished row.  Each
    written row also prints one progress line to stderr.
    """
    tasks = list(itertools.product(
        _parse_hours(hours),
        _parse_names(methods, METHODS, "method"),
        _parse_names(problems, PROBLEMS, "problem"),
    ))
    try:
        config = replace(_load_config(config_path, demand_mbps), seed=seed)
        profile = load_profile_csv(profile_path)
    except IabError as exc:
        _fail(str(exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = functools.partial(_sweep_one, config, profile, options, prune)
    results_path = out / "results.csv"
    with (
        ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    ) as pool, open(results_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        fh.flush()
        outputs = pool.map(run, tasks) if pool else map(run, tasks)
        for (hour, method, problem), (row, solution, state) in zip(tasks, outputs):
            stem = f"hour{hour:03d}_{method}_{problem}"
            if solution is not None:
                save_solution(solution, out / f"{stem}_solution.json")
            if state is not None:
                state.write_csv(out / f"{stem}_state.csv")
            writer.writerow(row)
            fh.flush()
            click.echo(
                f"hour {hour} {method} {problem}: {row['status']} in {row['runtime_s']} s",
                err=True,
            )
    click.echo(f"wrote {results_path} ({len(tasks)} rows)")


# -- report -------------------------------------------------------------------


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cdf_points(values: list[float]) -> list[tuple[float, float]]:
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def evolution_stats(log: list[tuple[float, float]]) -> dict:
    """Initial/final objective, improvement %, and time to near-final.

    ``log`` is (timestamp_s, objective), in order.  Near-final is the
    first timestamp whose objective is within 1% of the final one; it is
    undefined (None) when the trace never improves.
    """
    if not log:
        raise EmptyResults("empty evolution log")
    initial = log[0][1]
    final = log[-1][1]
    improvement = (final - initial) / initial * 100.0 if initial else math.nan
    near_final = None
    if abs(final - initial) > 1e-12:
        for ts, obj in log:
            if abs(obj - final) <= NEAR_FINAL_FRACTION * abs(final):
                near_final = ts
                break
    return {
        "initial": initial,
        "final": final,
        "improvement_pct": improvement,
        "time_to_near_final_s": near_final,
        "total_time_s": log[-1][0],
    }


@main.command("report")
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--states-dir", type=click.Path(exists=True), default=None)
@click.option("--out-dir", required=True, type=click.Path())
def cmd_report(results_path, states_dir, out_dir):
    """Summarize a results CSV into plot-ready CDF/time-series/evolution CSVs."""
    with open(results_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            _fail(f"{results_path}: unexpected columns {reader.fieldnames}")
        rows = [r for r in reader]
    ok_rows = [r for r in rows if not r["status"].startswith("error")]
    if not rows:
        _fail("results file has no rows")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for problem, column, name, header in (
        ("throughput", "objective", "throughput_cdf.csv", "throughput_mbps"),
        ("energy", "eta_mbps_per_w", "eta_cdf.csv", "eta_mbps_per_w"),
    ):
        values = [float(r[column]) for r in ok_rows if r["problem"] == problem and r[column]]
        if values:
            cdf = ((f"{v:.6f}", f"{c:.6f}") for v, c in _cdf_points(values))
            _write_csv(out / name, [header, "cdf"], cdf)

    _write_csv(
        out / "activation_timeseries.csv",
        ["hour", "method", "problem", "activated_frontends"],
        ([r["hour"], r["method"], r["problem"], r["activated_frontends"]] for r in ok_rows),
    )

    if states_dir:
        evo_rows = []
        for state_path in sorted(Path(states_dir).glob("*_state.csv")):
            with open(state_path, newline="") as fh:
                reader = csv.DictReader(fh)
                log = [(float(r["timestamp_s"]), float(r["objective"])) for r in reader]
            if not log:
                continue
            stats = evolution_stats(log)
            near = stats["time_to_near_final_s"]
            evo_rows.append(
                [
                    state_path.name.replace("_state.csv", ""),
                    f"{stats['initial']:.2f}",
                    f"{stats['final']:.2f}",
                    f"{stats['improvement_pct']:.2f}",
                    "" if near is None else f"{near:.2f}",
                    f"{stats['total_time_s']:.2f}",
                ]
            )
        _write_csv(
            out / "evolution.csv",
            ["run", "initial", "final", "improvement_pct", "time_to_near_final_s", "total_time_s"],
            evo_rows,
        )

    click.echo(f"wrote report files to {out}")


# -- validate -----------------------------------------------------------------


@main.command("validate")
@click.option("--solution", "solution_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_demand_flag
@click.option("--mcs-table", type=click.Path(exists=True), default=None)
def cmd_validate(solution_path, graph_path, config_path, demand_mbps, mcs_table):
    """Re-validate a solution JSON against its graph; exit 0 iff clean."""
    try:
        graph = load_graph(graph_path)
        solution = load_solution(solution_path)
        referenced = set(solution.chosen_edges) | set(solution.airtimes) | set(
            solution.capacities_mbps
        )
        for per_edge in solution.flows.values():
            referenced |= set(per_edge)
        for (src, dst) in sorted(referenced):
            if graph.edge(src, dst) is None:
                raise ParseError(f"solution references edge {src}->{dst} not in graph")
        for fid in solution.powers_mw:
            if not graph.has_node(fid):
                raise ParseError(f"solution references unknown frontend {fid}")
        instance = _build_instance(
            graph, _load_config(config_path, demand_mbps), "fixed-max", 9, mcs_table
        )
    except IabError as exc:
        _fail(str(exc))
    report = oracle.validate_solution(instance, solution)
    if report.ok:
        click.echo("ok")
        sys.exit(0)
    for v in report.violations:
        click.echo(str(v))
    sys.exit(1)


if __name__ == "__main__":
    main()
