"""The four pinned workloads: their tasks, how each task runs, and the outside checks.

The demo workloads drive ``iabtopo sweep`` in-process, one call per
(hour, method, problem), with every sweep option pinned, so a change of a
CLI default cannot change the workload.  ``oracle-xcheck`` solves small
generated instances exactly and cross-checks them against brute force.
Each local-search workload also solves one small instance exactly for the
problem it does not sweep, so that both quality metrics come from a task
that optimises them.

Every input is generated from scenario seed 5, the ROADMAP's pinned
workload: a different scenario seed changes the MILPs' difficulty by
multiples (the demo's hour 9 runs for minutes and ends on a time limit),
which no bound on a run-to-run spread could absorb.  The run seed only
shuffles the order the tasks run in.

Checks run after the timed region and never through the traced wrappers'
counts: every returned solution is re-validated on the unpruned instance
with ``oracle.validate_solution``, and on ``oracle-xcheck`` the MILP and
brute-force optima must agree.
"""

from __future__ import annotations

import csv
import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

from iabtopo import cli, milp, oracle, scenario
from iabtopo.capacity import default_table
from iabtopo.energy import total_power
from iabtopo.errors import NoFeasible
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph
from iabtopo.problem import DiscretePower, ProblemInstance, load_solution

SCENARIO_SEED = 5
DEMO_CONFIG = "demo/scenario_config.json"
DEMO_PROFILE = "demo/weekly_load_profile.csv"
DEMAND_MBPS = 5.0

# The sweep options at their documented defaults, spelled out.
SWEEP_OPTIONS = (
    "--seed", str(SCENARIO_SEED),
    "--demand-mbps", str(DEMAND_MBPS),
    "--time-limit", "60",
    "--global-budget", "2400",
    "--k0", "5",
    "--k-max", "10",
    "--levels", "9",
    "--workers", "1",
)

# oracle-xcheck: 3 units x 2 sectors and 3 UEs (one UE per unit at full
# load on 0.25 km^2), the ladder thinned to every fifth step, powers
# {0, p_max} and 2 Mbps per UE.  Instance i is generated as "hour" i.
XCHECK_INSTANCES = 6
XCHECK_CONFIG = scenario.ScenarioConfig(
    area_km2=0.25,
    lambda_gnb=12.0,
    sectors_per_unit=2,
    l_ue_per_gnb=1.0,
    seed=SCENARIO_SEED,
    demand_mbps=2.0,
)
REL_TOL = 1e-6


@dataclass(frozen=True)
class SweepTask:
    hour: int
    method: str
    problem: str

    @property
    def id(self) -> str:
        return f"hour{self.hour:03d}_{self.method}_{self.problem}"


@dataclass(frozen=True)
class ExactTask:
    """One problem solved exactly on oracle-xcheck's instance ``index``."""

    index: int
    problem: str

    @property
    def id(self) -> str:
        return f"exact{self.index:02d}_{self.problem}"


@dataclass(frozen=True)
class XcheckTask:
    index: int

    @property
    def id(self) -> str:
        return f"xcheck{self.index:02d}"


WORKLOADS = {
    "ls-throughput": (
        *(SweepTask(h, "local-search", "throughput") for h in (6, 21)),
        ExactTask(0, "energy"),
    ),
    "ls-energy": (SweepTask(6, "local-search", "energy"), ExactTask(0, "throughput")),
    "sr-exact": tuple(
        SweepTask(h, "selective-reduction", p)
        for h in (6, 19, 21)
        for p in ("throughput", "energy")
    ),
    "oracle-xcheck": tuple(XcheckTask(i) for i in range(XCHECK_INSTANCES)),
}


@dataclass
class Outcome:
    """One checked (task, problem) result."""

    task: str
    problem: str
    failure: str | None = None  # raised, invalid, or disagreed with the oracle
    wrong: bool = False  # a returned output failed its check
    min_rate_mbps: float | None = None
    network_power_w: float | None = None


class Inputs:
    """Parsed configs, profiles and capacity tables every task reads."""

    def __init__(self, root: Path):
        self.config_path = root / DEMO_CONFIG
        self.profile_path = root / DEMO_PROFILE
        self.config = replace(scenario.config_from_json(self.config_path), seed=SCENARIO_SEED)
        self.profile = scenario.load_profile_csv(self.profile_path)
        radio = self.config.radio
        self.table = default_table(radio.bandwidth_mhz, radio.mimo_layers)
        self.xcheck_profile = scenario.LoadProfile(
            tuple(range(XCHECK_INSTANCES)), (1.0,) * XCHECK_INSTANCES
        )
        self.xcheck_table = default_table().coarsened(5)


def ordered_tasks(workload: str, seed: int) -> list:
    tasks = list(WORKLOADS[workload])
    random.Random(seed).shuffle(tasks)
    return tasks


def warm_up() -> None:
    """One tiny build/solve/extract, so the first timed solve pays no lazy set-up."""
    g = build_graph(
        [
            Node(0, NodeKind.DONOR_DU, (0, 0, 10), unit_id=0),
            Node(1, NodeKind.FRONTEND, (0, 0, 10), unit_id=0, sector_azimuth_deg=0.0),
            Node(2, NodeKind.UE, (50, 0, 1.5)),
        ],
        [
            Edge(0, 1, EdgeKind.WIRED),
            Edge(1, 2, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
        ],
    )
    instance = ProblemInstance(
        graph=g,
        commodities=(Commodity(0, source=0, dest=2, demand_mbps=5.0),),
        power_mode=DiscretePower((0.0, 6300.0)),
    )
    built = milp.build_throughput_model(instance)
    milp.extract_solution(built, milp.solve(built.ir))


# -- running (timed) -----------------------------------------------------------


def run_task(inputs: Inputs, task, out_dir: Path):
    """Run one task; returns what its check needs."""
    if isinstance(task, SweepTask):
        return _run_sweep(inputs, task, out_dir / task.id)
    if isinstance(task, ExactTask):
        instance = xcheck_instance(inputs, task.index)
        return instance, _solve_exact(instance, task.problem)
    return _run_xcheck(inputs, task)


def _run_sweep(inputs: Inputs, task: SweepTask, out_dir: Path) -> Path:
    args = [
        "sweep",
        "--config", str(inputs.config_path),
        "--profile", str(inputs.profile_path),
        "--hours", str(task.hour),
        "--methods", task.method,
        "--problems", task.problem,
        *SWEEP_OPTIONS,
        "--out-dir", str(out_dir),
    ]
    # The sweep's one-line summary is not part of the benchmark's output.
    with redirect_stdout(io.StringIO()):
        cli.main(args, standalone_mode=False)
    return out_dir


def xcheck_instance(inputs: Inputs, index: int) -> ProblemInstance:
    config = XCHECK_CONFIG
    graph, commodities = scenario.generate(config, inputs.xcheck_profile, index)
    return ProblemInstance(
        graph=graph,
        commodities=commodities,
        radio=config.radio,
        power_model=config.power_model,
        capacity_table=inputs.xcheck_table,
        power_mode=DiscretePower((0.0, config.radio.p_max_mw)),
    )


def _solve_exact(instance: ProblemInstance, problem: str):
    """(solution or None when infeasible, error or None) of the exact MILP."""
    build = milp.build_throughput_model if problem == "throughput" else milp.build_energy_model
    try:
        built = build(instance)
        raw = milp.solve(built.ir)
        if raw.values is None:
            return None, None
        return milp.extract_solution(built, raw), None
    except Exception as exc:  # counted as a failed task, never dropped
        return None, f"{type(exc).__name__}: {exc}"


def _run_xcheck(inputs: Inputs, task: XcheckTask):
    instance = xcheck_instance(inputs, task.index)
    records = []
    for problem, enumerate_optimum in (
        ("throughput", oracle.enumerate_optimal_throughput),
        ("energy", oracle.enumerate_optimal_energy),
    ):
        # Both sides always run, so a failing MILP does not shorten the work.
        optimum = None
        solution, error = _solve_exact(instance, problem)
        try:
            optimum = enumerate_optimum(instance)
        except NoFeasible:
            pass
        except Exception as exc:
            error = error or f"oracle {type(exc).__name__}: {exc}"
        records.append((problem, solution, optimum, error))
    return instance, records


# -- checking (untimed) --------------------------------------------------------


def check_task(inputs: Inputs, task, pending) -> list[Outcome]:
    if isinstance(task, SweepTask):
        return _check_sweep(inputs, task, pending)
    if isinstance(task, ExactTask):
        return _check_exact(task, pending)
    return _check_xcheck(task, pending)


def _quality(outcome: Outcome, instance: ProblemInstance, solution) -> None:
    report = oracle.validate_solution(instance, solution)
    if not report.ok:
        outcome.failure = "invalid: " + "; ".join(map(str, report.violations[:4]))
        outcome.wrong = True
        return
    outcome.min_rate_mbps = solution.min_ue_mbps
    outcome.network_power_w = total_power(
        solution, instance.power_model, instance.graph
    ).total_w


def sweep_instance(inputs: Inputs, hour: int) -> ProblemInstance:
    """The unpruned instance a sweep task solves, rebuilt from its inputs."""
    graph, _ = scenario.generate(inputs.config, inputs.profile, hour)
    donor = graph.donor.id
    return ProblemInstance(
        graph=graph,
        commodities=tuple(
            Commodity(i, donor, ue.id, DEMAND_MBPS) for i, ue in enumerate(graph.ues)
        ),
        radio=inputs.config.radio,
        power_model=inputs.config.power_model,
        capacity_table=inputs.table,
    )


def _check_sweep(inputs: Inputs, task: SweepTask, out_dir: Path) -> list[Outcome]:
    outcome = Outcome(task.id, task.problem)
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        outcome.failure = f"expected one result row, found {len(rows)}"
        outcome.wrong = True
    elif rows[0]["status"].startswith("error"):
        outcome.failure = rows[0]["status"]
    else:
        solution = load_solution(out_dir / f"{task.id}_solution.json")
        _quality(outcome, sweep_instance(inputs, task.hour), solution)
    return [outcome]


def _check_exact(task: ExactTask, pending) -> list[Outcome]:
    instance, (solution, error) = pending
    outcome = Outcome(task.id, task.problem)
    if error is not None:
        outcome.failure = error
    elif solution is None:
        outcome.failure = "infeasible"
    else:
        _quality(outcome, instance, solution)
    return [outcome]


def _check_xcheck(task: XcheckTask, pending) -> list[Outcome]:
    instance, records = pending
    outcomes = []
    for problem, solution, optimum, error in records:
        outcome = Outcome(task.id, problem)
        outcomes.append(outcome)
        if error is not None:
            outcome.failure = error
            continue
        if (solution is None) != (optimum is None):
            outcome.failure = (
                f"feasibility disagrees: milp {solution is not None}, "
                f"oracle {optimum is not None}"
            )
            outcome.wrong = True
            continue
        if solution is None:
            continue  # both infeasible: agreement, nothing to measure
        if abs(solution.objective - optimum) > REL_TOL * max(abs(optimum), 1.0):
            outcome.failure = f"objective {solution.objective!r} != oracle {optimum!r}"
            outcome.wrong = True
            continue
        _quality(outcome, instance, solution)
    return outcomes


def quality_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Share of tasks solved and checked, and the two answer-quality means.

    ``min_rate_mbps`` averages throughput tasks and ``network_power_w``
    energy tasks; every workload has tasks of both problems.
    """
    ok = [o for o in outcomes if o.failure is None and o.min_rate_mbps is not None]

    def mean_of(attr: str, problem: str) -> float:
        values = [getattr(o, attr) for o in ok if o.problem == problem]
        # 0 when every such task failed: JSON has no NaN, and failed counts it.
        return sum(values) / len(values) if values else 0.0

    solved = sum(1 for o in outcomes if o.failure is None)
    return {
        "solved_share": solved / len(outcomes),
        "min_rate_mbps": mean_of("min_rate_mbps", "throughput"),
        "network_power_w": mean_of("network_power_w", "energy"),
    }
