"""Differential fuzz of the models' proven objective bounds, the stop and the seed.

Run from the repository root:

    python3 tools/fuzz_bounds.py --seeds 100-119

Each scenario seed gives six instances (hours 0-5 of a flat full-load
profile) from the generator of the benchmark's oracle-xcheck workload:
3 units x 2 sectors and 3 UEs on 0.25 km^2, the default ladder thinned
to every fifth step, powers {0, p_max} and 2 Mbps per UE.

Per instance it checks both proven bounds, the throughput model's upper
bound on the min rate and the energy model's lower bound on the network
power:

- on the full model, against the brute-force optimum;
- on the all-max fixed-power model and on one random fixed-power model,
  against HiGHS's optimum, solved without the bound as a stop.

HiGHS stops once its incumbent meets the model's proven bound, so an
unsound bound gives a wrong answer, not just a skipped trial.  The script
solves each full model of both problems with that stop and without it,
and checks that both reach one optimum.  It also solves the full
throughput model without its all-max-power seed, and checks that this
reaches the optimum of the seeded solve; and started at the random
fixed powers above, as selective reduction starts it at the search's
powers, and checks that this reaches the unseeded optimum.  Each stopped
and each started answer must pass extraction, and the coefficients HiGHS
dropped at load are summed.

A check fails when the optimum beats the bound, or when two optima of one
model differ, by more than extraction's tolerance, 1e-6 relative with a
floor of 1, or when a stopped or started answer fails extraction.  The script prints
one line per failure and a summary line of counts, and exits 1 if any
check failed.  The 20 seeds above (120 instances) take about 430 s on a
2-vCPU VM; the script is not part of the tier-1 tests, but CI runs it on
seeds 100-102.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iabtopo import milp, oracle, scenario  # noqa: E402
from iabtopo.capacity import default_table  # noqa: E402
from iabtopo.errors import ExtractionMismatch, NoFeasible  # noqa: E402
from iabtopo.milp import SolverOptions  # noqa: E402
from iabtopo.problem import DiscretePower, ProblemInstance, SolveStatus  # noqa: E402

HOURS = range(6)
TOL = 1e-6
PROBLEMS = (
    (milp.THROUGHPUT, oracle.enumerate_optimal_throughput),
    (milp.ENERGY, oracle.enumerate_optimal_energy),
)


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def instance(seed: int, hour: int) -> ProblemInstance:
    config = scenario.ScenarioConfig(
        area_km2=0.25, lambda_gnb=12.0, sectors_per_unit=2, l_ue_per_gnb=1.0,
        seed=seed, demand_mbps=2.0,
    )
    profile = scenario.LoadProfile(tuple(HOURS), (1.0,) * len(HOURS))
    graph, commodities = scenario.generate(config, profile, hour)
    return ProblemInstance(
        graph=graph,
        commodities=commodities,
        radio=config.radio,
        power_model=config.power_model,
        capacity_table=default_table().coarsened(5),
        power_mode=DiscretePower((0.0, config.radio.p_max_mw)),
    )


def beats_bound(sense: str, optimum: float, bound: float) -> bool:
    excess = optimum - bound if sense == "max" else bound - optimum
    return excess > TOL * max(abs(optimum), 1.0)


def _same_optimum(kind, counts, what, first, second, names) -> None:
    """Count a ``kind`` check of two solves of one model; a violation if their optima differ."""
    if first.status is not SolveStatus.OPTIMAL or second.status is not SolveStatus.OPTIMAL:
        counts[f"{kind} HiGHS {first.status.value}/{second.status.value}"] += 1
        return
    counts[f"{kind} checks"] += 1
    if abs(first.objective - second.objective) > TOL * max(abs(second.objective), 1.0):
        counts["violations"] += 1
        print(f"{what}: {names[0]} {first.objective!r}, {names[1]} {second.objective!r}")


def _extracts(built, raw, counts: Counter, what: str) -> None:
    """Count a violation if ``raw`` has values that fail extraction."""
    if raw.values is None:
        return
    try:
        milp.extract_solution(built, raw)
    except ExtractionMismatch as exc:
        counts["extraction failures"] += 1
        counts["violations"] += 1
        print(f"{what}: extraction fails: {exc}")


def check_stop(
    inst: ProblemInstance, start: dict[int, float], counts: Counter, what: str
) -> None:
    """Each full model reaches one optimum with HiGHS stopped at its bound and without.

    The stopped throughput answer, which starts from the model's seed, is
    also held against the answer without the seed, and so is the answer
    of the model started at ``start``.  Each stopped and each started
    answer must pass extraction, and the coefficients HiGHS dropped at load
    are summed.
    """
    for problem, _ in PROBLEMS:
        built = milp.build(inst, problem)
        where = f"{what} {problem} full"
        stopped = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
        counts["dropped coefficients"] += stopped.dropped
        _extracts(built, stopped, counts, where)
        bound, built.ir.bound = built.ir.bound, None
        plain = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
        _same_optimum("stop", counts, where, stopped, plain, ("stopped", "unstopped"))
        if built.ir.seed:
            built.ir.bound, built.ir.seed = bound, ()
            plain = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
            _same_optimum("seed", counts, where, stopped, plain, ("seeded", "unseeded"))
            started = milp.build(inst, problem, start=start)
            raw = milp.solve(started.ir, SolverOptions(time_limit_s=60.0))
            _extracts(started, raw, counts, f"{where} started")
            _same_optimum("start", counts, where, raw, plain, ("started", "unseeded"))


def check(
    inst: ProblemInstance, rng: np.random.Generator, counts: Counter, what: str
) -> dict[int, float]:
    """Check both bounds; returns the random fixed powers it drew."""
    p_max = inst.radio.p_max_mw
    fids = sorted(n.id for n in inst.graph.frontends)
    trials = (
        ("all-max", {f: p_max for f in fids}),
        ("random", {f: float(rng.choice((0.0, p_max))) for f in fids}),
    )
    for problem, enumerate_optimum in PROBLEMS:
        sense = "max" if problem == milp.THROUGHPUT else "min"
        bound = milp.model_bound(inst, problem)
        try:
            optimum = enumerate_optimum(inst)
        except NoFeasible:
            counts[f"{problem} brute-force infeasible"] += 1
        else:
            counts[f"{problem} brute-force checks"] += 1
            if beats_bound(sense, optimum, bound):
                counts["violations"] += 1
                print(f"{what} {problem} full: optimum {optimum!r} beats bound {bound!r}")
        for name, fixed in trials:
            built = milp.build(inst, problem, fixed)
            # HiGHS's own optimum: the bound under test must not stop it.
            bound, built.ir.bound = built.bound, None
            raw = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
            if raw.status is not SolveStatus.OPTIMAL:
                counts[f"{problem} HiGHS {raw.status.value}"] += 1
                continue
            counts[f"{problem} HiGHS checks"] += 1
            if beats_bound(sense, raw.objective, bound):
                counts["violations"] += 1
                print(f"{what} {problem} {name}: HiGHS {raw.objective!r} beats bound {bound!r}")
    return trials[1][1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("100-119"),
                        help="scenario seeds, FIRST-LAST (default 100-119)")
    args = parser.parse_args(argv)
    counts = Counter({"violations": 0, "extraction failures": 0, "dropped coefficients": 0})
    for seed in args.seeds:
        rng = np.random.default_rng(seed)
        for hour in HOURS:
            counts["instances"] += 1
            inst, what = instance(seed, hour), f"seed {seed} hour {hour}"
            check_stop(inst, check(inst, rng, counts, what), counts, what)
    print(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
