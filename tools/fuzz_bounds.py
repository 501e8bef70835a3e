"""Differential fuzz of the models' proven objective bounds and the exact model's seed.

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
  against HiGHS's optimum.

It also solves the full throughput model twice, from its all-max-power
seed and without it, and checks that both reach one optimum.

A check fails when the optimum beats the bound, or when the two full
throughput optima differ, by more than extraction's tolerance, 1e-6
relative with a floor of 1.  The script prints one line per failure and
a summary line of counts, and exits 1 if any check failed.  The 20 seeds
above (120 instances) take about 250 s on a 2-vCPU VM; the script is
not part of the tier-1 tests, but CI runs it on seeds 100-102.
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
from iabtopo.errors import NoFeasible  # noqa: E402
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


def check_seed(inst: ProblemInstance, counts: Counter, what: str) -> None:
    """The full throughput model reaches one optimum from its seed and without it."""
    built = milp.build(inst, milp.THROUGHPUT)
    seeded = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
    built.ir.seed = built.ir.seed[:0]
    plain = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
    if seeded.status is not SolveStatus.OPTIMAL or plain.status is not SolveStatus.OPTIMAL:
        counts[f"seed HiGHS {seeded.status.value}/{plain.status.value}"] += 1
        return
    counts["seed checks"] += 1
    if abs(seeded.objective - plain.objective) > TOL * max(abs(plain.objective), 1.0):
        counts["violations"] += 1
        print(f"{what} throughput full: seeded {seeded.objective!r}, unseeded {plain.objective!r}")


def check(inst: ProblemInstance, rng: np.random.Generator, counts: Counter, what: str) -> None:
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
            raw = milp.solve(built.ir, SolverOptions(time_limit_s=60.0))
            if raw.status is not SolveStatus.OPTIMAL:
                counts[f"{problem} HiGHS {raw.status.value}"] += 1
                continue
            counts[f"{problem} HiGHS checks"] += 1
            if beats_bound(sense, raw.objective, built.bound):
                counts["violations"] += 1
                print(
                    f"{what} {problem} {name}: HiGHS {raw.objective!r} "
                    f"beats bound {built.bound!r}"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("100-119"),
                        help="scenario seeds, FIRST-LAST (default 100-119)")
    args = parser.parse_args(argv)
    counts = Counter(violations=0)
    for seed in args.seeds:
        rng = np.random.default_rng(seed)
        for hour in HOURS:
            counts["instances"] += 1
            inst, what = instance(seed, hour), f"seed {seed} hour {hour}"
            check(inst, rng, counts, what)
            check_seed(inst, counts, what)
    print(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
