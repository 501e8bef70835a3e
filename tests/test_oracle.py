import copy
import dataclasses

import numpy as np
import pytest

from iabtopo import channel, milp, oracle
from iabtopo.capacity import default_table
from iabtopo.energy import PowerModelParams
from iabtopo.errors import NoFeasible, TooLarge, ZeroCapacityLink
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph
from iabtopo.milp import SolverOptions
from iabtopo.oracle import (
    enumerate_optimal_energy,
    enumerate_optimal_throughput,
    max_min_on_tree,
    validate_solution,
)
from iabtopo.problem import FixedPower, ProblemInstance, NetworkSolution, SolveStatus

from conftest import coarse_table, random_small_instance, two_unit_graph, two_unit_instance


def _chain_graph():
    """Donor unit -> relay unit -> UE."""
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(2, NodeKind.MT_DU, (150.0, 0.0, 10.0), unit_id=1),
        Node(3, NodeKind.FRONTEND, (150.0, 0.0, 10.0), unit_id=1),
        Node(4, NodeKind.UE, (250.0, 0.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(2, 3, EdgeKind.WIRED),
        Edge(1, 2, EdgeKind.WIRELESS, pathloss_db=90.0, los=True),
        Edge(3, 4, EdgeKind.WIRELESS, pathloss_db=85.0, los=True),
    ]
    return build_graph(nodes, edges)


def test_single_link_rate_equals_capacity(minimal_graph):
    z = max_min_on_tree(minimal_graph, [(0, 1), (1, 2)], {(1, 2): 480.0}, [2])
    assert z == pytest.approx(480.0, abs=1e-6)


def test_harmonic_mean_closed_form():
    g = two_unit_graph()
    tree = [(0, 1), (1, 20), (1, 21)]
    z = max_min_on_tree(g, tree, {(1, 20): 100.0, (1, 21): 300.0}, [20, 21])
    assert z == pytest.approx(75.0, abs=1e-9)


def test_symmetric_two_ue_half_capacity():
    g = two_unit_graph()
    tree = [(0, 1), (1, 20), (1, 21)]
    c = 640.0
    z = max_min_on_tree(g, tree, {(1, 20): c, (1, 21): c}, [20, 21])
    assert z == pytest.approx(c / 2, abs=1e-9)


def test_chain_budgets_do_not_couple_across_units():
    # Relay receive and relay transmit sit on different nodes, so a
    # two-hop chain still achieves the full link capacity.
    g = _chain_graph()
    tree = [(0, 1), (1, 2), (2, 3), (3, 4)]
    c = 320.0
    z = max_min_on_tree(g, tree, {(1, 2): c, (3, 4): c}, [4])
    assert z == pytest.approx(c, abs=1e-6)


def test_bisection_is_feasibility_tight():
    g = two_unit_graph()
    tree = [(0, 1), (1, 20), (1, 21)]
    caps = {(1, 20): 100.0, (1, 21): 300.0}
    z = max_min_on_tree(g, tree, caps, [20, 21])

    def load_at(rate):
        return rate / 100.0 + rate / 300.0

    assert load_at(z - 1e-6) <= 1.0
    assert load_at(z + 1e-6) > 1.0


def _bisection_max_min(graph, tree_edges, capacities_mbps, ue_ids):
    """Reference (max-min rate, feasibility test) by bisection on airtime.

    A second method to check the closed form against: every
    wireless tree edge takes airtime z * (UEs downstream) / capacity at
    both endpoints, each node's budget is 1 (+1e-12 slack), and the search
    stops at 1e-9 absolute.
    """
    ues = set(ue_ids)
    parent_of = {dst: src for src, dst in tree_edges}
    donor = graph.donor.id
    n_down = {}
    for ue in ues:
        node = ue
        while node != donor:
            key = (parent_of[node], node)
            n_down[key] = n_down.get(key, 0) + 1
            node = key[0]
    loads = [
        (key, capacities_mbps[key], n)
        for key, n in sorted(n_down.items())
        if graph.edge(*key).kind is EdgeKind.WIRELESS
    ]

    def feasible(z):
        load = {}
        for (src, dst), c, n in loads:
            a = z * n / c
            load[src] = load.get(src, 0.0) + a
            load[dst] = load.get(dst, 0.0) + a
        return all(v <= 1.0 + 1e-12 for v in load.values())

    lo, hi = 0.0, max(capacities_mbps.values()) + 1.0
    if feasible(hi):
        return hi, feasible
    for _ in range(200):
        if hi - lo <= 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, feasible


def _random_tree_case(rng):
    """A random tree, UE set and capacities on the two-unit or chain graph.

    Capacities stay at or below 1000 Mbps, so the rate is too, and the
    reference's 1e-12 relative slack stays inside a 1e-9 absolute match.
    """
    if rng.random() < 0.25:
        g = _chain_graph()
        tree, ues = [(0, 1), (1, 2), (2, 3), (3, 4)], [4]
    else:
        g = two_unit_graph()
        ues = [ue for ue in (20, 21) if rng.random() < 0.7] or [20]
        parents = {ue: int(rng.choice([1, 11])) for ue in ues}
        tree = {(0, 1)} | {(f, ue) for ue, f in parents.items()}
        if 11 in parents.values() or rng.random() < 0.3:
            tree |= {(1, 10), (10, 11)}
        tree = sorted(tree)
    caps = {e.key: float(rng.uniform(1.0, 1000.0)) for e in g.wireless_edges}
    return g, tree, caps, ues


def test_closed_form_matches_bisection_reference():
    rng = np.random.default_rng(2026)
    for _ in range(250):
        g, tree, caps, ues = _random_tree_case(rng)
        z = max_min_on_tree(g, tree, caps, ues)
        ref, feasible = _bisection_max_min(g, tree, caps, ues)
        assert z == pytest.approx(ref, abs=1e-9)
        assert feasible(z * (1 - 1e-9))
        assert not feasible(z * (1 + 1e-9))


def test_max_min_unreachable_ue_is_zero_and_unloaded_tree_unbounded():
    g = two_unit_graph()
    caps = {(1, 20): 100.0, (1, 21): 300.0}
    # UE 20 sits outside the tree: unreachable, so no common rate.
    assert max_min_on_tree(g, [(0, 1), (1, 21)], caps, [20]) == 0.0
    assert max_min_on_tree(g, [(0, 1)], caps, []) == 0.0
    # A target reached over wired hops only loads no airtime.
    g = _chain_graph()
    assert max_min_on_tree(g, [(0, 1)], {(1, 2): 50.0, (3, 4): 80.0}, [1]) == 81.0


def test_zero_capacity_loaded_link_raises():
    g = two_unit_graph()
    with pytest.raises(ZeroCapacityLink):
        max_min_on_tree(g, [(0, 1), (1, 20)], {(1, 20): 0.0}, [20])


def test_enumeration_guard():
    rng = np.random.default_rng(0)
    inst = random_small_instance(rng, levels=tuple(float(x) for x in np.linspace(0, 6300, 40)))
    if len(inst.graph.frontends) >= 3:
        with pytest.raises(TooLarge):
            enumerate_optimal_throughput(inst)


def test_single_link_enumeration_equals_capacity():
    from test_milp_models import _single_frontend_instance

    table = coarse_table()
    inst = _single_frontend_instance(table, [80.0])
    assert enumerate_optimal_throughput(inst) == pytest.approx(
        table.max_capacity_mbps, abs=1e-6
    )


def test_zero_demand_energy_is_sleep_baseline():
    inst = two_unit_instance(demand=0.0)
    pm = inst.power_model
    expected = 2 * pm.n_trx * pm.p_sleep_w
    assert enumerate_optimal_energy(inst) == pytest.approx(expected, rel=1e-12)


def test_impossible_demand_raises():
    inst = two_unit_instance(demand=1e6)
    with pytest.raises(NoFeasible):
        enumerate_optimal_energy(inst)


def test_validation_flags_airtime_overrun(minimal_graph):
    sol = NetworkSolution(
        problem="throughput",
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        chosen_edges=((0, 1), (1, 2)),
        flows={0: {}},
        airtimes={(1, 2): 1.2},
        powers_mw={1: 6300.0},
        activations={1: 1},
        capacities_mbps={},
        per_ue_mbps={2: 0.0},
    )
    inst = ProblemInstance(
        graph=minimal_graph,
        commodities=(Commodity(0, 0, 2, 0.0),),
        capacity_table=coarse_table(),
    )
    report = validate_solution(inst, sol)
    assert not report.ok
    assert any(
        v.rule == "AirtimeBudget" and abs(v.magnitude - 0.2) < 1e-9
        for v in report.violations
    )


def test_validation_flags_capacity_overclaim(minimal_graph):
    inst = ProblemInstance(
        graph=minimal_graph,
        commodities=(Commodity(0, 0, 2, 0.0),),
        capacity_table=coarse_table(),
    )
    sol = NetworkSolution(
        problem="throughput",
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        chosen_edges=(),
        flows={0: {}},
        airtimes={(1, 2): 0.5},
        powers_mw={1: 0.0},  # silent frontend cannot grant capacity
        activations={1: 0},
        capacities_mbps={(1, 2): 100.0},
        per_ue_mbps={2: 0.0},
    )
    report = validate_solution(inst, sol)
    assert not report.ok
    assert any(v.rule == "CapacityOverclaim" for v in report.violations)


def test_milp_solutions_validate_clean():
    inst = two_unit_instance()
    sol = milp.solve_extracted(milp.build_throughput_model(inst))  # raises on a dirty solution
    assert validate_solution(inst, sol).ok


@pytest.fixture(scope="module")
def two_unit_solutions():
    inst = two_unit_instance()
    return inst, {p: milp.solve_extracted(milp.build(inst, p)) for p in (milp.THROUGHPUT, milp.ENERGY)}


# (problem, rule, how to break the extracted solution so the rule fires)
_BREAKS = [
    ("throughput", "CapacityOnNonWireless", lambda s: s.capacities_mbps.update({(0, 1): 5.0})),
    ("energy", "NonBinaryFlow", lambda s: s.flows[0].update({(0, 1): 0.5, (1, 20): 0.5})),
    ("throughput", "NegativeFlow", lambda s: s.flows[0].update({(11, 20): -1.0})),
    ("energy", "NegativeFlow", lambda s: s.flows[1].update({(11, 21): -1.0})),
    ("throughput", "FlowOffGraph", lambda s: s.flows[0].update({(20, 21): 1.0})),
    ("throughput", "FlowConservation", lambda s: s.flows[0].update({(0, 1): 1.0})),
    ("energy", "FlowConservation", lambda s: s.flows[1].update({(0, 1): 0.0})),
    ("throughput", "SleepingTransmitter", lambda s: s.powers_mw.update({11: 100.0})),
    ("energy", "SleepingServer", lambda s: s.activations.update({1: 0})),
    ("energy", "EnergyRecompute", lambda s: s.powers_mw.update({11: 100.0})),
    ("throughput", "ObjectiveMismatch", lambda s: setattr(s, "objective", s.objective + 1.0)),
    ("energy", "ObjectiveMismatch", lambda s: setattr(s, "objective", s.objective - 1.0)),
]


@pytest.mark.parametrize(
    "problem, rule, tamper", _BREAKS, ids=[f"{p}-{r}" for p, r, _ in _BREAKS]
)
def test_each_validator_rule_flags_its_broken_value(two_unit_solutions, problem, rule, tamper):
    inst, solutions = two_unit_solutions
    assert validate_solution(inst, solutions[problem]).ok
    broken = copy.deepcopy(solutions[problem])
    tamper(broken)
    report = validate_solution(inst, broken)
    assert not report.ok
    assert rule in {v.rule for v in report.violations}


def test_validation_computes_gains_only_for_claimed_wireless_edges(monkeypatch):
    inst = two_unit_instance()
    sol = milp.solve_extracted(milp.build_throughput_model(inst))
    claimed = {
        e.key for e in inst.graph.wireless_edges if sol.capacities_mbps.get(e.key, 0.0) > 1e-6
    }
    assert 0 < len(claimed) < len(inst.graph.wireless_edges)
    calls = []
    coefficients = channel.interference_coefficients

    def counting_gains(graph, edge, params):
        calls.append(edge.key)
        return coefficients(graph, edge, params)

    monkeypatch.setattr(channel, "interference_coefficients", counting_gains)
    assert validate_solution(inst, sol).ok
    assert sorted(calls) == sorted(claimed)


def test_fixed_power_milp_matches_tree_enumeration():
    # With powers pinned, the solver's optimum must equal the closed-form
    # max-min over every enumerable tree.
    from iabtopo.channel import RadioParams
    from iabtopo.problem import FixedPower

    rng = np.random.default_rng(31)
    for _ in range(10):
        base = random_small_instance(rng)
        frontends = [n.id for n in base.graph.frontends]
        powers = {f: float(rng.choice([0.0, 3150.0, 6300.0])) for f in frontends}
        if all(p == 0 for p in powers.values()):
            powers[frontends[0]] = 6300.0
        inst = base.with_power_mode(FixedPower(powers))
        built = milp.build_throughput_model(inst)
        raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
        z_oracle = enumerate_optimal_throughput(inst)
        assert raw.objective == pytest.approx(z_oracle, rel=1e-6, abs=1e-6)


# Brute-force optima pinned as literals, so any rework of the enumeration
# must reproduce them: (case, throughput, energy or None for NoFeasible).
# Cases are built by `_pinned_instance`: "seedN" is a default-grid random
# instance, "grid" a four-level grid, "fixedN" fixed powers, "heavy" an
# instance whose demands no configuration meets.
PINNED_OPTIMA = [
    ('seed0', 613.4625315005446, 274.6684185446443),
    ('seed1', 613.4625315005446, 199.01011639108657),
    ('seed2', 1226.9250630010893, 272.9364958103786),
    ('seed3', 1226.9250630010893, 272.7633428336143),
    ('seed4', 408.9750210001769, 279.05637116119885),
    ('seed5', 408.9750210001769, 314.53742164498857),
    ('seed6', 613.4625315005446, 193.6681437380896),
    ('seed7', 613.4625315005446, 273.27101097653076),
    ('seed8', 1226.9250630010893, 270.1156824907951),
    ('seed9', 380.090749854312, 239.93941294433992),
    ('seed10', 408.9750210001769, 276.4634292689011),
    ('seed11', 1226.9250630010893, 112.70463408503461),
    ('seed12', 1226.9250630010893, 191.38743240228155),
    ('seed13', 408.9750210001769, 279.8880150249115),
    ('seed14', 408.9750210001769, 121.27053051539681),
    ('seed15', 408.9750210001769, 279.61383413369714),
    ('seed16', 613.4625315005446, 192.81513107809337),
    ('seed17', 408.9750210001769, 274.0696396669663),
    ('seed18', 613.4625315005446, 315.58502040386),
    ('seed19', 613.4625315005446, 225.02848347220237),
    ('grid', 403.3604795271341, 306.1731964762574),
    ('fixed200', 613.4625315005446, 119.67331325051988),
    ('fixed201', 408.9750210001769, 116.69177727119656),
    ('fixed202', 613.4625315005446, 116.85398133030972),
    ('fixed203', 408.9750210001769, 119.67053654026105),
    ('fixed204', 531.9263722500053, 348.82214825290004),
    ('fixed205', 0.0, None),
    ('fixed206', 408.9750210001769, 235.978462527155),
    ('fixed207', 1226.9250630010893, 115.54310323509307),
    ('fixed208', 0.0, None),
    ('fixed209', 930.5475952504734, 340.7643384159784),
    ('heavy', 408.9750210001769, None),
]


def _pinned_instance(case: str) -> ProblemInstance:
    kw = dict(table=default_table(), demand_range=(1.0, 400.0))
    if case.startswith("seed"):
        return random_small_instance(np.random.default_rng(int(case[4:])), **kw)
    if case == "grid":
        return random_small_instance(
            np.random.default_rng(100), levels=(0.0, 2100.0, 4200.0, 6300.0), **kw
        )
    if case.startswith("fixed"):
        rng = np.random.default_rng(int(case[5:]))
        base = random_small_instance(rng, **kw)
        fs = sorted(n.id for n in base.graph.frontends)
        powers = {f: float(rng.choice([0.0, 3150.0, 6300.0])) for f in fs}
        powers[fs[0]] = 6300.0
        return base.with_power_mode(FixedPower(powers))
    assert case == "heavy"
    return random_small_instance(
        np.random.default_rng(300), table=default_table(), demand_range=(600.0, 1200.0)
    )


@pytest.mark.parametrize("case, throughput, energy", PINNED_OPTIMA)
def test_enumerated_optima_match_pinned_values(case, throughput, energy):
    inst = _pinned_instance(case)
    assert enumerate_optimal_throughput(inst) == pytest.approx(throughput, rel=1e-9)
    if energy is None:
        with pytest.raises(NoFeasible):
            enumerate_optimal_energy(inst)
    else:
        assert enumerate_optimal_energy(inst) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize(
    "enumerate_optimal", [enumerate_optimal_throughput, enumerate_optimal_energy]
)
def test_enumeration_builds_each_tree_and_gain_once(monkeypatch, enumerate_optimal):
    # Work counts, not times: one tree walk per distinct parent choice and one
    # gain computation per wireless edge in a whole enumeration.
    inst = random_small_instance(
        np.random.default_rng(4), levels=(0.0, 2100.0, 4200.0, 6300.0)
    )
    trees, gains = {}, {}
    walk = oracle._routed_demand
    coefficients = channel.interference_coefficients

    def counting_walk(tree, demand, donor, wireless):
        key = frozenset(tree)
        trees[key] = trees.get(key, 0) + 1
        return walk(tree, demand, donor, wireless)

    def counting_gains(graph, edge, params):
        gains[edge.key] = gains.get(edge.key, 0) + 1
        return coefficients(graph, edge, params)

    monkeypatch.setattr(oracle, "_routed_demand", counting_walk)
    monkeypatch.setattr(channel, "interference_coefficients", counting_gains)
    enumerate_optimal(inst)
    assert len(trees) > 10
    assert set(trees.values()) == {1}
    assert gains == {e.key: 1 for e in inst.graph.wireless_edges}


@pytest.mark.parametrize(
    "instance, optimum",
    [
        (lambda: _pinned_instance("seed0"), 274.6684185446443),
        (
            lambda: dataclasses.replace(
                two_unit_instance(), power_model=PowerModelParams(p_active_unit_w=10.0)
            ),
            200.53401794433796,
        ),
    ],
    ids=["seed0", "two-unit-adder"],
)
def test_energy_enumeration_prices_without_building_solutions(
    monkeypatch, instance, optimum
):
    # Each (powers, tree) pair is priced from its powers and airtimes alone.
    def no_solution(*args, **kwargs):
        raise AssertionError("enumeration built a NetworkSolution")

    monkeypatch.setattr(oracle, "NetworkSolution", no_solution)
    assert enumerate_optimal_energy(instance()) == optimum


def test_node_airtime_charges_both_endpoints():
    loads = oracle._node_airtime({(1, 20): 0.25, (1, 21): 0.5, (20, 21): 0.125})
    assert loads == {1: 0.75, 20: 0.375, 21: 0.625}
