import dataclasses

import numpy as np
import pytest

from iabtopo import milp
from iabtopo.errors import DemandExceedsMaxMin, IabError, NoFeasibleWithinKmax
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph
from iabtopo.heuristics import (
    PruneParams,
    SearchOptions,
    _Clock,
    _memo_solve,
    local_search_energy,
    local_search_throughput,
    prune_graph,
    rank_edges,
    selective_reduction,
)
from iabtopo.channel import RadioParams
from iabtopo.milp import SolverOptions
from iabtopo.oracle import (
    enumerate_optimal_energy,
    enumerate_optimal_throughput,
    validate_solution,
)
from iabtopo.problem import DiscretePower, ProblemInstance

from conftest import coarse_table, random_small_instance, two_unit_instance

FAST = SearchOptions(solve_time_limit_s=20.0, global_budget_s=120.0)


def test_single_frontend_converges_to_capacity():
    from test_milp_models import _single_frontend_instance

    table = coarse_table()
    inst = _single_frontend_instance(table, [80.0])
    sol, state = local_search_throughput(inst, FAST)
    assert sol.objective == pytest.approx(table.max_capacity_mbps, rel=1e-9)
    assert state.phase1_powers == {1: 6300.0}


def test_interference_pair_improves_over_all_on():
    inst = two_unit_instance()
    sol, state = local_search_throughput(inst, FAST)
    initial = state.log[0].objective
    assert state.curr_best_obj >= initial - 1e-9
    # Oracle over the same on/off lattice dominates the heuristic.
    z_star = enumerate_optimal_throughput(inst)
    assert sol.objective <= z_star + 1e-6


def test_accepted_objective_sequence_monotone():
    inst = two_unit_instance()
    _sol, state = local_search_throughput(inst, FAST)
    objs = [e.objective for e in state.log]
    assert all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))


def test_phase1_single_toggle_certificate():
    inst = two_unit_instance()
    _sol, state = local_search_throughput(inst, FAST)
    powers = state.phase1_powers
    p_max = max(inst.power_mode.levels_mw)
    best = None
    for u, p in powers.items():
        trial = dict(powers)
        trial[u] = p_max if p == 0 else 0.0
        built = milp.build_throughput_model(inst, fixed_powers=trial)
        raw = milp.solve(built.ir, SolverOptions(time_limit_s=20))
        assert raw.objective is not None
        best = raw.objective if best is None else max(best, raw.objective)
    built = milp.build_throughput_model(inst, fixed_powers=powers)
    fixed_obj = milp.solve(built.ir, SolverOptions(time_limit_s=20)).objective
    assert best <= fixed_obj + 1e-6


def test_energy_search_beats_nothing_and_validates():
    inst = two_unit_instance(demand=20.0)
    sol, state = local_search_energy(inst, FAST)
    assert validate_solution(inst, sol).ok
    p_star = enumerate_optimal_energy(inst)
    assert sol.objective >= p_star - 1e-6
    objs = [e.objective for e in state.log]
    assert all(b <= a + 1e-6 for a, b in zip(objs, objs[1:]))


def test_search_trajectories_pinned():
    # Pins the order of accepted moves; the iteration numbers also pin the
    # trial count, since every trial is one iteration.
    _sol, state = local_search_throughput(two_unit_instance(), FAST)
    assert [e.iteration for e in state.log] == [0, 2, 9]
    assert [e.objective for e in state.log] == pytest.approx(
        [550.6896213, 613.4625315, 613.4625315], rel=1e-9
    )
    assert state.phase1_powers == {1: 6300.0, 11: 0.0}
    assert state.curr_best_sol == {1: 6300.0, 11: 0.0}

    _sol, state = local_search_energy(two_unit_instance(demand=20.0), FAST)
    assert [e.iteration for e in state.log] == [0, 3]
    assert [e.objective for e in state.log] == pytest.approx(
        [190.53401794433796, 190.53401794433796], rel=1e-9
    )
    assert state.phase1_powers is None
    assert state.curr_best_sol == {1: 6300.0, 11: 0.0}


def test_search_solves_each_trial_once(monkeypatch):
    builds = []
    build = milp.build_throughput_model

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append((repr(instance.power_mode), tuple(sorted(fixed_powers.items()))))
        return build(instance, fixed_powers, routing_edges)

    monkeypatch.setattr(milp, "build_throughput_model", recording)
    _sol, state = local_search_throughput(two_unit_instance(), FAST)
    # The last build is the full-budget final solve of the accepted powers.
    trials, final = builds[:-1], builds[-1]
    assert len(set(trials)) == len(trials)
    assert final[1] == tuple(sorted(state.curr_best_sol.items()))


def test_energy_refinement_builds_each_trial_once(monkeypatch):
    builds = []
    build = milp.build_energy_model

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append((repr(instance.power_mode), tuple(sorted(fixed_powers.items()))))
        return build(instance, fixed_powers, routing_edges)

    monkeypatch.setattr(milp, "build_energy_model", recording)
    _sol, state = local_search_energy(two_unit_instance(demand=20.0), FAST)
    # Start solve, refinement trials, then the final solve of the accepted
    # powers; an accepted trial is re-solved on its model, not rebuilt.
    trials, final = builds[1:-1], builds[-1]
    assert trials and len(set(trials)) == len(trials)
    assert final[1] == tuple(sorted(state.curr_best_sol.items()))


def _search_outcome(search, instance):
    try:
        _sol, state = search(instance, FAST)
    except IabError as exc:
        return type(exc).__name__
    log = [(e.iteration, repr(e.objective)) for e in state.log]
    return log, state.phase1_powers, state.curr_best_sol


def test_cutoff_leaves_every_search_answer_unchanged(monkeypatch):
    grid = (0.0, 1575.0, 3150.0, 4725.0, 6300.0)
    instances = [two_unit_instance(), two_unit_instance(levels=grid)]
    for seed in range(6):
        instances.append(random_small_instance(np.random.default_rng(seed)))
        # Larger instances on a 5-level grid accept strict moves.
        instances.append(random_small_instance(
            np.random.default_rng(seed), max_units=4, max_ues=4, levels=grid
        ))
    searches = (local_search_throughput, local_search_energy)
    with_cutoff = [_search_outcome(f, inst) for inst in instances for f in searches]

    solve = milp.solve

    def without_cutoff(ir, options=None, backend=None):
        options = dataclasses.replace(options or SolverOptions(), cutoff=None)
        return solve(ir, options, backend)

    monkeypatch.setattr(milp, "solve", without_cutoff)
    without = [_search_outcome(f, inst) for inst in instances for f in searches]
    assert with_cutoff == without
    # Energy refinement is all strict moves; its log holds the start, the
    # accepted moves and the final solve.
    energy_logs = [o[0] for o in with_cutoff[1::2] if not isinstance(o, str)]
    assert sum(len(log) > 2 for log in energy_logs) >= 6


def test_rejection_under_cutoff_is_not_an_optimum(monkeypatch):
    inst = two_unit_instance(demand=20.0)
    fixed = {1: 6300.0, 11: 6300.0}
    builds = []
    build = milp.build_energy_model

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append(fixed_powers)
        return build(instance, fixed_powers, routing_edges)

    monkeypatch.setattr(milp, "build_energy_model", recording)
    z_star, powers = _memo_solve(milp.build_energy_model, FAST, _Clock(60.0))(inst, fixed)
    assert z_star is not None

    solve = _memo_solve(milp.build_energy_model, FAST, _Clock(60.0))
    builds.clear()
    assert solve(inst, fixed, z_star - 1.0) == (None, {})
    # A repeat under a cutoff no looser is rejected without a build ...
    assert solve(inst, fixed, z_star - 2.0) == (None, {})
    assert len(builds) == 1
    # ... but without a cutoff the trial is solved to its true optimum.
    assert solve(inst, fixed) == (z_star, powers)
    assert len(builds) == 2
    # A cutoff the optimum beats gives the optimum, which is then remembered.
    solve = _memo_solve(milp.build_energy_model, FAST, _Clock(60.0))
    assert solve(inst, fixed, z_star + 1.0) == (z_star, powers)
    assert solve(inst, fixed) == (z_star, powers)
    assert len(builds) == 3


def test_search_writes_nothing_to_stdout(capfd):
    local_search_energy(two_unit_instance(demand=20.0), FAST)
    built = milp.build_energy_model(two_unit_instance(demand=20.0))
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=20.0, cutoff=0.0))
    assert raw.status is milp.SolveStatus.CUTOFF
    captured = capfd.readouterr()
    assert captured.out == ""


def test_demand_at_max_min_rate_rejected():
    inst = two_unit_instance(demand=20.0)
    sol, state = local_search_throughput(inst, FAST)
    z = state.curr_best_obj
    matched = inst.with_demands(z)  # d_k == Z must be refused (strict >)
    with pytest.raises(DemandExceedsMaxMin):
        local_search_energy(matched, FAST)


def test_zero_demand_energy_sleeps_all():
    inst = two_unit_instance(demand=0.0)
    sol, _state = local_search_energy(inst, FAST)
    pm = inst.power_model
    assert sol.objective == pytest.approx(2 * pm.n_trx * pm.p_sleep_w, rel=1e-9)
    assert all(v == 0 for v in sol.activations.values())


# -- ranking / pruning ---------------------------------------------------------


def test_rank_metric_arithmetic(minimal_graph):
    radio = RadioParams(g_tx_main_dbi=24.0, g_rx_main_dbi=0.0)
    ranked = rank_edges(minimal_graph, radio)
    # g - p for the only wireless edge: 24 + 0 - 80 = -56
    assert ranked[0].key == (1, 2)
    g_tx = radio.g_tx_main_dbi
    assert g_tx + radio.g_rx_main_dbi - ranked[0].pathloss_db == pytest.approx(-56.0)


def test_rank_ties_break_by_ids():
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(2, NodeKind.UE, (10.0, 0.0, 1.5)),
        Node(3, NodeKind.UE, (0.0, 10.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(1, 3, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
        Edge(1, 2, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
    ]
    g = build_graph(nodes, edges)
    ranked = rank_edges(g, RadioParams())
    assert [e.key for e in ranked] == [(1, 2), (1, 3)]


def test_rank_permutation_invariance():
    rng = np.random.default_rng(8)
    inst = random_small_instance(rng)
    g = inst.graph
    baseline = [e.key for e in rank_edges(g, inst.radio)]
    for _ in range(5):
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        g2 = build_graph(g.nodes, shuffled)
        assert [e.key for e in rank_edges(g2, inst.radio)] == baseline


def test_prune_keeps_top_k_incoming():
    nodes = [Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0)]
    edges = []
    for u in range(7):
        base = 1 + 2 * u
        if u > 0:
            nodes.append(Node(base, NodeKind.MT_DU, (u * 40.0, 0.0, 10.0), unit_id=u))
        nodes.append(Node(base + 1, NodeKind.FRONTEND, (u * 40.0, 0.0, 10.0), unit_id=u))
        edges.append(Edge(base if u > 0 else 0, base + 1, EdgeKind.WIRED))
    nodes.append(Node(100, NodeKind.UE, (120.0, 30.0, 1.5)))
    for u in range(7):
        f = 2 + 2 * u
        edges.append(Edge(f, 100, EdgeKind.WIRELESS, pathloss_db=80.0 + u, los=True))
    g = build_graph(nodes, edges)
    pruned = prune_graph(g, 5)
    incoming = [e for e in pruned.wireless_edges if e.dst == 100]
    assert len(incoming) == 5
    assert {e.pathloss_db for e in incoming} == {80.0, 81.0, 82.0, 83.0, 84.0}
    assert prune_graph(g, 50).edges == tuple(sorted(g.edges, key=lambda e: e.key))
    assert set(pruned.edges) <= set(g.edges)


def test_selective_reduction_identity_at_large_k():
    inst = two_unit_instance()
    sol_full, _ = selective_reduction(inst, PruneParams(10, 10), "throughput", FAST)
    built = milp.build_throughput_model(inst)
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    assert sol_full.objective == pytest.approx(raw.objective, rel=1e-9)


def test_selective_reduction_never_beats_exact():
    inst = two_unit_instance()
    sol, _k = selective_reduction(inst, PruneParams(1, 3), "throughput", FAST)
    built = milp.build_throughput_model(inst)
    exact = milp.solve(built.ir, SolverOptions(time_limit_s=60)).objective
    assert sol.objective <= exact + 1e-6


def _ladder_instance():
    """Energy-feasible only via the 2nd-ranked incoming edge of the UE.

    One donor unit, two relay units; the UE's best-ranked parent sits on a
    unit the donor cannot reach, so k=1 prunes away the only workable
    access link.
    """
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(2, NodeKind.MT_DU, (100.0, 0.0, 10.0), unit_id=1),
        Node(3, NodeKind.FRONTEND, (100.0, 0.0, 10.0), unit_id=1),
        Node(4, NodeKind.UE, (120.0, 10.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(2, 3, EdgeKind.WIRED),
        # Unit 1 is unreachable: no backhaul into node 2 at all.
        Edge(3, 4, EdgeKind.WIRELESS, pathloss_db=70.0, los=True),  # best rank
        Edge(1, 4, EdgeKind.WIRELESS, pathloss_db=85.0, los=True),  # workable
    ]
    g = build_graph(nodes, edges)
    return ProblemInstance(
        graph=g,
        commodities=(Commodity(0, 0, 4, 5.0),),
        capacity_table=coarse_table(),
        power_mode=DiscretePower((0.0, 6300.0)),
    )


def test_selective_reduction_widens_k_until_feasible():
    inst = _ladder_instance()
    sol, k_used = selective_reduction(inst, PruneParams(1, 3), "energy", FAST)
    assert k_used == 2
    assert validate_solution(inst, sol).ok


def test_selective_reduction_k_exhaustion():
    inst = _ladder_instance().with_demands(1e6)  # infeasible at any k
    with pytest.raises(NoFeasibleWithinKmax):
        selective_reduction(inst, PruneParams(1, 2), "energy", FAST)


def test_pruned_feasibility_monotone_in_k():
    rng = np.random.default_rng(21)
    trials = 0
    while trials < 12:
        inst = random_small_instance(rng, demand_range=(1.0, 30.0))
        if len(inst.graph.wireless_edges) < 4:
            continue
        trials += 1
        feasible = []
        for k in range(1, 5):
            pruned = prune_graph(inst.graph, k, inst.radio)
            built = milp.build_energy_model(
                inst, routing_edges=[e.key for e in pruned.edges]
            )
            raw = milp.solve(built.ir, SolverOptions(time_limit_s=20))
            feasible.append(raw.status is not milp.SolveStatus.INFEASIBLE)
        # once feasible, stays feasible as k grows
        assert all(b or not a for a, b in zip(feasible, feasible[1:])), feasible
