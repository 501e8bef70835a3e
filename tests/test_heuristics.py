import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from iabtopo import heuristics, milp
from iabtopo.errors import (
    BackendError,
    DemandExceedsMaxMin,
    IabError,
    ModelInfeasible,
    NoFeasibleStart,
    NoFeasibleWithinKmax,
)
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
from iabtopo.milp import SolverOptions, backend, builder
from iabtopo.oracle import (
    enumerate_optimal_energy,
    enumerate_optimal_throughput,
    validate_solution,
)
from iabtopo.problem import ContinuousPower, DiscretePower, FixedPower, ProblemInstance

from conftest import coarse_table, random_small_instance, two_unit_instance

FAST = SearchOptions(solve_time_limit_s=20.0, global_budget_s=120.0)
_GRID = (0.0, 1575.0, 3150.0, 4725.0, 6300.0)


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


def test_phase_two_move_must_reproduce_with_its_power_fixed(monkeypatch):
    # The final solve fixes every power, so a one-free answer counts only if
    # its power, fixed, beats the cutoff too.  Here the freed frontend
    # reports its phase-one power, which gives no gain: no move is taken,
    # and the search's best is what the final solve returns.
    inst = random_small_instance(
        np.random.default_rng(1), max_units=4, max_ues=4
    ).with_power_mode(ContinuousPower())
    _sol, clean = local_search_throughput(inst, FAST)
    assert clean.curr_best_sol != clean.phase1_powers  # phase two moves here

    powers = milp.frontend_powers

    def unreproducible(built, raw):
        reps = built.power_reps
        freed = {u: clean.phase1_powers[u] for u, j in reps.col.items() if reps.cont[j] >= 0}
        return {**powers(built, raw), **freed}

    monkeypatch.setattr(milp, "frontend_powers", unreproducible)
    sol, state = local_search_throughput(inst, FAST)
    assert state.curr_best_sol == clean.phase1_powers
    assert sol.objective == pytest.approx(state.log[-2].objective, rel=1e-9)


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


def test_channel_gains_computed_once_per_graph(monkeypatch):
    # Gains depend only on the graph and the radio, so a whole search and a
    # selective reduction on the same graph share one table of them.
    calls = []
    interference = builder.interference_coefficients

    def counting(graph, edge, radio):
        calls.append(edge.key)
        return interference(graph, edge, radio)

    monkeypatch.setattr(builder, "interference_coefficients", counting)
    inst = two_unit_instance()
    n_wireless = len(inst.graph.wireless_edges)
    local_search_energy(inst, FAST)
    assert 0 < len(calls) <= n_wireless
    selective_reduction(inst, PruneParams(1, 3), "energy", FAST)
    assert len(calls) <= n_wireless


def test_energy_refinement_builds_each_trial_once(monkeypatch):
    builds = []
    build = milp.build_energy_model

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append((repr(instance.power_mode), tuple(sorted(fixed_powers.items()))))
        return build(instance, fixed_powers, routing_edges)

    monkeypatch.setattr(milp, "build_energy_model", recording)
    # On the two-unit instance the power bound rules out every refinement
    # trial, so none is built; this draw builds seven.
    inst = random_small_instance(np.random.default_rng(0), max_units=4, max_ues=4, levels=_GRID)
    _sol, state = local_search_energy(inst, FAST)
    # Start solve, refinement trials, then the final solve of the accepted
    # powers; an accepted trial is re-solved on its model, not rebuilt.
    trials, final = builds[1:-1], builds[-1]
    assert trials and len(set(trials)) == len(trials)
    assert final[1] == tuple(sorted(state.curr_best_sol.items()))


def _cutoff_instances():
    instances = [two_unit_instance(), two_unit_instance(levels=_GRID)]
    for seed in range(6):
        instances.append(random_small_instance(np.random.default_rng(seed)))
        # Larger instances on a 5-level grid accept strict moves.
        instances.append(random_small_instance(
            np.random.default_rng(seed), max_units=4, max_ues=4, levels=_GRID
        ))
    return instances


def _run_searches(instances):
    for inst in instances:
        for search in (local_search_throughput, local_search_energy):
            try:
                search(inst, FAST)
            except IabError:
                continue


def test_every_cutoff_answer_matches_the_full_optimum(monkeypatch):
    # Each trial under a cutoff is solved again without it: a rejection
    # must be one the full optimum agrees with, and an answer must be it.
    solve = milp.solve
    trials = []

    def checked(ir, options=None):
        raw = solve(ir, options)
        if options is not None and options.cutoff is not None:
            full = solve(ir, dataclasses.replace(options, cutoff=None))
            trials.append((ir.objective.sense, options.cutoff, raw, full))
        return raw

    monkeypatch.setattr(milp, "solve", checked)
    energy_logs = []
    for inst in _cutoff_instances():
        for search in (local_search_throughput, local_search_energy):
            try:
                _sol, state = search(inst, FAST)
            except IabError:
                continue
            if search is local_search_energy:
                energy_logs.append(state.log)

    assert trials
    for sense, cutoff, raw, full in trials:
        assert full.status in (milp.SolveStatus.OPTIMAL, milp.SolveStatus.INFEASIBLE)
        if raw.status is milp.SolveStatus.CUTOFF:
            assert full.objective is None or not milp.beats(sense, full.objective, cutoff)
        else:
            # Under a bound HiGHS may stop at a point that bends a row by
            # about its feasibility tolerance.  The energy search on the
            # seed-1 grid instance got an answer 1e-6 W (4.5e-9 relative)
            # below the full optimum, by bending a McCormick row 2.44e-7,
            # until the wsum and capw rows; every answer now matches.
            assert raw.status is milp.SolveStatus.OPTIMAL
            assert raw.objective == pytest.approx(full.objective, rel=1e-9)
    # Energy refinement is all strict moves; its log holds the start, the
    # accepted moves and the final solve.
    assert sum(len(log) > 2 for log in energy_logs) >= 6


def test_bound_answered_trials_match_the_full_optimum(monkeypatch):
    # A cutoff trial the search rejects from its model's rate or power
    # bound alone, never built, is built and solved without the cutoff:
    # the full optimum must not beat it.
    memo = heuristics._memo_solve
    solves = []
    screened = []

    def watched(problem, options, clock):
        solve = memo(problem, options, clock)
        built = set()

        def trial(model, fixed, cutoff=None):
            key = (id(model), tuple(sorted(fixed.items())))
            before = len(solves)
            out = solve(model, fixed, cutoff)
            if len(solves) > before:
                built.add(key)
            elif key not in built:
                screened.append((problem, model, dict(fixed), cutoff))
            return out

        return trial

    solve = milp.solve

    def counting(ir, options=None):
        solves.append(ir)
        return solve(ir, options)

    monkeypatch.setattr(heuristics, "_memo_solve", watched)
    monkeypatch.setattr(milp, "solve", counting)
    _run_searches(_cutoff_instances())
    monkeypatch.undo()

    assert screened
    assert {problem for problem, *_ in screened} == {milp.THROUGHPUT, milp.ENERGY}
    by_pairs = 0
    full = {}  # one full solve per trial
    for problem, model, fixed, cutoff in screened:
        assert cutoff is not None
        key = (problem, id(model), tuple(sorted(fixed.items())))
        if key not in full:
            built = milp.build(model, problem, fixed)
            full[key] = (built, milp.solve(built.ir, SolverOptions(time_limit_s=20.0)))
        built, raw = full[key]
        sense = built.ir.objective.sense
        assert not milp.beats(sense, built.bound, cutoff)
        assert raw.status in (milp.SolveStatus.OPTIMAL, milp.SolveStatus.INFEASIBLE)
        assert raw.objective is None or not milp.beats(sense, raw.objective, cutoff)
        if problem == milp.THROUGHPUT:
            with monkeypatch.context() as m:
                m.setattr(builder, "_shared_airtime_bound", lambda ends: math.inf)
                widest = milp.model_bound(model, problem, fixed)
            by_pairs += milp.beats(sense, widest, cutoff)
    # Some trials only the shared-airtime term rules out.
    assert by_pairs >= 1


def test_no_trial_the_bound_rules_out_is_built(monkeypatch):
    # The bound is asked before the build, so every model a search solves
    # under a cutoff has a bound that beats that cutoff, and the trials the
    # bound rules out, in both searches, cost no model.  A solve reads the
    # bound of the model built just before it, which must be its model.
    solve = milp.solve
    checked = []
    asked = {milp.THROUGHPUT: set(), milp.ENERGY: set()}
    built = {milp.THROUGHPUT: set(), milp.ENERGY: set()}
    last = []

    def checking(ir, options=None):
        if options is not None and options.cutoff is not None:
            (model,) = last
            checked.append(
                model.ir is ir and milp.beats(ir.objective.sense, model.bound, options.cutoff)
            )
        return solve(ir, options)

    bound = milp.model_bound

    def asking(instance, problem, fixed_powers=None, routing_edges=None):
        asked[problem].add((id(instance), tuple(sorted(fixed_powers.items()))))
        return bound(instance, problem, fixed_powers, routing_edges)

    def recording(problem, build):
        def wrapped(instance, fixed_powers=None, routing_edges=None):
            built[problem].add((id(instance), tuple(sorted(fixed_powers.items()))))
            last[:] = [build(instance, fixed_powers, routing_edges)]
            return last[0]

        return wrapped

    monkeypatch.setattr(milp, "solve", checking)
    monkeypatch.setattr(milp, "model_bound", asking)
    for problem, name in (
        (milp.THROUGHPUT, "build_throughput_model"), (milp.ENERGY, "build_energy_model")
    ):
        monkeypatch.setattr(milp, name, recording(problem, getattr(milp, name)))
    _run_searches(_cutoff_instances())

    assert checked and all(checked)
    for problem in (milp.THROUGHPUT, milp.ENERGY):
        assert asked[problem] - built[problem], problem


@pytest.mark.parametrize("problem", [milp.THROUGHPUT, milp.ENERGY])
def test_cutoff_the_bound_rules_out_skips_the_build(problem, monkeypatch):
    # A trial whose proven bound does not beat the cutoff is rejected
    # before it is built; a cutoff its optimum beats, and no cutoff, still
    # build it and reach HiGHS.
    inst = two_unit_instance(demand=20.0)
    fixed = {1: 6300.0, 11: 6300.0}
    name = "build_throughput_model" if problem == milp.THROUGHPUT else "build_energy_model"
    build = getattr(milp, name)
    built = build(inst, fixed_powers=fixed)
    sense, bound = built.ir.objective.sense, built.bound
    optimum = milp.solve(built.ir).objective
    step = -1.0 if sense == "min" else 1.0
    assert not milp.beats(sense, optimum, bound)

    builds, cutoffs = [], []
    highs = backend._scipy_backend

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append(fixed_powers)
        return build(instance, fixed_powers, routing_edges)

    def counting(ir, options):
        cutoffs.append(options.cutoff)
        return highs(ir, options)

    monkeypatch.setattr(milp, name, recording)
    monkeypatch.setattr(backend, "_scipy_backend", counting)
    for margin in (0.0, 1.0):
        solve = _memo_solve(problem, FAST, _Clock(60.0))
        assert solve(inst, fixed, bound + step * margin) == (None, {})
    assert builds == [] and cutoffs == []

    looser = optimum - step * 0.5
    solve = _memo_solve(problem, FAST, _Clock(60.0))
    assert solve(inst, fixed, looser)[0] == pytest.approx(optimum)
    assert solve(inst, fixed)[0] == pytest.approx(optimum)
    assert cutoffs == [looser, None] and len(builds) == 2


def _search_outcome(search, instance):
    _sol, state = search(instance, FAST)
    return state.log[-1].iteration, state.curr_best_sol, state.curr_best_obj


def test_last_bit_noise_moves_no_decision(monkeypatch):
    # HiGHS answers of one model can differ in their last bits (with and
    # without a cutoff, say); the searches must not read those bits.
    # Both draws have phase-one toggles that tie to the last bit.
    instances = [two_unit_instance()] + [
        random_small_instance(np.random.default_rng(seed)) for seed in (0, 2)
    ]
    searches = (local_search_throughput, local_search_energy)
    clean = [_search_outcome(f, inst) for inst in instances for f in searches]

    solve = milp.solve
    ulps = itertools.cycle((-3, 3))

    def noisy(ir, options=None):
        raw = solve(ir, options)
        if raw.objective is not None:
            raw.objective += next(ulps) * math.ulp(raw.objective)
        return raw

    monkeypatch.setattr(milp, "solve", noisy)
    noised = [_search_outcome(f, inst) for inst in instances for f in searches]
    for (n, powers, z), (n_noised, powers_noised, z_noised) in zip(clean, noised):
        assert n_noised == n
        assert powers_noised == powers
        assert z_noised == pytest.approx(z, rel=1e-12)


def test_time_limited_answer_is_held_to_the_cutoff(monkeypatch):
    # A one-free refinement trial: its power bound (190.07 W) sits below
    # its optimum (190.53 W), so cutoffs 0.1 W either side of the optimum
    # reach HiGHS.
    inst = two_unit_instance(demand=20.0).with_power_mode(
        DiscretePower(milp.default_power_levels(6300.0, 9))
    )
    fixed = {1: 6300.0}
    builds = []
    build = milp.build_energy_model

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append(fixed_powers)
        return build(instance, fixed_powers, routing_edges)

    highs = backend._scipy_backend

    def time_limited(ir, options):
        raw = highs(ir, dataclasses.replace(options, cutoff=None))
        raw.status = milp.SolveStatus.TIME_LIMIT
        return raw

    monkeypatch.setattr(milp, "build_energy_model", recording)
    monkeypatch.setattr(backend, "_scipy_backend", time_limited)
    memo = _memo_solve(milp.ENERGY, FAST, _Clock(60.0))
    z, powers = memo(inst, fixed)
    assert z is not None and len(builds) == 1
    # An incumbent that does not beat the cutoff is a rejection, and it is
    # not remembered: a repeat builds and solves again.
    assert memo(inst, fixed, z - 0.1) == (None, {})
    assert len(builds) == 2
    assert memo(inst, fixed, z - 0.1) == (None, {})
    assert len(builds) == 3
    # One that beats it is taken, still without being remembered.
    assert memo(inst, fixed, z + 0.1) == (z, powers)
    assert len(builds) == 4


def test_rejection_under_cutoff_is_not_an_optimum(monkeypatch):
    # The one-free trial of the test above: cutoffs between its power bound
    # (190.07 W) and its optimum (190.53 W) are rejected by HiGHS, not by
    # the bound, and the rejection is remembered.
    inst = two_unit_instance(demand=20.0).with_power_mode(
        DiscretePower(milp.default_power_levels(6300.0, 9))
    )
    fixed = {1: 6300.0}
    builds = []
    build = milp.build_energy_model

    def recording(instance, fixed_powers=None, routing_edges=None):
        builds.append(fixed_powers)
        return build(instance, fixed_powers, routing_edges)

    monkeypatch.setattr(milp, "build_energy_model", recording)
    z_star, powers = _memo_solve(milp.ENERGY, FAST, _Clock(60.0))(inst, fixed)
    assert z_star is not None

    solve = _memo_solve(milp.ENERGY, FAST, _Clock(60.0))
    builds.clear()
    assert solve(inst, fixed, z_star - 0.1) == (None, {})
    # A repeat under a cutoff no looser is rejected without a build ...
    assert solve(inst, fixed, z_star - 0.2) == (None, {})
    assert len(builds) == 1
    # ... but without a cutoff the trial is solved to its true optimum.
    assert solve(inst, fixed) == (z_star, powers)
    assert len(builds) == 2
    # A cutoff the optimum beats gives the optimum, which is then remembered
    # as the value nothing beats; a repeat without a cutoff solves again.
    solve = _memo_solve(milp.ENERGY, FAST, _Clock(60.0))
    assert solve(inst, fixed, z_star + 1.0) == (z_star, powers)
    assert solve(inst, fixed) == (z_star, powers)
    assert len(builds) == 4
    # A cutoff the optimum does not beat is rejected unbuilt.
    assert solve(inst, fixed, z_star) == (None, {})
    assert len(builds) == 4


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


def test_energy_search_runs_on_one_clock(monkeypatch):
    # The throughput seed and the energy refinement share one clock, so the
    # global budget bounds the whole run and the energy log counts from its
    # start, seed phase included.
    seed_search = heuristics._throughput_search
    seed_s = []

    def slow_seed(instance, options, clock):
        start = time.monotonic()
        result = seed_search(instance, options, clock)
        time.sleep(0.2)
        seed_s.append(time.monotonic() - start)
        return result

    monkeypatch.setattr(heuristics, "_throughput_search", slow_seed)
    _sol, state = local_search_energy(two_unit_instance(demand=20.0), FAST)
    assert state.log[0].timestamp_s >= seed_s[0]


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


def test_throughput_search_keeps_a_fixed_modes_powers():
    # Switching frontend 11 off would reach 613.4625315 Mbps, a point a
    # FixedPower instance does not have; its exact optimum is 550.6896213.
    inst = two_unit_instance().with_power_mode(FixedPower({1: 6300.0, 11: 6300.0}))
    exact = milp.solve_extracted(milp.build(inst, milp.THROUGHPUT))
    sol, state = local_search_throughput(inst, FAST)
    assert sol.powers_mw == state.phase1_powers == {1: 6300.0, 11: 6300.0}
    assert sol.objective == exact.objective == pytest.approx(550.6896213, abs=1e-6)


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
    pruned = prune_graph(g, 5, RadioParams())
    incoming = [e for e in pruned.wireless_edges if e.dst == 100]
    assert len(incoming) == 5
    assert {e.pathloss_db for e in incoming} == {80.0, 81.0, 82.0, 83.0, 84.0}
    assert prune_graph(g, 50, RadioParams()).edges == tuple(sorted(g.edges, key=lambda e: e.key))
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


def test_an_infeasible_model_raises_model_infeasible():
    # Selective reduction widens k on exactly this error; it is a
    # BackendError, so callers that catch that still see it.
    built = milp.build(_ladder_instance().with_demands(1e6), milp.ENERGY)
    with pytest.raises(ModelInfeasible) as caught:
        milp.solve_extracted(built, SolverOptions(time_limit_s=20))
    assert isinstance(caught.value, BackendError)


def test_selective_reduction_widens_k_while_a_ue_is_cut_off(monkeypatch):
    # At k = 1 the UE keeps only its edge from the unreachable unit: Z = 0
    # is feasible there, but serves no one, so k widens without a build.
    inst = _ladder_instance()
    pruned = prune_graph(inst.graph, 1, inst.radio)
    retained = [e.key for e in pruned.edges]
    assert milp.model_bound(inst, milp.THROUGHPUT, routing_edges=retained) == 0.0
    build, builds = milp.build_throughput_model, []

    def counting(instance, fixed_powers=None, routing_edges=None, **kwargs):
        # Only exact builds restrict routing; the search's trials do not.
        if routing_edges is not None:
            builds.append(sorted(routing_edges))
        return build(instance, fixed_powers, routing_edges, **kwargs)

    monkeypatch.setattr(milp, "build_throughput_model", counting)
    sol, k_used = selective_reduction(inst, PruneParams(1, 3), "throughput", FAST)
    assert k_used == 2
    assert sol.objective > 0.0
    assert validate_solution(inst, sol).ok
    assert len(builds) == 1 and builds[0] != sorted(retained)
    with pytest.raises(NoFeasibleWithinKmax):
        selective_reduction(inst, PruneParams(1, 1), "throughput", FAST)
    assert len(builds) == 1


@pytest.mark.parametrize(
    "mode", [ContinuousPower(), DiscretePower(_GRID)], ids=["continuous", "grid"]
)
def test_selective_reduction_starts_from_the_search_powers(mode, monkeypatch):
    # Throughput selective reduction runs the search once and hands each
    # exact solve a seed at the search's final powers: ptx at the power,
    # or on a grid the binary of the power's level at 1 and every level
    # binary of a frontend the search switched off at 0.
    inst = two_unit_instance().with_power_mode(mode)
    search, searched = heuristics._throughput_search, []
    highs, seeds = backend.milp, []

    def recording_search(*args):
        state, iteration = search(*args)
        searched.append(dict(state.curr_best_sol))
        return state, iteration

    def recording_milp(**kwargs):
        if len(kwargs["seed"]):
            seeds.append(kwargs["seed"])
        return highs(**kwargs)

    monkeypatch.setattr(heuristics, "_throughput_search", recording_search)
    monkeypatch.setattr(backend, "milp", recording_milp)
    sol, _k = selective_reduction(inst, PruneParams(1, 3), "throughput", FAST)
    assert validate_solution(inst, sol).ok

    (powers,) = searched
    assert sorted(powers.values()) == [0.0, 6300.0]
    if isinstance(mode, ContinuousPower):
        want = {f"ptx[{f}]": p for f, p in powers.items()}
    else:
        want = {}
        for f, p in powers.items():
            levels = range(len(_GRID) - 1) if p == 0 else [_GRID.index(p) - 1]
            want.update({f"lam[{f},{i}]": float(p > 0) for i in levels})
    # The power block comes first in every model, so any build names it.
    names = milp.build(inst, milp.THROUGHPUT).ir.var_names
    assert seeds
    for cols, values in seeds:
        assert dict(zip((names[c] for c in cols.tolist()), values.tolist())) == want


def test_selective_reduction_without_a_search_start_keeps_the_all_max_seed(monkeypatch):
    # A search that finds no start point leaves every exact model its own
    # seed, every frontend at its top power.
    inst = two_unit_instance().with_power_mode(DiscretePower(_GRID))
    highs, seeds = backend.milp, []

    def no_start(*args):
        raise NoFeasibleStart("initial all-on solve found no solution")

    def recording_milp(**kwargs):
        seeds.append(kwargs["seed"])
        return highs(**kwargs)

    monkeypatch.setattr(heuristics, "_throughput_search", no_start)
    monkeypatch.setattr(backend, "milp", recording_milp)
    sol, _k = selective_reduction(inst, PruneParams(1, 3), "throughput", FAST)
    assert validate_solution(inst, sol).ok
    # The power block comes first in every model, so any build names it.
    cols, values = milp.build(inst, milp.THROUGHPUT).ir.seed
    assert sorted(values.tolist()) == [1.0, 1.0]
    assert seeds
    for seed in seeds:
        assert seed[0].tolist() == cols.tolist() and seed[1].tolist() == values.tolist()


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
