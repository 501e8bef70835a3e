import dataclasses
import gc
import itertools
import math

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from iabtopo import heuristics, milp, oracle
from iabtopo.capacity import capacity_from_sinr, default_table, ladder_position
from iabtopo.channel import (
    RadioParams,
    interference_coefficients,
    link_budgets,
    signal_coefficient,
)
from iabtopo.energy import PowerModelParams
from iabtopo.errors import EmptyCommodities, ExtractionMismatch, NoFeasible, UnsupportedMode
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph
from iabtopo.heuristics import SearchOptions
from iabtopo.milp import SolverOptions, builder
from iabtopo.oracle import validate_solution
from iabtopo.problem import (
    ContinuousPower,
    DiscretePower,
    FixedPower,
    ProblemInstance,
    SolveStatus,
    default_power_levels,
)

from conftest import (
    coarse_table,
    level_terms,
    model_rows,
    random_small_instance,
    two_step_table,
    two_unit_instance,
)
from test_milp_ir import _spy_highs


def _single_frontend_instance(table, pathlosses, noise_mw=0.0, demand=5.0):
    """One donor unit, one frontend, one UE per pathloss entry."""
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
    ]
    edges = [Edge(0, 1, EdgeKind.WIRED)]
    comms = []
    for i, pl in enumerate(pathlosses):
        ue = 10 + i
        nodes.append(Node(ue, NodeKind.UE, (50.0 + i, 0.0, 1.5)))
        edges.append(Edge(1, ue, EdgeKind.WIRELESS, pathloss_db=pl, los=True))
        comms.append(Commodity(i, 0, ue, demand))
    g = build_graph(nodes, edges)
    radio = RadioParams(noise_mw=noise_mw)
    return ProblemInstance(
        graph=g,
        commodities=tuple(comms),
        radio=radio,
        capacity_table=table,
        power_mode=FixedPower({1: radio.p_max_mw}),
    )


def test_solve_extracted_calls_the_package_solve_and_extraction_once(monkeypatch):
    # Both are looked up on the package, so wrappers set there see each call.
    built = milp.build_throughput_model(_single_frontend_instance(coarse_table(), [80.0]))
    options = SolverOptions(time_limit_s=30)
    solve, extract, solves, extracts = milp.solve, milp.extract_solution, [], []

    def counting_solve(ir, opts=None):
        solves.append((ir, opts))
        return solve(ir, opts)

    def counting_extract(b, raw):
        extracts.append(b)
        return extract(b, raw)

    monkeypatch.setattr(milp, "solve", counting_solve)
    monkeypatch.setattr(milp, "extract_solution", counting_extract)
    sol = milp.solve_extracted(built, options)
    assert len(solves) == 1 and solves[0][0] is built.ir and solves[0][1] is options
    assert len(extracts) == 1 and extracts[0] is built
    assert sol.objective == pytest.approx(coarse_table().max_capacity_mbps, rel=1e-9)


def test_single_link_full_airtime():
    table = coarse_table()
    inst = _single_frontend_instance(table, [80.0])
    sol = milp.solve_extracted(milp.build_throughput_model(inst))
    # One UE, no interference: top-step capacity at alpha = 1.
    assert sol.objective == pytest.approx(table.max_capacity_mbps, rel=1e-9)
    assert sol.airtimes[(1, 10)] == pytest.approx(1.0, abs=1e-6)


def test_two_ue_harmonic_split():
    # Pathlosses put one UE on the 100 Mbps step and one on the 300 Mbps
    # step (noise floor makes SINR finite): Z = 1/(1/100 + 1/300) = 75.
    table = two_step_table(100.0, 300.0)
    radio = RadioParams()
    # S/I targets: 5 dB for UE A (level 0), 15 dB for UE B (level 1).
    noise = 1e-9
    g_fixed = radio.g_tx_main_dbi + radio.g_rx_main_dbi
    pl_a = g_fixed - (5.0 + 10 * math.log10(noise / radio.p_max_mw))
    pl_b = g_fixed - (15.0 + 10 * math.log10(noise / radio.p_max_mw))
    inst = _single_frontend_instance(table, [pl_a, pl_b], noise_mw=noise)
    sol = milp.solve_extracted(milp.build_throughput_model(inst))
    assert sol.objective == pytest.approx(75.0, rel=1e-9)
    assert sol.airtimes[(1, 10)] == pytest.approx(0.75, abs=1e-6)
    assert sol.airtimes[(1, 11)] == pytest.approx(0.25, abs=1e-6)


def test_two_equal_ues_split_evenly():
    table = coarse_table()
    inst = _single_frontend_instance(table, [80.0, 80.0])
    sol = milp.solve_extracted(milp.build_throughput_model(inst))
    assert sol.objective == pytest.approx(table.max_capacity_mbps / 2, rel=1e-9)


@pytest.mark.parametrize("levels", [(0.0, math.nan), (0.0, 3150.0, math.inf)])
def test_power_grid_levels_must_be_finite(levels):
    with pytest.raises(ValueError, match="power levels must be finite"):
        DiscretePower(levels)


def test_empty_commodities_rejected():
    inst = _single_frontend_instance(coarse_table(), [80.0])
    bare = ProblemInstance(
        graph=inst.graph,
        commodities=(),
        radio=inst.radio,
        capacity_table=inst.capacity_table,
        power_mode=inst.power_mode,
    )
    with pytest.raises(EmptyCommodities):
        milp.build_throughput_model(bare)


def test_throughput_extraction_checks_ladder_levels():
    inst = _single_frontend_instance(coarse_table(), [80.0])
    sol = milp.solve_extracted(milp.build_throughput_model(inst), SolverOptions(time_limit_s=30))
    # Fixed powers: the model's constant level equals the direct lookup.
    edge = inst.graph.edge(1, 10)
    budget = link_budgets(inst.graph, [edge], inst.radio)(sol.powers_mw)[edge.key]
    _, cap = capacity_from_sinr(inst.capacity_table, *budget)
    assert sol.capacities_mbps[(1, 10)] <= cap + 1e-6


def test_airtime_sums_within_budget_after_extraction():
    inst = two_unit_instance()
    built = milp.build_throughput_model(inst)
    sol = milp.solve_extracted(built)
    by_node = {}
    for (src, dst), a in sol.airtimes.items():
        by_node[src] = by_node.get(src, 0.0) + a
        by_node[dst] = by_node.get(dst, 0.0) + a
    assert all(v <= 1 + 1e-6 for v in by_node.values())


def test_monotone_indicator_chain_and_coupling():
    inst = two_unit_instance()
    built = milp.build_throughput_model(inst)
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    sol = milp.extract_solution(built, raw)
    table = inst.capacity_table
    budgets = link_budgets(inst.graph, built.routing_wireless, inst.radio)(sol.powers_mw)
    for j, e in enumerate(built.routing_wireless):
        phis = _phi_cols(built, j)
        values = [round(float(raw.values[i])) for i in phis]
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
        _, cap = capacity_from_sinr(table, *budgets[e.key])
        assert sol.capacities_mbps.get(e.key, 0.0) <= sol.airtimes.get(e.key, 0.0) * cap + 1e-6


def test_capacity_coupling_equality_achievable():
    table = coarse_table()
    inst = _single_frontend_instance(table, [80.0])
    sol = milp.solve_extracted(milp.build_throughput_model(inst))
    assert sol.capacities_mbps[(1, 10)] == pytest.approx(table.max_capacity_mbps, rel=1e-9)


# -- energy model -----------------------------------------------------------


def test_zero_demands_sleep_everything():
    inst = _single_frontend_instance(coarse_table(), [80.0], demand=0.0)
    built = milp.build_energy_model(inst)
    sol = milp.solve_extracted(built)
    pm = inst.power_model
    assert sol.objective == pytest.approx(pm.n_trx * pm.p_sleep_w, rel=1e-12)
    assert sol.activations == {1: 0}
    assert sol.chosen_edges == ()


def test_single_demand_activates_one_chain():
    table = coarse_table()
    levels = (0.0, 6300.0)
    inst = _single_frontend_instance(table, [80.0], demand=5.0).with_power_mode(
        DiscretePower(levels)
    )
    built = milp.build_energy_model(inst)
    sol = milp.solve_extracted(built)
    assert sol.activations == {1: 1}
    assert sol.per_ue_mbps == {10: 5.0}
    from iabtopo.energy import total_power

    assert sol.objective == pytest.approx(
        total_power(sol, inst.power_model, inst.graph).total_w, rel=1e-9
    )


def test_unreachable_demand_infeasible():
    table = coarse_table()
    inst = _single_frontend_instance(table, [80.0], demand=2 * table.max_capacity_mbps)
    built = milp.build_energy_model(inst)
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
    assert raw.status.value == "infeasible"


def test_energy_rejects_continuous_powers():
    inst = _single_frontend_instance(coarse_table(), [80.0]).with_power_mode(ContinuousPower())
    with pytest.raises(UnsupportedMode):
        milp.build_energy_model(inst)


def _at(built, key):
    """Position of wireless edge ``key`` in ``built.routing_wireless``."""
    return [e.key for e in built.routing_wireless].index(key)


def _phi_cols(built, j):
    """The phi columns of wireless edge ``j``."""
    start = built.v0[j] + 3
    return range(start, start + built.top[j] - built.floor[j])


def _ladder_interval(built, e):
    """The builder's (floor, top, big-Ms) for edge ``e`` of a built model."""
    inst = built.instance
    lad = builder._ladders(inst, built.power_reps, [e])
    floor, top = int(lad.floor[0]), int(lad.top[0])
    interval = [a[0] for a in (lad.s_lo, lad.s_hi, lad.i_lo, lad.i_hi)]
    return floor, top, [
        builder._big_ms(th, *interval) for th in inst.capacity_table.thresholds_linear[floor:top]
    ]


def test_channel_gains_follow_the_graph():
    inst = two_unit_instance()
    coo = milp.build_throughput_model(inst).ir.coo()
    # Same layout, frontend 11 heard 3 dB fainter at UE 20: a new graph,
    # which must get its own gains.
    g = inst.graph
    edges = [
        dataclasses.replace(e, pathloss_db=e.pathloss_db + 3.0) if e.key == (11, 20) else e
        for e in g.edges
    ]
    other = dataclasses.replace(inst, graph=build_graph(g.nodes, edges))
    other_coo = milp.build_throughput_model(other).ir.coo()
    assert not all(np.array_equal(a, b) for a, b in zip(other_coo, coo))
    gains = builder._gains(other.graph, other.radio)
    for e in other.graph.wireless_edges:
        row = gains.row[e.key]
        assert gains.signal[row] == signal_coefficient(other.graph, e, other.radio)
        coeffs = interference_coefficients(other.graph, e, other.radio)
        fids = sorted(n.id for n in other.graph.frontends)
        assert list(gains.interference[row]) == [coeffs.get(f, 0.0) for f in fids]
    # The table leaves with its graph.
    key = id(other.graph)
    del other, gains
    gc.collect()
    assert key not in builder._GAINS


def _levels_met(table, signal_mw, interference_mw):
    pos = ladder_position(table, signal_mw, interference_mw)
    return 0 if pos is None else pos + 1


def test_big_m_dominates_random_power_assignments():
    inst = two_unit_instance()
    rng = np.random.default_rng(4)
    models = [
        milp.build_throughput_model(inst),  # {0, p} grid: on-power floors
        milp.build_throughput_model(inst.with_power_mode(ContinuousPower())),
        milp.build_throughput_model(inst, fixed_powers={1: 6300.0}),
        # Fixed powers that can sleep: floor > 0 on reps whose power can be 0.
        milp.build_energy_model(inst, fixed_powers={1: 6300.0, 11: 6300.0}),
    ]
    for built in models:
        _check_interval_on_random_powers(built, rng)
    assert any(_ladder_interval(models[-1], e)[0] > 0 for e in inst.graph.wireless_edges)


def _allowed_power(reps, j, rng) -> float:
    """One power rep j can take: its constant, 0 or a level, or uniform."""
    levels, _ = level_terms(reps, j)
    if reps.cont[j] >= 0:
        return float(rng.uniform(0.0, reps.hi[j]))
    if not len(levels):
        return float(reps.lo[j])
    return float(rng.choice([0.0] + levels.tolist()))


def _check_interval_on_random_powers(built, rng):
    inst = built.instance
    reps = built.power_reps
    table = inst.capacity_table
    for e in inst.graph.wireless_edges:
        floor, top, big_ms = _ladder_interval(built, e)
        assert len(big_ms) == top - floor
        g_sig = signal_coefficient(inst.graph, e, inst.radio)
        g_int = interference_coefficients(inst.graph, e, inst.radio)
        for _ in range(100):
            powers = {fid: _allowed_power(reps, j, rng) for fid, j in reps.col.items()}
            s = g_sig * powers[e.src]
            i = inst.radio.noise_mw + sum(c * powers[f] for f, c in g_int.items())
            for (m_on, m_off), th in zip(big_ms, table.thresholds_linear[floor:top]):
                assert s - th * i <= m_off + 1e-12
                assert -(s - th * i) <= m_on + 1e-12
            met = _levels_met(table, s, i)
            if powers[e.src] > 0:
                assert floor <= met <= top
            else:
                assert met == 0


def test_big_m_monotone_in_interferers():
    inst = two_unit_instance()
    _, _, with_both = _ladder_interval(milp.build_throughput_model(inst), inst.graph.edge(1, 20))
    # Single frontend, no noise: the interference side collapses to zero.
    single = _single_frontend_instance(coarse_table(), [80.0]).with_power_mode(ContinuousPower())
    built = milp.build_throughput_model(single)
    _, _, alone = _ladder_interval(built, single.graph.edge(1, 10))
    assert alone and all(m_on == 0.0 for m_on, _ in alone)
    assert with_both and all(m_on > 0.0 for m_on, _ in with_both)


@pytest.mark.parametrize(
    "powers", [{1: 6300.0, 11: 2000.0}, {1: 6300.0, 11: 0.0}, {1: 0.0, 11: 6300.0}]
)
def test_ladder_interval_is_a_point_when_powers_fixed(powers):
    inst = two_unit_instance()
    built = milp.build_throughput_model(inst, fixed_powers=powers)
    routed = {e.key for e in built.routing_wireless}
    budgets = link_budgets(inst.graph, inst.graph.wireless_edges, inst.radio)(powers)
    for e in inst.graph.wireless_edges:
        met = _levels_met(inst.capacity_table, *budgets[e.key])
        # Fixed powers: exactly the edges that meet no level leave routing.
        assert (e.key in routed) == (met > 0)
        if e.key not in routed:
            continue
        floor, top, big_ms = _ladder_interval(built, e)
        assert floor == top == met
        assert big_ms == []
        assert len(_phi_cols(built, _at(built, e.key))) == 0
        assert built.floor[_at(built, e.key)] == floor


def _dead_ue_instance(power_mode=None):
    """UE 10 served at the top step; UE 11 meets no level at any power."""
    inst = _single_frontend_instance(coarse_table(), [80.0, 250.0], noise_mw=1e-9)
    return inst if power_mode is None else inst.with_power_mode(power_mode)


def test_dead_ue_edges_leave_single_power_models():
    inst = _dead_ue_instance()
    dead = (1, 11)
    built = milp.build_throughput_model(inst)
    assert dead not in {e.key for e in built.routing_wireless}
    assert not any(n.startswith("f[") and n.endswith(",1->11]") for n in built.ir.var_names)
    sol = milp.solve_extracted(built)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert oracle.enumerate_optimal_throughput(inst) == 0.0

    built = milp.build_energy_model(inst)
    assert dead not in {e.key for e in built.routing_wireless}
    (dst_row,) = [r for r in model_rows(built.ir) if r.name == "dst[k1]"]
    assert dst_row.terms == () and dst_row.lo == dst_row.hi == 1.0
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
    assert raw.status is SolveStatus.INFEASIBLE
    with pytest.raises(NoFeasible):
        oracle.enumerate_optimal_energy(inst)


@pytest.mark.parametrize(
    "mode", [ContinuousPower(), DiscretePower((0.0, 3150.0, 6300.0))], ids=["continuous", "grid"]
)
def test_dead_edges_of_multi_power_sources_stay(mode):
    inst = _dead_ue_instance(mode)
    built = milp.build_throughput_model(inst)
    dead = (1, 11)
    assert _ladder_interval(built, inst.graph.edge(*dead))[1] == 0
    assert dead in {e.key for e in built.routing_wireless}
    j = _at(built, dead)
    assert built.ir.ub[built.v0[j]] == 0.0
    assert built.ir.ub[built.v0[j] + 2] == 0.0
    assert len(_phi_cols(built, j)) == 0


def test_off_source_grants_no_capacity():
    # {0, p} grid: frontend 11's edges meet their floor levels only while
    # it transmits, so switched off it must grant them nothing.
    inst = two_unit_instance()
    for e in inst.graph.wireless_edges:
        if e.src != 11:
            continue
        for on in (True, False):
            built = milp.build_throughput_model(inst)
            j = _at(built, e.key)
            assert built.floor[j] > 0
            if not on:
                _, (lam,) = level_terms(built.power_reps, built.power_reps.col[11])
                built.ir.ub[lam] = 0.0
            built.ir.set_objective("max", [built.v0[j] + 2], [1.0])
            raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
            assert (raw.objective > 1.0) if on else (raw.objective <= 1e-9)


def test_fixed_energy_floor_at_on_power():
    inst = two_unit_instance(demand=20.0)
    built = milp.build_energy_model(inst, fixed_powers={1: 6300.0, 11: 6300.0})
    # A floor at zero signal would leave every edge its `top` indicators.
    tops = sum(_ladder_interval(built, e)[1] for e in inst.graph.wireless_edges)
    assert int((built.top - built.floor).sum()) < tops == 30
    # Frontend 11 sleeps although its edges have floor > 0.
    assert all(
        built.floor[_at(built, e.key)] > 0 for e in inst.graph.wireless_edges if e.src == 11
    )
    sol = milp.solve_extracted(built)
    assert sol.activations == {1: 1, 11: 0}
    assert sol.powers_mw[11] == 0.0


def test_extraction_flags_tampered_model():
    # Force an inconsistent "solution" through extraction: claim a ladder
    # level the physics denies.
    inst = _single_frontend_instance(coarse_table(), [80.0])
    sol = milp.solve_extracted(milp.build_throughput_model(inst), SolverOptions(time_limit_s=30))
    sol.capacities_mbps[(1, 10)] = inst.capacity_table.max_capacity_mbps * 2
    report = validate_solution(inst, sol)
    assert not report.ok
    assert any(v.rule in ("CapacityOverclaim", "ObjectiveMismatch") for v in report.violations)


def test_rate_bound_holds_at_random_fixed_powers():
    # Fixed powers leave each edge one ladder level, so the widest donor
    # path often sits below the table's top capacity, or at 0.
    rng = np.random.default_rng(31)
    below_top = 0
    for _ in range(15):
        inst = random_small_instance(rng, max_units=4, max_ues=4)
        p_max = inst.radio.p_max_mw
        fixed = {
            n.id: 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, p_max))
            for n in inst.graph.frontends
        }
        built = milp.build_throughput_model(inst, fixed_powers=fixed)
        raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
        assert raw.status is SolveStatus.OPTIMAL
        bound = built.bound
        assert bound >= raw.objective * (1.0 - 1e-9)
        below_top += bound < inst.capacity_table.max_capacity_mbps
    assert below_top >= 5


def test_power_bound_holds_at_random_fixed_powers():
    # All-fixed and one-free-grid energy models, as the energy search builds
    # them; half the draws add the per-unit power.  The bound is tight
    # when the optimum keeps one frontend awake and serves each UE over
    # its cheapest in-edge.
    grid = (0.0, 1575.0, 3150.0, 4725.0, 6300.0)
    rng = np.random.default_rng(37)
    tight = 0
    for draw in range(16):
        inst = random_small_instance(rng, max_units=4, max_ues=4, levels=grid)
        if draw % 4 >= 2:
            inst = dataclasses.replace(inst, power_model=PowerModelParams(p_active_unit_w=10.0))
        fids = sorted(n.id for n in inst.graph.frontends)
        fixed = {f: float(rng.choice(grid[1:])) for f in fids}
        if draw % 2:
            del fixed[fids[int(rng.integers(len(fids)))]]
        built = milp.build_energy_model(inst, fixed_powers=fixed)
        raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
        assert raw.status is SolveStatus.OPTIMAL
        bound = built.bound
        assert bound <= raw.objective * (1.0 + 1e-8)
        tight += bound >= raw.objective - 1e-6
    assert tight >= 4


def test_energy_lp_meets_the_power_bound():
    # The LP relaxation (integrality dropped) of an energy model is at least
    # its power bound: with no per-unit power, as in these draws, the flow
    # rows and use_ge_f already charge one awake frontend, and the capw rows
    # charge each UE's in-edges at least their cheapest watts per Mbps.
    # Without the wsum and capw rows the LP sat below the bound on 22 of
    # these 40 draws.
    grid = DiscretePower(default_power_levels(6300.0, 5))
    rng = np.random.default_rng(7)
    draws = [random_small_instance(rng) for _ in range(40)]
    instances = [two_unit_instance()] + [
        inst.with_power_mode(grid) if k % 2 else inst for k, inst in enumerate(draws)
    ]
    for inst in instances:
        built = milp.build_energy_model(inst)
        bound = built.bound
        built.ir.binary[:], built.ir.bound = False, None
        raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
        assert raw.status is SolveStatus.OPTIMAL
        assert raw.objective >= bound * (1.0 - 1e-9)


def test_rate_bound_charges_shared_airtime(monkeypatch):
    # Both UEs hear frontend 1 well and frontend 2 barely (noise-limited),
    # so the optimum serves both from 1 and splits its airtime: Z =
    # 1/(1/C + 1/C).  The widest path alone reads C; the first-hop term,
    # which gives frontend 1 both UEs, reads C/2 too, so it is off as well.
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(2, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(10, NodeKind.UE, (50.0, 0.0, 1.5)),
        Node(11, NodeKind.UE, (50.0, 5.0, 1.5)),
    ]
    edges = [Edge(0, 1, EdgeKind.WIRED), Edge(0, 2, EdgeKind.WIRED)]
    for src, pathloss in ((1, 80.0), (2, 140.0)):
        edges += [
            Edge(src, ue, EdgeKind.WIRELESS, pathloss_db=pathloss, los=True) for ue in (10, 11)
        ]
    inst = ProblemInstance(
        graph=build_graph(nodes, edges),
        commodities=(Commodity(0, 0, 10, 5.0), Commodity(1, 0, 11, 5.0)),
        radio=RadioParams(noise_mw=1e-9),
        capacity_table=coarse_table(),
        power_mode=DiscretePower((0.0, 6300.0)),
    )
    bound = milp.build_throughput_model(inst).bound
    assert bound == oracle.enumerate_optimal_throughput(inst)
    monkeypatch.setattr(builder, "_shared_airtime_bound", lambda ends: math.inf)
    monkeypatch.setattr(builder, "_first_hop_bound", lambda hop_caps, k: math.inf)
    widest = milp.build_throughput_model(inst).bound
    assert widest == inst.capacity_table.max_capacity_mbps > bound


def _three_ue_instance(far_db, levels):
    """Three UEs hearing both donor sectors: 80 dB from their own, ``far_db`` from the other."""
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(2, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(10, NodeKind.UE, (50.0, 0.0, 1.5)),
        Node(11, NodeKind.UE, (50.0, 5.0, 1.5)),
        Node(12, NodeKind.UE, (-50.0, 0.0, 1.5)),
    ]
    edges = [Edge(0, 1, EdgeKind.WIRED), Edge(0, 2, EdgeKind.WIRED)]
    for ue, near, far in ((10, 1, 2), (11, 1, 2), (12, 2, 1)):
        edges += [
            Edge(near, ue, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
            Edge(far, ue, EdgeKind.WIRELESS, pathloss_db=far_db, los=True),
        ]
    return ProblemInstance(
        graph=build_graph(nodes, edges),
        commodities=tuple(Commodity(k, 0, ue, 5.0) for k, ue in enumerate((10, 11, 12))),
        radio=RadioParams(noise_mw=1e-9),
        capacity_table=default_table(),
        power_mode=DiscretePower(levels),
    )


def test_first_hop_term_stops_the_solve_at_the_optimum(monkeypatch):
    # Three UEs hear both donor sectors, each best from its own side, so
    # every UE has a path at C and any two can be served from distinct
    # sectors.  But two sectors carry three UEs: one carries two, at C/2
    # each, and only the first-hop term reads that.
    inst = _three_ue_instance(100.0, (0.0, 6300.0))
    c_max = inst.capacity_table.max_capacity_mbps
    built = milp.build_throughput_model(inst)
    assert built.bound == c_max / 2 == oracle.enumerate_optimal_throughput(inst)

    # Seeded, the presolved pinned run solves the model outright and the
    # full run proves that start optimal at the root.
    seeded = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    assert seeded.status is SolveStatus.OPTIMAL and seeded.objective == c_max / 2

    # Unseeded, HiGHS stops at the bound and returns the point it proves
    # without it.
    built.ir.seed = ()
    runs = _spy_highs(monkeypatch)
    stopped = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    assert HighsModelStatus.kObjectiveTarget in runs
    built.ir.bound = None
    plain = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    assert stopped.status is plain.status is SolveStatus.OPTIMAL
    assert np.array_equal(stopped.values, plain.values)

    monkeypatch.setattr(builder, "_first_hop_bound", lambda hop_caps, k: math.inf)
    assert milp.model_bound(inst, milp.THROUGHPUT) == c_max


def test_sector_sets_count_a_grid_sectors_lowest_level(monkeypatch):
    # Each UE hears the other sector only 5 dB below its own.  On the grid
    # {0, 3150, 6300} mW a sector that is on sends at least 3150 mW, so
    # with both on each one's top capacity falls, and the term reads the
    # optimum, below the interference-free C/2.  Counted at 6300 mW, the
    # top level, the same sets would read below the optimum.
    inst = _three_ue_instance(85.0, default_power_levels(6300.0, 3))
    optimum = oracle.enumerate_optimal_throughput(inst)
    built = milp.build_throughput_model(inst)
    assert built.bound == pytest.approx(optimum, rel=1e-12)
    assert built.bound >= optimum and built.bound < inst.capacity_table.max_capacity_mbps / 2
    solution = milp.solve_extracted(built, SolverOptions(time_limit_s=60))
    assert solution.objective == pytest.approx(optimum, rel=1e-9)
    monkeypatch.setattr(builder._Reps, "rise", property(lambda reps: reps.hi.copy()))
    assert milp.model_bound(inst, milp.THROUGHPUT) < optimum * (1.0 - 1e-6)


def test_first_hop_term_is_interference_free_without_a_rising_power(monkeypatch):
    # Fixed and continuous powers rise by 0 while on, so no sector set is
    # enumerated: the term is the apportionment of the interference-free
    # capacities, bit for bit, on all-fixed trials, one-free continuous
    # trials and continuous exact models.
    calls = []
    real = builder._first_hop_term

    def spy(instance, lad, first, rise, hop_caps, k):
        term = real(instance, lad, first, rise, hop_caps, k)
        calls.append((rise, term, builder._first_hop_bound(hop_caps, k)))
        return term

    monkeypatch.setattr(builder, "_first_hop_term", spy)
    rng = np.random.default_rng(47)
    for _ in range(10):
        inst = random_small_instance(rng, max_units=4, max_ues=4)
        continuous = inst.with_power_mode(ContinuousPower())
        fids = sorted(n.id for n in inst.graph.frontends)
        fixed = {f: float(rng.choice((0.0, 3150.0, 6300.0))) for f in fids}
        for model, powers in ((inst, fixed), (continuous, {f: fixed[f] for f in fids[1:]})):
            milp.model_bound(model, milp.THROUGHPUT, powers)
        milp.model_bound(continuous, milp.THROUGHPUT)
    assert len(calls) == 30
    for rise, term, flat in calls:
        assert not rise.any() and term == flat


def test_model_bound_is_the_built_models_bound():
    # The bound asked before a build is the one the built model records,
    # to the last bit: all-fixed and one-free trials of both problems.
    grid = DiscretePower(default_power_levels(6300.0, 5))
    rng = np.random.default_rng(43)
    for _ in range(10):
        inst = random_small_instance(rng, max_units=4, max_ues=4)
        fids = sorted(n.id for n in inst.graph.frontends)
        fixed = {f: float(rng.choice(grid.levels_mw)) for f in fids}
        one_free = {f: p for f, p in fixed.items() if f != fids[0]}
        for model, powers in ((inst, fixed), (inst.with_power_mode(grid), one_free)):
            for problem in (milp.THROUGHPUT, milp.ENERGY):
                built = milp.build(model, problem, powers)
                assert milp.model_bound(model, problem, powers) == built.bound


def test_model_bound_declares_no_model(monkeypatch):
    # The bound comes from the head of the build alone: with no model
    # declarable at all, it still equals the built model's bound.
    grid = DiscretePower(default_power_levels(6300.0, 5))
    inst = two_unit_instance(demand=20.0).with_power_mode(grid)
    trials = [
        (problem, powers)
        for problem in (milp.THROUGHPUT, milp.ENERGY)
        for powers in ({1: 6300.0, 11: 3150.0}, {11: 3150.0})
    ]
    bounds = [milp.build(inst, problem, powers).bound for problem, powers in trials]

    def no_model(*args, **kwargs):
        raise AssertionError("a model was declared")

    monkeypatch.setattr(builder, "ModelIR", no_model)
    assert [milp.model_bound(inst, problem, powers) for problem, powers in trials] == bounds


def test_extraction_holds_the_answer_to_the_rate_bound():
    inst = _single_frontend_instance(coarse_table(), [80.0])
    built = milp.build_throughput_model(inst)
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
    z = milp.extract_solution(built, raw).objective
    assert built.bound == pytest.approx(z, rel=1e-9)
    built.ir.bound = z * (1.0 - 2e-6)
    with pytest.raises(ExtractionMismatch, match="proven bound"):
        milp.extract_solution(built, raw)


def test_extraction_holds_the_answer_to_the_power_bound():
    built = milp.build_energy_model(two_unit_instance(demand=20.0))
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
    p = milp.extract_solution(built, raw).objective
    assert built.bound <= p * (1.0 + 1e-9)
    built.ir.bound = p * (1.0 + 2e-6)
    with pytest.raises(ExtractionMismatch, match="network power .* proven bound"):
        milp.extract_solution(built, raw)


def test_exact_grid_models_cap_z_at_the_proven_bound():
    # Exact throughput models on a power grid carry their proven bound in
    # Z's column too, so even a solve without the stop cannot pass it.
    # Under a Z capped only at the table's top, the ninth draw below
    # (one frontend, {0, p_max}) bent its airtime rows within HiGHS's
    # tolerance to 408.975022 Mbps, past its bound 408.975021.
    rng = np.random.default_rng(25)
    inst = [random_small_instance(rng, max_units=4, max_ues=4) for _ in range(9)][-1]
    built = milp.build(inst, milp.THROUGHPUT)
    bound, built.ir.bound = built.bound, None
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.objective <= bound

    # Continuous exact, all-fixed and one-free models keep the table's top.
    inst = two_unit_instance()
    c_max = inst.capacity_table.max_capacity_mbps
    grid = inst.with_power_mode(DiscretePower(default_power_levels(6300.0, 5)))
    for model, powers, capped in (
        (inst, None, True),
        (grid, None, True),
        (inst.with_power_mode(ContinuousPower()), None, False),
        (inst, {1: 6300.0, 11: 6300.0}, False),
        (inst.with_power_mode(FixedPower({1: 6300.0, 11: 3150.0})), None, False),
        (inst, {11: 6300.0}, False),
        (grid, {11: 3150.0}, False),
    ):
        built = milp.build(model, milp.THROUGHPUT, powers)
        assert built.bound < c_max
        z_ub = built.ir.ub[built.ir.var_names.index("Z")]
        assert z_ub == (min(c_max, built.bound) if capped else c_max)


MULTI_LEVEL_GRID = (0.0, 2100.0, 4200.0, 6300.0)


@pytest.mark.parametrize("seed", range(12))
def test_multi_level_grid_matches_brute_force(seed):
    # Criterion 4's instances only use {0, p} grids; this runs the same
    # comparison on a grid with several levels above zero.
    rng = np.random.default_rng(seed)
    inst = random_small_instance(
        rng, table=coarse_table(), levels=MULTI_LEVEL_GRID, demand_range=(0.5, 2.0)
    )
    rel_tol = 1e-6

    built = milp.build_throughput_model(inst)
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    milp.extract_solution(built, raw)
    z_oracle = oracle.enumerate_optimal_throughput(inst)
    assert abs(raw.objective - z_oracle) <= rel_tol * max(abs(z_oracle), 1.0)

    built = milp.build_energy_model(inst)
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    try:
        p_oracle = oracle.enumerate_optimal_energy(inst)
    except NoFeasible:
        assert raw.status is SolveStatus.INFEASIBLE
        return
    assert raw.status is not SolveStatus.INFEASIBLE
    milp.extract_solution(built, raw)
    assert abs(raw.objective - p_oracle) <= rel_tol * max(abs(p_oracle), 1.0)


def _two_sector_instance(p_active_unit_w):
    """Donor unit 0 with opposite sectors 1 and 2, a UE in front of each,
    and an MT-DU unit 1 with frontend 11."""
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=0.0),
        Node(2, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=180.0),
        Node(10, NodeKind.MT_DU, (200.0, 0.0, 10.0), unit_id=1),
        Node(11, NodeKind.FRONTEND, (200.0, 0.0, 10.0), unit_id=1, sector_azimuth_deg=180.0),
        Node(20, NodeKind.UE, (80.0, 0.0, 1.5)),
        Node(21, NodeKind.UE, (-80.0, 0.0, 1.5)),
    ]
    edges = [Edge(0, 1, EdgeKind.WIRED), Edge(0, 2, EdgeKind.WIRED), Edge(10, 11, EdgeKind.WIRED)]
    for src, dst, pl in [(1, 10, 95.0), (1, 20, 85.0), (2, 21, 85.0), (1, 21, 85.0),
                         (2, 20, 85.0), (11, 20, 96.0)]:
        edges.append(Edge(src, dst, EdgeKind.WIRELESS, pathloss_db=pl, los=True))
    return ProblemInstance(
        graph=build_graph(nodes, edges),
        commodities=(Commodity(0, 0, 20, 700.0), Commodity(1, 0, 21, 700.0)),
        radio=RadioParams(),
        power_model=PowerModelParams(p_active_unit_w=p_active_unit_w),
        capacity_table=coarse_table(),
        power_mode=DiscretePower((0.0, 3150.0, 6300.0)),
    )


def test_unit_power_adder_matches_brute_force():
    # Both donor sectors serve and unit 1 sleeps, so the per-unit adder
    # counts once, for unit 0, not once per active frontend.
    optima = {}
    for unit_w in (0.0, 25.0):
        inst = _two_sector_instance(unit_w)
        built = milp.build_energy_model(inst)
        raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
        optima[unit_w] = oracle.enumerate_optimal_energy(inst)
        assert raw.objective == pytest.approx(optima[unit_w], rel=1e-9)
        assert milp.extract_solution(built, raw).activations == {1: 1, 2: 1, 11: 0}
    assert optima[25.0] == pytest.approx(optima[0.0] + 25.0, rel=1e-12)


@pytest.mark.parametrize("problem", ["throughput", "energy"])
def test_multi_level_power_is_one_column(problem):
    inst = two_unit_instance(levels=default_power_levels(6300.0, 5))
    built = milp.build(inst, problem)
    reps = built.power_reps
    names = built.ir.var_names
    rows = model_rows(built.ir)
    for fid, j in reps.col.items():
        pw = int(reps.var[j])
        assert names[pw] == f"pw[{fid}]" and reps.coef[j] == reps.hi[j] == 6300.0
        (row,) = [r for r in rows if r.name == f"pw_def[{fid}]"]
        levels, binaries = level_terms(reps, j)
        assert row.lo == row.hi == 0.0
        assert sorted(row.terms, key=lambda t: t[1]) == sorted(
            [(1.0, pw)] + [(-l / 6300.0, i) for l, i in zip(levels.tolist(), binaries.tolist())],
            key=lambda t: t[1],
        )
    # Each SINR row reads one column per frontend, plus its phi (whose
    # coefficient is a big-M, dropped where it is 0).
    phi = {i for j in range(len(built.routing_wireless)) for i in _phi_cols(built, j)}
    thr = [r for r in rows if r.name.startswith("thr[")]
    assert thr
    for r in thr:
        cols = [i for _, i in r.terms]
        assert len(cols) == len(set(cols))
        assert sum(i in phi for i in cols) <= 1
        assert set(cols) - phi <= set(reps.var.tolist())

    raw = milp.solve(built.ir, SolverOptions(time_limit_s=60))
    milp.extract_solution(built, raw)
    powers = milp.frontend_powers(built, raw)
    for fid, j in reps.col.items():
        p = powers[fid]
        assert abs(raw.values[reps.var[j]] * reps.hi[j] - p) <= 1e-6 * reps.hi[j]


def test_single_level_grid_has_no_power_column():
    for build in (milp.build_throughput_model, milp.build_energy_model):
        built = build(two_unit_instance())
        assert not any(n.startswith("pw[") for n in built.ir.var_names)
        assert not any(n.startswith("pw_def[") for n in built.ir.row_names)


@pytest.mark.parametrize(
    "mode",
    [
        ContinuousPower(),
        DiscretePower((0.0, 6300.0)),
        DiscretePower(default_power_levels(6300.0, 5)),
    ],
    ids=["continuous", "single_level", "grid"],
)
def test_exact_throughput_seed_is_every_top_power(mode):
    # The exact throughput model's seed is one column per frontend, at its
    # top power: ptx at p_max, a single level's binary, or the binary of a
    # grid's top level.  All-fixed and one-free models of either problem
    # get none; the exact energy model gets its awake-set seed.
    inst = two_unit_instance().with_power_mode(mode)
    built = milp.build(inst, milp.THROUGHPUT)
    fids = sorted(built.power_reps.col)
    seed, values = built.ir.seed
    names = [built.ir.var_names[i] for i in seed.tolist()]
    assert (values == built.ir.ub[seed]).all()
    if isinstance(mode, ContinuousPower):
        assert names == [f"ptx[{f}]" for f in fids]
        assert (built.ir.ub[seed] == inst.radio.p_max_mw).all()
    else:
        top = len(mode.levels_mw) - 2
        assert names == [f"lam[{f},{top}]" for f in fids]
        assert built.ir.binary[seed].all() and (built.ir.ub[seed] == 1.0).all()

    # Started at given powers, the seed pins ptx at each power; on a grid
    # it pins the binary of each power's level at 1, or every level binary
    # of a frontend started at 0 at 0.  A power off the grid is refused.
    low = mode.levels_mw[1] if isinstance(mode, DiscretePower) else 1234.5
    start = {fids[0]: 0.0, fids[1]: low}
    seed, values = milp.build(inst, milp.THROUGHPUT, start=start).ir.seed
    pinned = dict(zip((built.ir.var_names[i] for i in seed.tolist()), values.tolist()))
    if isinstance(mode, ContinuousPower):
        assert pinned == {f"ptx[{fids[0]}]": 0.0, f"ptx[{fids[1]}]": low}
    else:
        levels = len(mode.levels_mw) - 1
        assert pinned == {
            **{f"lam[{fids[0]},{i}]": 0.0 for i in range(levels)},
            f"lam[{fids[1]},{mode.levels_mw.index(low) - 1}]": 1.0,
        }
        with pytest.raises(ValueError, match="not a grid level"):
            milp.build(inst, milp.THROUGHPUT, start={**start, fids[1]: 1000.0})

    all_max = {f: 6300.0 for f in fids}
    one_free = {f: 6300.0 for f in fids[1:]}
    trials = [
        (milp.THROUGHPUT, inst, all_max),
        (milp.THROUGHPUT, inst, one_free),
        (milp.THROUGHPUT, inst.with_power_mode(FixedPower(all_max)), None),
    ]
    if not isinstance(mode, ContinuousPower):
        trials += [(milp.ENERGY, inst, powers) for powers in (all_max, one_free)]
        assert milp.build(inst, milp.ENERGY).ir.seed
    for problem, model, powers in trials:
        assert milp.build(model, problem, powers).ir.seed == ()


def _seeded_instances():
    """The pinned exact throughput models, then random draws alone and on a 5-level grid."""
    rng = np.random.default_rng(25)
    draws = [random_small_instance(rng, max_units=4, max_ues=4) for _ in range(8)]
    grid = DiscretePower(default_power_levels(6300.0, 5))
    return [
        two_unit_instance(),
        *(random_small_instance(np.random.default_rng(s)) for s in range(3)),
        *draws,
        *(d.with_power_mode(grid) for d in draws[:4]),
    ]


def test_seeded_and_unseeded_solves_reach_one_optimum():
    # The start changes where HiGHS begins, not what it proves: with and
    # without the seed the exact model of either problem reaches one
    # optimum (within criterion 4's 1e-6 relative), and the seeded answer
    # extracts and validates.
    problems = (milp.THROUGHPUT, milp.ENERGY)
    for problem, inst in itertools.product(problems, _seeded_instances()):
        built = milp.build(inst, problem)
        assert built.ir.seed
        seeded = milp.solve(built.ir, SolverOptions(time_limit_s=60))
        solution = milp.extract_solution(built, seeded)
        assert validate_solution(inst, solution).ok
        built.ir.seed = ()
        plain = milp.solve(built.ir, SolverOptions(time_limit_s=60))
        assert seeded.status is plain.status is SolveStatus.OPTIMAL
        assert seeded.objective == pytest.approx(plain.objective, rel=1e-6)


def _relay_instance(relays: int) -> ProblemInstance:
    """A UE at the end of a chain of ``relays`` units behind the donor's unit.

    Frontends 1, 3, 5, ... sit on units 0, 1, 2, ...; each unit's frontend
    reaches the next unit's MT+DU, and only the last frontend reaches the UE.
    """
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
    ]
    edges = [Edge(0, 1, EdgeKind.WIRED)]
    for unit in range(1, relays + 1):
        x = 100.0 * unit
        nodes += [
            Node(2 * unit, NodeKind.MT_DU, (x, 0.0, 10.0), unit_id=unit),
            Node(2 * unit + 1, NodeKind.FRONTEND, (x, 0.0, 10.0), unit_id=unit),
        ]
        edges += [
            Edge(2 * unit - 1, 2 * unit, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
            Edge(2 * unit, 2 * unit + 1, EdgeKind.WIRED),
        ]
    ue = 2 * relays + 2
    nodes.append(Node(ue, NodeKind.UE, (100.0 * relays + 20.0, 10.0, 1.5)))
    edges.append(Edge(ue - 1, ue, EdgeKind.WIRELESS, pathloss_db=80.0, los=True))
    return ProblemInstance(
        graph=build_graph(nodes, edges),
        commodities=(Commodity(0, 0, ue, 5.0),),
        capacity_table=coarse_table(),
        power_mode=DiscretePower(default_power_levels(6300.0, 5)),
    )


def _awake(built) -> list[str]:
    """The columns an energy seed pins at 1."""
    cols, values = built.ir.seed
    return [built.ir.var_names[c] for c in cols[values == 1.0].tolist()]


def test_energy_seed_wakes_the_fewest_frontends_that_reach_every_ue():
    # The exact energy model's seed wakes the fewest frontends whose live
    # edges reach every UE from the donor, and pins every level binary of
    # the others at 0.  Behind one relay that is the donor's frontend and
    # the relay's; a UE that needs more than three gets no seed.
    built = milp.build(_relay_instance(1), milp.ENERGY)
    assert _awake(built) == ["act[1]", "act[3]"]
    assert len(built.ir.seed[0]) == 2  # an awake frontend's levels stay free
    seeded = milp.solve_extracted(built, SolverOptions(time_limit_s=60))
    assert {fid for fid, p in seeded.powers_mw.items() if p > 0} == {1, 3}
    assert _awake(milp.build(_relay_instance(2), milp.ENERGY)) == ["act[1]", "act[3]", "act[5]"]
    assert milp.build(_relay_instance(3), milp.ENERGY).ir.seed == ()
    # Only routing edges reach: without the UE's one in-edge no set does.
    built = milp.build(_relay_instance(1), milp.ENERGY, routing_edges=[(0, 1), (1, 2), (2, 3)])
    assert built.ir.seed == ()

    # Every frontend left out of the set has each level binary pinned at 0.
    inst = two_unit_instance().with_power_mode(DiscretePower(default_power_levels(6300.0, 5)))
    built = milp.build(inst, milp.ENERGY)
    cols, values = built.ir.seed
    pinned = dict(zip((built.ir.var_names[c] for c in cols.tolist()), values.tolist()))
    assert pinned == {"act[1]": 1.0, **{f"lam[11,{i}]": 0.0 for i in range(4)}}


def test_search_started_solves_reach_the_seeded_optimum():
    # Started at the throughput search's powers, as selective reduction
    # starts it, the exact model reaches the all-max-seeded optimum, and
    # its answer extracts and validates.
    options = SearchOptions(solve_time_limit_s=20.0, global_budget_s=120.0)
    for inst in _seeded_instances():
        state, _ = heuristics._throughput_search(inst, options, heuristics._Clock(120.0))
        started = milp.build(inst, milp.THROUGHPUT, start=state.curr_best_sol)
        default = milp.build(inst, milp.THROUGHPUT)
        assert started.ir.seed
        raw = milp.solve(started.ir, SolverOptions(time_limit_s=60))
        solution = milp.extract_solution(started, raw)
        assert validate_solution(inst, solution).ok
        seeded = milp.solve(default.ir, SolverOptions(time_limit_s=60))
        assert raw.status is seeded.status is SolveStatus.OPTIMAL
        assert raw.objective == pytest.approx(seeded.objective, rel=1e-6)
