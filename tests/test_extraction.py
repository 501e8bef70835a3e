"""Extraction rejects solver values the model and the physics disagree on.

Each test solves a small model, tampers with ``raw.values`` and expects
``ExtractionMismatch``: a binary column off its integer, a broken ``phi``
chain, or an unbroken chain that grants one ladder level more than a
direct SINR recompute at the extracted powers does.  A level whose
threshold the recompute misses only within the 1e-4 relative slack is
accepted.  A capacity below the link's flow passes those checks and
fails the oracle's re-validation, whose report the error carries.  A
time-limited answer with values extracts as feasible.
"""

import dataclasses

import numpy as np
import pytest

from iabtopo import milp
from iabtopo.channel import RadioParams, link_budgets
from iabtopo.errors import ExtractionMismatch
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph
from iabtopo.milp import SolverOptions
from iabtopo.milp.builder import MIN_ON_POWER_FRACTION
from iabtopo.problem import ContinuousPower, ProblemInstance, SolveStatus, default_power_levels

from conftest import coarse_table, level_terms, two_unit_instance

NOISE_MW = 1e-9


def _col(built, name):
    """Column index of the IR variable called ``name``."""
    return built.ir.var_names.index(name)


def _solved(built):
    raw = milp.solve(built.ir, SolverOptions(time_limit_s=30))
    assert raw.status is SolveStatus.OPTIMAL
    milp.extract_solution(built, raw)  # untampered values extract
    return raw


def _tampered(raw, changes):
    values = raw.values.copy()
    for col, v in changes.items():
        values[col] = v
    return dataclasses.replace(raw, values=values)


def _energy_model():
    """Two units on a 5-level grid: flows, activations and level binaries."""
    inst = two_unit_instance(levels=default_power_levels(6300.0, 5))
    built = milp.build_energy_model(inst)
    return built, _solved(built)


def _continuous_link():
    """One frontend, one UE, continuous power; at p_max S/N is 6 dB above the top step."""
    table = coarse_table()
    radio = RadioParams(noise_mw=NOISE_MW)
    top_db = table.thresholds_db[-1]
    pathloss = radio.g_tx_main_dbi + radio.g_rx_main_dbi - (
        top_db + 6.0 + 10 * np.log10(NOISE_MW / radio.p_max_mw)
    )
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(10, NodeKind.UE, (50.0, 0.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(1, 10, EdgeKind.WIRELESS, pathloss_db=float(pathloss), los=True),
    ]
    inst = ProblemInstance(
        graph=build_graph(nodes, edges),
        commodities=(Commodity(0, 0, 10, 5.0),),
        radio=radio,
        capacity_table=table,
        power_mode=ContinuousPower(),
    )
    built = milp.build_throughput_model(inst)
    return inst, built, _solved(built)


def _phi_cols(built, n_levels):
    return [_col(built, f"phi[1->10,{i}]") for i in range(n_levels)]


def _flow_col(built, raw):
    names = built.ir.var_names
    return next(i for i, n in enumerate(names) if n.startswith("f[") and raw.values[i] > 0.5)


@pytest.mark.parametrize("column", ["flow", "act", "level"])
def test_fractional_energy_binary_is_rejected(column):
    built, raw = _energy_model()
    if column == "flow":
        col = _flow_col(built, raw)
    elif column == "act":
        col = _col(built, "act[1]")
    else:
        col = _col(built, "lam[1,2]")
    with pytest.raises(ExtractionMismatch, match="binary value 0.5"):
        milp.extract_solution(built, _tampered(raw, {col: 0.5}))


def test_fractional_binary_is_named_by_its_column():
    built, raw = _energy_model()
    with pytest.raises(ExtractionMismatch, match=r"^lam\[1,2\]: binary value 0.5"):
        milp.extract_solution(built, _tampered(raw, {_col(built, "lam[1,2]"): 0.5}))


def test_broken_phi_chain_is_rejected():
    inst, built, raw = _continuous_link()
    phi = _phi_cols(built, len(inst.capacity_table.entries))
    assert [raw.values[c] for c in phi][:2] == pytest.approx([1.0, 1.0])
    with pytest.raises(ExtractionMismatch, match="chain"):
        milp.extract_solution(built, _tampered(raw, {phi[0]: 0.0}))


def _at_top_threshold(inst, built, raw, shortfall):
    """Values whose power puts S at (1 - shortfall) times the top step's threshold."""
    table = inst.capacity_table
    n = len(table.entries)
    assert [round(raw.values[c]) for c in _phi_cols(built, n)] == [1] * n
    edge = inst.graph.edge(1, 10)
    p_max = inst.radio.p_max_mw
    budgets = link_budgets(inst.graph, [edge], inst.radio)
    s_max, i_max = budgets({1: p_max})[edge.key]
    target = table.thresholds_linear[-1] * i_max * (1.0 - shortfall)
    power = p_max * target / s_max
    tampered = _tampered(raw, {_col(built, "ptx[1]"): power})
    s, i = budgets({1: power})[edge.key]
    assert s < table.thresholds_linear[-1] * i
    return tampered


def test_level_past_the_recompute_is_rejected():
    inst, built, raw = _continuous_link()
    tampered = _at_top_threshold(inst, built, raw, shortfall=2e-4)
    with pytest.raises(ExtractionMismatch, match="ladder levels"):
        milp.extract_solution(built, tampered)


def test_level_within_the_slack_is_accepted():
    inst, built, raw = _continuous_link()
    tampered = _at_top_threshold(inst, built, raw, shortfall=0.5e-4)
    sol = milp.extract_solution(built, tampered)
    assert sol.capacities_mbps[(1, 10)] == pytest.approx(inst.capacity_table.max_capacity_mbps)


def _powers_by_loop(built, raw):
    """One frontend at a time, as extraction read powers before it read arrays."""
    reps = built.power_reps
    p_eps = MIN_ON_POWER_FRACTION * built.instance.radio.p_max_mw
    out = {}
    for fid, j in reps.col.items():
        if reps.cont[j] >= 0:
            p = max(float(raw.values[reps.cont[j]]), 0.0)
            out[fid] = 0.0 if p < p_eps else p
            continue
        levels, binaries = level_terms(reps, j)
        if not len(binaries):
            out[fid] = float(reps.lo[j])
            continue
        out[fid] = sum(
            lvl * round(float(raw.values[i])) for lvl, i in zip(levels.tolist(), binaries.tolist())
        )
    return out


@pytest.mark.parametrize("model", ["energy_grid", "throughput_fixed", "throughput_continuous"])
def test_frontend_powers_match_the_loop(model):
    if model == "energy_grid":
        built, raw = _energy_model()
    elif model == "throughput_fixed":
        inst = two_unit_instance()
        built = milp.build_throughput_model(inst, fixed_powers={1: 6300.0, 11: 0.0})
        raw = _solved(built)
    else:
        _, built, raw = _continuous_link()
    powers = milp.frontend_powers(built, raw)
    assert list(powers) == list(built.power_reps.col)
    assert powers == _powers_by_loop(built, raw)
    assert all(type(p) is float for p in powers.values())


def test_time_limited_answer_extracts_as_feasible():
    # An incumbent the time limit stopped at has values but no proof.
    built, raw = _energy_model()
    sol = milp.extract_solution(built, dataclasses.replace(raw, status=SolveStatus.TIME_LIMIT))
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.objective == milp.extract_solution(built, raw).objective


def test_answer_that_fails_revalidation_carries_the_report():
    # Half the capacity HiGHS claims for the link passes every check before
    # the oracle's, which finds the flow above it.
    inst, built, raw = _continuous_link()
    cap = _col(built, "cap[1->10]")
    with pytest.raises(ExtractionMismatch, match="re-validation: LinkOverload@1,10") as exc:
        milp.extract_solution(built, _tampered(raw, {cap: raw.values[cap] / 2}))
    report = exc.value.report
    assert not report.ok
    assert [(v.rule, v.location) for v in report.violations] == [("LinkOverload", (1, 10))]
