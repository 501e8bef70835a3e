import itertools
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from iabtopo import scenario
from iabtopo.capacity import default_table
from iabtopo.errors import BackendError, NonPositiveBigM, UnboundedContinuous
from iabtopo.milp import (
    ModelIR,
    Sense,
    SolverOptions,
    VarKind,
    build_throughput_model,
    extract_solution,
    linearize_binary_product,
    linearize_indicator,
    solve,
)
from iabtopo.milp import backend
from iabtopo.graph import Commodity
from iabtopo.problem import ContinuousPower, ProblemInstance, SolveStatus


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(time_limit_s=0)


def test_trivial_model_optimal():
    ir = ModelIR("trivial")
    x = ir.add_var("x", VarKind.CONTINUOUS, 0, 10)
    ir.add_constraint("cap", [(1.0, x)], Sense.LE, 4.0)
    ir.set_objective("max", [(1.0, x)])
    raw = solve(ir)
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.objective == pytest.approx(4.0)
    assert raw.value(x) == pytest.approx(4.0)


def test_contradictory_bounds_infeasible():
    ir = ModelIR("infeasible")
    z = ir.add_var("z", VarKind.CONTINUOUS, 0, 100)
    ir.add_constraint("lo", [(1.0, z)], Sense.GE, 10.0)
    ir.add_constraint("hi", [(1.0, z)], Sense.LE, 5.0)
    ir.set_objective("max", [(1.0, z)])
    raw = solve(ir)
    assert raw.status is SolveStatus.INFEASIBLE
    assert raw.values is None


def test_minimize_with_constant_offset():
    ir = ModelIR("offset")
    x = ir.add_var("x", VarKind.CONTINUOUS, 2, 10)
    ir.set_objective("min", [(3.0, x)], constant=7.0)
    raw = solve(ir)
    assert raw.objective == pytest.approx(13.0)


def test_duplicate_variable_names_rejected():
    ir = ModelIR()
    ir.add_var("x")
    with pytest.raises(ValueError):
        ir.add_var("x")


def test_lp_text_dump():
    ir = ModelIR("dump")
    x = ir.add_var("x", VarKind.CONTINUOUS, 0, 5)
    b = ir.add_var("b", VarKind.BINARY)
    ir.add_constraint("row", [(1.0, x), (-2.0, b)], Sense.LE, 3.0)
    ir.set_objective("max", [(1.0, x)])
    text = ir.lp_text()
    assert "Maximize" in text
    assert "x - 2 b <= 3" in text
    assert "Binaries" in text


# -- indicator linearization ------------------------------------------------


def _indicator_model(phi_value, sense, big_m, coeff=1.0, const=0.0):
    ir = ModelIR()
    x = ir.add_var("x", VarKind.CONTINUOUS, -50, 50)
    phi = ir.add_var("phi", VarKind.BINARY)
    ir.fix_var(phi, phi_value)
    linearize_indicator(ir, [(coeff, x)], const, phi, sense, big_m, "ind")
    return ir, x, phi


def test_indicator_fixed_on_forces_expression_nonnegative():
    ir, x, _ = _indicator_model(1, "geq", 100.0)
    ir.set_objective("min", [(1.0, x)])
    raw = solve(ir)
    assert raw.value(x) == pytest.approx(0.0, abs=1e-7)


def test_indicator_fixed_off_forces_upper_branch():
    ir, x, _ = _indicator_model(0, "leq", 100.0)
    ir.set_objective("max", [(1.0, x)])
    raw = solve(ir)
    assert raw.value(x) == pytest.approx(0.0, abs=1e-7)


def test_indicator_off_relaxes_lower_branch():
    ir, x, _ = _indicator_model(0, "geq", 100.0)
    ir.set_objective("min", [(1.0, x)])
    raw = solve(ir)
    assert raw.value(x) == pytest.approx(-50.0, abs=1e-6)


def test_indicator_rejects_negative_big_m():
    ir = ModelIR()
    x = ir.add_var("x")
    phi = ir.add_var("phi", VarKind.BINARY)
    with pytest.raises(NonPositiveBigM):
        linearize_indicator(ir, [(1.0, x)], 0.0, phi, "geq", -1.0, "bad")


def test_indicator_pair_matches_pointwise_logic():
    # Evaluate the emitted rows on a grid: a (x, phi) point satisfies the
    # big-M pair iff it satisfies the implications.
    ir = ModelIR()
    x = ir.add_var("x", VarKind.CONTINUOUS, -50, 50)
    phi = ir.add_var("phi", VarKind.BINARY)
    big_m = 60.0
    linearize_indicator(ir, [(1.0, x)], 0.0, phi, "geq", big_m, "p")
    linearize_indicator(ir, [(1.0, x)], 0.0, phi, "leq", big_m, "p")

    def rows_hold(x_val, phi_val):
        values = {x: x_val, phi: phi_val}
        for con in ir.constraints:
            lhs = sum(c * values[i] for c, i in con.terms)
            if con.sense is Sense.GE and lhs < con.rhs - 1e-9:
                return False
            if con.sense is Sense.LE and lhs > con.rhs + 1e-9:
                return False
        return True

    for x_val in np.linspace(-50, 50, 41):
        for phi_val in (0, 1):
            implication = x_val >= -1e-9 if phi_val == 1 else x_val <= 1e-9
            assert rows_hold(float(x_val), phi_val) == implication


# -- product linearization -----------------------------------------------------


def test_product_corners():
    for b_val, c_val in itertools.product((0, 1), (0.0, 0.37, 1.0)):
        ir = ModelIR()
        b = ir.add_var("b", VarKind.BINARY)
        c = ir.add_var("c", VarKind.CONTINUOUS, 0, 1)
        ir.fix_var(b, b_val)
        ir.fix_var(c, c_val)
        y = linearize_binary_product(ir, b, c, 1.0, "y")
        ir.set_objective("max", [(1.0, y)])
        raw = solve(ir)
        assert raw.status is SolveStatus.OPTIMAL
        assert raw.value(y) == pytest.approx(b_val * c_val, abs=1e-9)
        ir.set_objective("min", [(1.0, y)])
        raw = solve(ir)
        assert raw.value(y) == pytest.approx(b_val * c_val, abs=1e-9)


def test_product_requires_finite_upper_bound():
    ir = ModelIR()
    b = ir.add_var("b", VarKind.BINARY)
    c = ir.add_var("c", VarKind.CONTINUOUS, 0, float("inf"))
    with pytest.raises(UnboundedContinuous):
        linearize_binary_product(ir, b, c, float("inf"), "y")


def test_time_limit_contract():
    # A crowded knapsack-style model at a tiny limit either proves
    # optimality instantly or reports the limit; the status contract is
    # what matters.
    rng = np.random.default_rng(0)
    ir = ModelIR("knapsack")
    xs = [ir.add_var(f"x{i}", VarKind.BINARY) for i in range(60)]
    w = rng.uniform(1, 10, size=60)
    v = rng.uniform(1, 10, size=60)
    ir.add_constraint("w", [(float(w[i]), xs[i]) for i in range(60)], Sense.LE, 25.0)
    ir.set_objective("max", [(float(v[i]), xs[i]) for i in range(60)])
    raw = solve(ir, SolverOptions(time_limit_s=0.01))
    assert raw.status in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)


def test_highs_optimal_verdict_kept_with_small_gap(monkeypatch):
    # HiGHS may stop "optimal" on a gap of a few 1e-9 (its own tolerances
    # on the objective); the backend keeps that verdict and the gap.
    ir = ModelIR("gap")
    x = ir.add_var("x", VarKind.BINARY)
    ir.set_objective("max", [(132.873741, x)])
    result = OptimizeResult(
        status=0, message="Optimal", x=np.array([1.0]), mip_gap=5.16e-9
    )
    monkeypatch.setattr(backend, "milp", lambda **kwargs: result)
    raw = solve(ir)
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.gap == 5.16e-9
    assert raw.objective == pytest.approx(132.873741)


# -- objective cutoff ----------------------------------------------------------


def _cutoff_model(sense, binary=True):
    # Pick two of a, b, c at costs 3, 2, 4 (LP relaxation without binaries),
    # plus a constant of 7: min 12, max 14.
    ir = ModelIR(f"cutoff-{sense}")
    kind = VarKind.BINARY if binary else VarKind.CONTINUOUS
    xs = [ir.add_var(name, kind, 0, 1) for name in "abc"]
    ir.add_constraint("two", [(1.0, x) for x in xs], Sense.EQ, 2.0)
    ir.set_objective(sense, list(zip((3.0, 2.0, 4.0), xs)), constant=7.0)
    return ir


_OPTIMA = [("min", 12.0), ("max", 14.0)]


@pytest.mark.parametrize("sense, optimum", _OPTIMA)
def test_cutoff_beyond_optimum_keeps_the_solve(sense, optimum):
    ir = _cutoff_model(sense)
    plain = solve(ir)
    assert plain.status is SolveStatus.OPTIMAL
    assert plain.objective == pytest.approx(optimum)
    looser = optimum + (0.5 if sense == "min" else -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = solve(ir, SolverOptions(cutoff=looser))
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.objective == plain.objective
    assert np.array_equal(raw.values, plain.values)


@pytest.mark.parametrize("binary", [True, False], ids=["milp", "lp"])
@pytest.mark.parametrize("margin", [0.0, 0.5e-6, 1.0])
@pytest.mark.parametrize("sense, optimum", _OPTIMA)
def test_cutoff_the_optimum_does_not_beat(sense, optimum, margin, binary):
    # HiGHS answers "infeasible" or "optimal" at the optimum here, and
    # ignores the bound on an LP; all of them mean nothing beats the cutoff.
    ir = _cutoff_model(sense, binary)
    cutoff = optimum - margin if sense == "min" else optimum + margin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = solve(ir, SolverOptions(cutoff=cutoff))
    assert raw.status is SolveStatus.CUTOFF
    assert raw.values is None and raw.objective is None
    with pytest.raises(BackendError):
        extract_solution(SimpleNamespace(ir=ir), raw)


def test_highs_debug_print_stays_off_stdout(capfd):
    # On this demo hour-6 phase-two trial, HiGHS under an objective bound
    # prints a debug line from C; it must reach stderr, not stdout.
    demo = Path(__file__).resolve().parent.parent / "demo"
    config = scenario.config_from_json(demo / "scenario_config.json")
    profile = scenario.load_profile_csv(demo / "weekly_load_profile.csv")
    graph, _ = scenario.generate(config, profile, 6)
    instance = ProblemInstance(
        graph=graph,
        commodities=tuple(
            Commodity(i, graph.donor.id, ue.id, 5.0) for i, ue in enumerate(graph.ues)
        ),
        radio=config.radio,
        power_model=config.power_model,
        capacity_table=default_table(config.radio.bandwidth_mhz, config.radio.mimo_layers),
        power_mode=ContinuousPower(),
    )
    on = (1, 2, 3, 14, 18, 19)
    fixed = {fid: 6300.0 if fid in on else 0.0 for fid in (*on, 5, 6, 9, 10, 11, 13, 15, 17)}
    built = build_throughput_model(instance, fixed_powers=fixed)
    raw = solve(built.ir, SolverOptions(cutoff=132.87374150000002))
    assert raw.status is SolveStatus.CUTOFF
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "HighsMipSolverData" in captured.err
