import itertools

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from iabtopo.errors import NonPositiveBigM, UnboundedContinuous
from iabtopo.milp import (
    ModelIR,
    Sense,
    SolverOptions,
    VarKind,
    linearize_binary_product,
    linearize_indicator,
    solve,
)
from iabtopo.milp import backend
from iabtopo.problem import SolveStatus


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
