import ctypes
import dataclasses
import itertools
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult
from scipy.optimize._highspy._core import HighsModelStatus, _Highs, cb

from iabtopo import milp, scenario
from iabtopo.capacity import default_table
from iabtopo.errors import BackendError
from iabtopo.milp import (
    ModelIR,
    SolverOptions,
    build_throughput_model,
    extract_solution,
    solve,
)
from iabtopo.milp import backend
from iabtopo.milp.ir import PRODUCT_ROWS, indicator_row, product_rows
from iabtopo.graph import Commodity
from iabtopo.oracle import validate_solution
from iabtopo.problem import ContinuousPower, DiscretePower, ProblemInstance, SolveStatus

from conftest import model_rows, random_small_instance
from test_model_identity import MODEL_SHA256, _build_args, _instance


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(time_limit_s=0)
    # NaN fails every comparison, so `<= 0` lets it in; HiGHS then runs
    # without a limit, and a NaN cutoff returns CUTOFF from every solve.
    with pytest.raises(ValueError, match="time_limit_s"):
        SolverOptions(time_limit_s=float("nan"))
    with pytest.raises(ValueError, match="cutoff"):
        SolverOptions(cutoff=float("nan"))
    SolverOptions(time_limit_s=float("inf"), cutoff=float("inf"))  # no limit; nothing beats it


def test_model_ir_refuses_bad_bounds_and_objectives():
    ir = ModelIR()
    with pytest.raises(ValueError, match="lb 2.0 above ub 1.0"):
        ir.add_vars(["x"], False, 2.0, 1.0)
    (x,) = ir.add_vars(["x"], False, 0.0, 1.0)
    with pytest.raises(ValueError, match="sense"):
        ir.set_objective("maximise", [x], [1.0])
    with pytest.raises(ValueError, match="unknown variable"):
        ir.set_objective("max", [x + 1], [1.0])


def test_trivial_model_optimal():
    ir = ModelIR()
    (x,) = ir.add_vars(["x"], False, 0, 10)
    ir.add_rows(["cap"], -np.inf, 4.0, [0], [x], [1.0])
    ir.set_objective("max", [x], [1.0])
    raw = solve(ir)
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.objective == pytest.approx(4.0)
    assert raw.values[x] == pytest.approx(4.0)


def test_contradictory_bounds_infeasible():
    ir = ModelIR()
    (z,) = ir.add_vars(["z"], False, 0, 100)
    ir.add_rows(["lo"], 10.0, np.inf, [0], [z], 1.0)
    ir.add_rows(["hi"], -np.inf, 5.0, [0], [z], 1.0)
    ir.set_objective("max", [z], [1.0])
    raw = solve(ir)
    assert raw.status is SolveStatus.INFEASIBLE
    assert raw.values is None


def test_minimize_with_constant_offset():
    ir = ModelIR()
    (x,) = ir.add_vars(["x"], False, 2, 10)
    ir.set_objective("min", [x], [3.0], constant=7.0)
    raw = solve(ir)
    assert raw.objective == pytest.approx(13.0)


def test_duplicate_variable_names_rejected():
    ir = ModelIR()
    ir.add_vars(["x"])
    with pytest.raises(ValueError):
        ir.add_vars(["x"])
    with pytest.raises(ValueError):
        ir.add_vars(["y", "x"])
    with pytest.raises(ValueError):
        ir.add_vars(["y", "y"])
    assert ir.var_names == ["x"]


def _mps_columns(path):
    """(column, row) -> coefficient of an MPS file's COLUMNS section."""
    lines = path.read_text().splitlines()
    section = lines[lines.index("COLUMNS") + 1 : lines.index("RHS")]
    return {
        (col, row): float(value)
        for col, row, value in (line.split() for line in section)
        if row != "'MARKER'"
    }


def test_dump_holds_the_model_highs_loads(tmp_path):
    # HiGHS drops a 5e-10 coefficient (below its small_matrix_value) at
    # load.  The solve counts it, and the dump holds what HiGHS minimises:
    # the max negated, no constant, and no b in row "tiny".
    ir = ModelIR()
    x, b = ir.add_vars(["x", "b"], [False, True], 0, [5, 1])
    ir.add_rows(["row", "tiny"], [-np.inf, 1.0], [3.0, np.inf],
                [0, 0, 1, 1], [x, b, x, b], [1.0, -2.0, 1.0, 5e-10])
    ir.set_objective("max", [x], [1.0], constant=7.0)
    raw = solve(ir)
    assert raw.status is SolveStatus.OPTIMAL and raw.objective == pytest.approx(12.0)
    assert raw.dropped == 1
    milp.write_model(ir, tmp_path / "m.lp")
    text = (tmp_path / "m.lp").read_text()
    assert "\nmin\n obj: -1 x \n" in text
    assert " row: +1 x -2 b <= +3\n tiny: +1 x >= +1\n" in text
    assert "\nbin\n b\n" in text
    milp.write_model(ir, tmp_path / "m.mps")
    assert _mps_columns(tmp_path / "m.mps") == {
        ("x", "Obj"): -1.0, ("x", "row"): 1.0, ("x", "tiny"): 1.0, ("b", "row"): -2.0
    }


# Rows as (name, terms, lo, hi, normalize): y's three terms sum in term
# order, the "zeros" row loses every term, "scaled" is divided, both
# bounds included, by its largest magnitude (4e-9 after summing z's two
# terms).
_ROWS = [
    ("dup", [(0.1, 1), (0.2, 0), (0.2, 1), (0.3, 1)], -np.inf, 1.5, False),
    ("zeros", [(0.0, 0), (2.0, 1), (-0.0, 2), (-2.0, 1)], 0.25, np.inf, False),
    ("scaled", [(-3e-9, 0), (2.5e-9, 2), (1.5e-9, 2)], 6e-9, 6e-9, True),
    ("empty", [], -np.inf, 3.0, True),
    ("unit", [(-1.0, 2), (1.0, 0)], -2.0, np.inf, True),
]


def _rows_model():
    ir = ModelIR()
    ir.add_vars(["x", "y", "z"], False, -5.0, 5.0)
    return ir


def test_block_rows_match_one_row_constraints():
    block = _rows_model()
    block.add_rows(
        [r[0] for r in _ROWS],
        [r[2] for r in _ROWS],
        [r[3] for r in _ROWS],
        [k for k, r in enumerate(_ROWS) for _ in r[1]],
        [i for r in _ROWS for _, i in r[1]],
        [c for r in _ROWS for c, _ in r[1]],
        normalize=[r[4] for r in _ROWS],
    )
    scale = 2.5e-9 + 1.5e-9
    rows, cols, coefs = block.coo()
    assert rows.dtype == cols.dtype == np.int64 and coefs.dtype == np.float64
    assert rows.tolist() == [0, 0, 2, 2, 4, 4]
    assert cols.tolist() == [0, 1, 0, 2, 0, 2]
    assert coefs.tolist() == [0.2, (0.1 + 0.2) + 0.3, -3e-9 / scale, 1.0, 1.0, -1.0]
    assert block.row_names == [r[0] for r in _ROWS]

    rows = {row.name: row for row in model_rows(block)}
    assert rows["dup"].terms == ((0.2, 0), ((0.1 + 0.2) + 0.3, 1))
    assert rows["zeros"].terms == ()
    assert rows["scaled"].terms == ((-3e-9 / scale, 0), (1.0, 2))
    assert rows["empty"].terms == ()
    assert rows["unit"].terms == ((1.0, 0), (-1.0, 2))
    lo, hi = block.row_bounds()
    assert lo.dtype == hi.dtype == np.float64
    assert list(lo) == [-np.inf, 0.25, 6e-9 / scale, -np.inf, -2.0]
    assert list(hi) == [1.5, np.inf, 6e-9 / scale, 3.0, np.inf]


@pytest.mark.parametrize("idx", [3, -1])
def test_unknown_variable_index_rejected(idx):
    ir = _rows_model()
    with pytest.raises(ValueError, match="unknown variable index"):
        ir.add_rows(["bad"], -np.inf, 0.0, [0, 0], [0, idx], [1.0, 0.0])
    with pytest.raises(ValueError, match="'bad2': unknown variable index"):
        ir.add_rows(["ok", "bad2"], -np.inf, 0.0, [0, 1], [1, idx], [1.0, 1.0])
    assert ir.num_rows == 0 and model_rows(ir) == []


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (np.nan, 1.0), (-np.inf, np.nan)])
def test_row_bounds_out_of_order_rejected(lo, hi):
    # As a column with lb above ub, a row whose bounds fail lo <= hi (NaN
    # included) is an error, not a model HiGHS would call infeasible.
    ir = _rows_model()
    with pytest.raises(ValueError, match="^constraint 'bad': lower bound"):
        ir.add_rows(["ok", "bad"], [0.0, lo], [0.0, hi], [0, 1], [0, 1], 1.0)
    assert ir.num_rows == 0 and model_rows(ir) == []


# -- indicator rows -------------------------------------------------------------


def _add_indicator(ir, x, phi, sense, big_m, coeff=1.0, const=0.0):
    """The builder's indicator row for expr = coeff*x + const against phi."""
    ind, lo, hi = indicator_row(sense, big_m, const)
    ir.add_rows([f"ind_{sense}"], lo, hi, [0, 0], [x, phi], [coeff, ind], True)


def _indicator_model(phi_value, sense, big_m, coeff=1.0, const=0.0):
    ir = ModelIR()
    x, phi = ir.add_vars(["x", "phi"], [False, True], [-50, phi_value], [50, phi_value])
    _add_indicator(ir, x, phi, sense, big_m, coeff, const)
    return ir, x, phi


def test_indicator_fixed_on_forces_expression_nonnegative():
    ir, x, _ = _indicator_model(1, "geq", 100.0)
    ir.set_objective("min", [x], [1.0])
    raw = solve(ir)
    assert raw.values[x] == pytest.approx(0.0, abs=1e-7)


def test_indicator_fixed_off_forces_upper_branch():
    ir, x, _ = _indicator_model(0, "leq", 100.0)
    ir.set_objective("max", [x], [1.0])
    raw = solve(ir)
    assert raw.values[x] == pytest.approx(0.0, abs=1e-7)


def test_indicator_off_relaxes_lower_branch():
    ir, x, _ = _indicator_model(0, "geq", 100.0)
    ir.set_objective("min", [x], [1.0])
    raw = solve(ir)
    assert raw.values[x] == pytest.approx(-50.0, abs=1e-6)


def test_indicator_pair_matches_pointwise_logic():
    # Evaluate the emitted rows on a grid: a (x, phi) point satisfies the
    # big-M pair iff it satisfies the implications on expr = x + const.
    big_m = 60.0
    for const in (0.0, -5.0):
        ir = ModelIR()
        x, phi = ir.add_vars(["x", "phi"], [False, True], [-50, 0], 50)
        _add_indicator(ir, x, phi, "geq", big_m, const=const)
        _add_indicator(ir, x, phi, "leq", big_m, const=const)

        def rows_hold(x_val, phi_val):
            values = {x: x_val, phi: phi_val}
            return all(
                row.lo - 1e-9 <= sum(c * values[i] for c, i in row.terms) <= row.hi + 1e-9
                for row in model_rows(ir)
            )

        for x_val in np.linspace(-50, 50, 41):
            for phi_val in (0, 1):
                expr = x_val + const
                implication = expr >= -1e-9 if phi_val == 1 else expr <= 1e-9
                assert rows_hold(float(x_val), phi_val) == implication


# -- product rows ----------------------------------------------------------------


def test_product_corners():
    for b_val, c_val in itertools.product((0, 1), (0.0, 0.37, 1.0)):
        ir = ModelIR()
        b, c, y = ir.add_vars(
            ["b", "c", "y"],
            [True, False, False],
            [b_val, c_val, 0.0],
            [b_val, c_val, 1.0],
        )
        rows, cols, coefs, lo, hi = product_rows(
            np.array([b]), np.array([c]), 1.0, np.array([y])
        )
        ir.add_rows([f"y{s}" for s in PRODUCT_ROWS], lo, hi, rows, cols, coefs)
        ir.set_objective("max", [y], [1.0])
        raw = solve(ir)
        assert raw.status is SolveStatus.OPTIMAL
        assert raw.values[y] == pytest.approx(b_val * c_val, abs=1e-9)
        ir.set_objective("min", [y], [1.0])
        raw = solve(ir)
        assert raw.values[y] == pytest.approx(b_val * c_val, abs=1e-9)


def test_time_limit_contract():
    # A crowded knapsack-style model at a tiny limit either proves
    # optimality instantly or reports the limit; the status contract is
    # what matters.
    rng = np.random.default_rng(0)
    ir = ModelIR()
    xs = ir.add_vars([f"x{i}" for i in range(60)], True)
    w = rng.uniform(1, 10, size=60)
    v = rng.uniform(1, 10, size=60)
    ir.add_rows(["w"], -np.inf, 25.0, np.zeros(60, dtype=int), xs, w)
    ir.set_objective("max", xs, v)
    raw = solve(ir, SolverOptions(time_limit_s=0.01))
    assert raw.status in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)


def test_seeded_solve_ends_within_its_time_limit(monkeypatch):
    # Subset sum with an odd target over even weights: no point exists,
    # and neither the pinned run nor the full run proves that within the
    # limit.  The pinned run's seconds come out of the limit, so the solve
    # ends at the limit, not at twice it.
    n = 30
    weights = 2.0 * np.random.default_rng(0).integers(100_000, 1_000_000, n)
    ir = ModelIR()
    xs = ir.add_vars([f"x{i}" for i in range(n)], True)
    target = weights.sum() // 2 + 1
    ir.add_rows(["sum"], target, target, np.zeros(n, dtype=int), xs, weights)
    ir.set_objective("max", xs, np.ones(n))
    ir.seed = (np.array([0]), np.array([1.0]))
    pinned = []
    start_from_seed = backend._start_from_seed

    def spy(highs, cols, *args):
        pinned.append(cols.tolist())
        start_from_seed(highs, cols, *args)

    monkeypatch.setattr(backend, "_start_from_seed", spy)
    limit = 0.5
    start = time.perf_counter()
    raw = solve(ir, SolverOptions(time_limit_s=limit))
    elapsed = time.perf_counter() - start
    assert pinned == [[0]]
    assert raw.status is SolveStatus.TIME_LIMIT and raw.values is None
    assert elapsed < 1.5 * limit


def test_highs_optimal_verdict_kept_with_small_gap(monkeypatch):
    # HiGHS may stop "optimal" on a gap of a few 1e-9 (its own tolerances
    # on the objective); the backend keeps that verdict and the gap.
    ir = ModelIR()
    (x,) = ir.add_vars(["x"], True)
    ir.set_objective("max", [x], [132.873741])
    result = OptimizeResult(
        status=0, message="Optimal", x=np.array([1.0]), mip_gap=5.16e-9
    )
    monkeypatch.setattr(backend, "milp", lambda **kwargs: result)
    raw = solve(ir)
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.gap == 5.16e-9
    assert raw.objective == pytest.approx(132.873741)


# -- the HiGHS call against scipy.optimize.milp ---------------------------------


def _same_answer(kwargs, highs=backend.milp):
    """Solve ``kwargs`` through ``backend.milp`` and scipy's ``milp``; both must agree.

    ``highs`` is bound at import, so a test may patch ``backend.milp`` to call this.
    """
    ours = highs(**{**kwargs, "options": dict(kwargs["options"])})
    # scipy's milp pops "disp" from the options it is given.
    ref = scipy.optimize.milp(**{**kwargs, "options": dict(kwargs["options"])})
    assert ours.status == ref.status
    assert (ours.x is None) == (ref.x is None)
    if ref.x is not None:
        assert ours.x.dtype == ref.x.dtype and ours.x.tobytes() == ref.x.tobytes()
    for field in ("mip_gap", "mip_node_count", "mip_dual_bound"):
        assert ours[field] == ref[field], field
    return ours


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_highs_call_matches_scipy_milp(name, problem, mode, monkeypatch):
    # Every pinned model, with the arguments the backend really hands over,
    # less the seed and the objective target: scipy takes no start, and
    # warns on an option it does not know.
    seen = []

    def compare(seed, options, **kwargs):
        options = {k: v for k, v in options.items() if k != "objective_target"}
        seen.append(kwargs)
        return _same_answer({**kwargs, "options": options})

    monkeypatch.setattr(backend, "milp", compare)
    inst, fixed = _build_args(_instance(name), mode)
    milp.solve(milp.build(inst, problem, fixed).ir)
    assert len(seen) == 1


def _knapsack_kwargs(binary, time_limit, rows=True):
    # Twelve items whose weights must sum to exactly 101.
    n = 12
    weights = np.random.default_rng(0).integers(5, 40, n).astype(float)
    a = sparse.csc_matrix(weights[None, :])
    return dict(
        c=-np.ones(n),
        integrality=np.full(n, float(binary)),
        bounds=Bounds(np.zeros(n), np.ones(n)),
        constraints=[LinearConstraint(a, 101.0, 101.0)] if rows else [],
        options={"disp": False, "presolve": False, "time_limit": time_limit, "mip_rel_gap": 0.0},
    )


def test_no_incumbent_at_the_limit_gives_no_x():
    # HiGHS stops at a zero time limit before it has any incumbent.
    res = _same_answer(_knapsack_kwargs(binary=True, time_limit=0.0))
    assert res.status == 1 and res.x is None and res.mip_node_count is None


@pytest.mark.parametrize("rows", [True, False], ids=["rows", "no_rows"])
def test_pure_lp_has_no_mip_fields(rows):
    res = _same_answer(_knapsack_kwargs(binary=False, time_limit=10.0, rows=rows))
    assert res.status == 0 and res.x is not None
    assert res.mip_gap is None and res.mip_node_count is None and res.mip_dual_bound is None


def test_lp_at_the_limit_gives_no_x():
    # Unlike a MIP, an LP has x only at an optimum.
    res = _same_answer(_knapsack_kwargs(binary=False, time_limit=0.0))
    assert res.status == 1 and res.x is None


def test_infeasible_mip_status():
    kwargs = _knapsack_kwargs(binary=True, time_limit=10.0)
    kwargs["bounds"] = Bounds(np.zeros(12), np.zeros(12))
    res = _same_answer(kwargs)
    assert res.status == 2 and res.x is None


def test_rejected_option_is_a_backend_error(monkeypatch):
    real = backend.milp

    def bad_option(**kwargs):
        return real(**{**kwargs, "options": {**kwargs["options"], "time_limit": "soon"}})

    monkeypatch.setattr(backend, "milp", bad_option)
    ir = _cutoff_model("max")
    with pytest.raises(BackendError, match="time_limit"):
        solve(ir)


# -- objective cutoff ----------------------------------------------------------


def _cutoff_model(sense, binary=True):
    # Pick two of a, b, c at costs 3, 2, 4 (LP relaxation without binaries),
    # plus a constant of 7: min 12, max 14.
    ir = ModelIR()
    xs = ir.add_vars(list("abc"), binary, 0, 1)
    ir.add_rows(["two"], 2.0, 2.0, [0, 0, 0], xs, 1.0)
    ir.set_objective(sense, xs, [3.0, 2.0, 4.0], constant=7.0)
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
    with pytest.raises(BackendError) as caught:
        extract_solution(SimpleNamespace(ir=ir), raw)
    assert type(caught.value) is BackendError  # not ModelInfeasible


def _demo_instance(hour: int) -> ProblemInstance:
    """The demo config's graph at ``hour``, continuous powers, 5 Mbps per UE."""
    demo = Path(__file__).resolve().parent.parent / "demo"
    config = scenario.config_from_json(demo / "scenario_config.json")
    profile = scenario.load_profile_csv(demo / "weekly_load_profile.csv")
    graph, _ = scenario.generate(config, profile, hour)
    return ProblemInstance(
        graph=graph,
        commodities=tuple(
            Commodity(i, graph.donor.id, ue.id, 5.0) for i, ue in enumerate(graph.ues)
        ),
        radio=config.radio,
        power_model=config.power_model,
        capacity_table=default_table(config.radio.bandwidth_mhz, config.radio.mimo_layers),
        power_mode=ContinuousPower(),
    )


def test_only_a_model_holding_every_coefficient_presolves_its_pinned_run(monkeypatch):
    # Demo hour 9's exact throughput model from the all-max seed.  On the
    # {0, p_max} grid HiGHS holds every coefficient, so the pinned run
    # presolves and the full run does not.  With continuous powers HiGHS
    # drops thousands of tiny ones at load, and neither run presolves: a
    # presolved start there moves which tied optimum comes back, and
    # extraction rejects some of them.
    presolve = []

    class Spy(_Highs):
        def run(self):
            presolve.append(self.getOptionValue("presolve")[1])
            return super().run()

    monkeypatch.setattr(backend, "_Highs", Spy)
    for mode, runs in (
        (DiscretePower((0.0, 6300.0)), ["on", "off"]),
        (ContinuousPower(), ["off", "off"]),
    ):
        presolve.clear()
        built = build_throughput_model(_demo_instance(9).with_power_mode(mode))
        raw = solve(built.ir, SolverOptions(time_limit_s=0.2))
        assert (raw.dropped > 0) == isinstance(mode, ContinuousPower)
        assert presolve == runs


def test_highs_debug_print_stays_off_stdout(capfd):
    # A demo hour-6 phase-two trial under an objective bound: whatever
    # HiGHS prints from C must not reach stdout.
    instance = _demo_instance(6)
    on = (1, 2, 3, 14, 18, 19)
    fixed = {fid: 6300.0 if fid in on else 0.0 for fid in (*on, 5, 6, 9, 10, 11, 13, 15, 17)}
    built = build_throughput_model(instance, fixed_powers=fixed)
    raw = solve(built.ir, SolverOptions(cutoff=132.87374150000002))
    assert raw.status is SolveStatus.CUTOFF
    captured = capfd.readouterr()
    assert captured.out == ""


def test_native_printf_goes_to_stderr(capfd):
    # HiGHS prints some debug lines with C printf (seen in full-day
    # sweeps); the guard around every solve moves them to stderr.
    libc = ctypes.CDLL(None)
    libc.printf.argtypes, libc.printf.restype = [ctypes.c_char_p], ctypes.c_int
    libc.fflush.argtypes, libc.fflush.restype = [ctypes.c_void_p], ctypes.c_int
    with backend._native_stdout_to_stderr():
        libc.printf(b"printed from C\n")
    libc.printf(b"after the guard\n")
    libc.fflush(None)
    captured = capfd.readouterr()
    assert "printed from C" in captured.err
    assert captured.out == "after the guard\n"


def test_only_cutoff_solves_skip_feasibility_jump(monkeypatch):
    # A cutoff solve asks only whether anything beats the bound, so HiGHS's
    # feasibility-jump heuristic is off there; every other solve hands
    # HiGHS the same four options as before.
    seen = []
    real = backend.milp

    def capture(**kwargs):
        seen.append(dict(kwargs["options"]))
        return real(**kwargs)

    monkeypatch.setattr(backend, "milp", capture)
    ir = _cutoff_model("max")
    assert solve(ir, SolverOptions(time_limit_s=5.0)).status is SolveStatus.OPTIMAL
    assert solve(ir, SolverOptions(time_limit_s=5.0, cutoff=13.0)).status is SolveStatus.OPTIMAL
    plain = {"disp": False, "presolve": False, "time_limit": 5.0, "mip_rel_gap": 0.0}
    assert seen == [
        plain,
        {**plain, "objective_bound": -6.0, "mip_heuristic_run_feasibility_jump": False},
    ]


@pytest.mark.parametrize("sense, optimum", _OPTIMA)
def test_time_limited_incumbent_is_held_to_the_cutoff(sense, optimum, monkeypatch):
    # An incumbent the time limit stopped at is held to the cutoff like a
    # proven answer: one that does not beat it comes back without values,
    # still TIME_LIMIT, and one that beats it keeps them.
    ir = _cutoff_model(sense)
    highs = backend._scipy_backend

    def time_limited(ir, options):
        raw = highs(ir, dataclasses.replace(options, cutoff=None))
        raw.status = SolveStatus.TIME_LIMIT
        return raw

    monkeypatch.setattr(backend, "_scipy_backend", time_limited)
    for margin in (0.0, 1.0):
        cutoff = optimum - margin if sense == "min" else optimum + margin
        raw = solve(ir, SolverOptions(cutoff=cutoff))
        assert raw.status is SolveStatus.TIME_LIMIT
        assert raw.values is None and raw.objective is None
    looser = optimum + (0.5 if sense == "min" else -0.5)
    raw = solve(ir, SolverOptions(cutoff=looser))
    assert raw.status is SolveStatus.TIME_LIMIT
    assert raw.objective == pytest.approx(optimum) and raw.values is not None


# -- the stop at the proven bound ----------------------------------------------


def _spy_highs(monkeypatch, interrupt_first=False):
    """Wrap ``backend._Highs``; returns the model status of each run, in order.

    With ``interrupt_first`` the wrapper installs a ``kCallbackMipInterrupt``
    callback that sets ``user_interrupt`` at its first call, before HiGHS
    holds any point.
    """
    runs = []

    class Spy(_Highs):
        def run(self):
            if interrupt_first:

                def interrupt(kind, message, out, data_in, user_data):
                    data_in.user_interrupt = True

                self.setCallback(interrupt, None)
                self.startCallback(cb.HighsCallbackType.kCallbackMipInterrupt)
            status = super().run()
            runs.append(self.getModelStatus())
            return status

    monkeypatch.setattr(backend, "_Highs", Spy)
    return runs


def _pinned(name, problem, mode):
    inst, fixed = _build_args(_instance(name), mode)
    return milp.build(inst, problem, fixed)


def test_stop_ends_the_run_at_the_bound(monkeypatch):
    # The random1 one-free throughput model's optimum is its proven bound,
    # and HiGHS finds that point before it can prove it: the objective
    # target ends the run, which comes back optimal with the gap taken
    # against the target.  (The two-unit one-free energy model did this
    # until the wsum and capw rows let HiGHS prove its optimum at the root.)
    runs = _spy_highs(monkeypatch)
    built = _pinned("random1", milp.THROUGHPUT, "one_free")
    raw = solve(built.ir)
    assert runs == [HighsModelStatus.kObjectiveTarget]
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.objective == pytest.approx(built.bound, rel=1e-9)
    assert raw.gap <= 1e-9
    assert validate_solution(built.instance, extract_solution(built, raw)).ok


def test_an_interrupt_the_stop_did_not_cause_is_a_backend_error(monkeypatch):
    runs = _spy_highs(monkeypatch, interrupt_first=True)
    with pytest.raises(BackendError, match="status 4"):
        solve(_pinned("two_unit", milp.ENERGY, "one_free").ir)
    assert runs == [HighsModelStatus.kInterrupt]


def test_cutoff_inside_the_stop_window_keeps_the_optimum(monkeypatch):
    # The optimum is the proven bound (1226.925063 Mbps) and the cutoff sits
    # 1e-6 below it, inside the target's 1e-9 relative window.  Before
    # HiGHS holds any point its primal bound reads the cutoff, so a stop
    # read from it would end the run with no point and call the trial
    # beaten; HiGHS holds the target to its incumbent.
    seen = []
    real = backend.milp

    def capture(**kwargs):
        seen.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(backend, "milp", capture)
    built = _pinned("random2", milp.THROUGHPUT, "fixed")
    z = built.bound
    raw = solve(built.ir, SolverOptions(cutoff=z - 1e-6))
    (kwargs,) = seen
    options = kwargs["options"]
    assert options["objective_target"] == -z + 1e-9 * z
    assert -z < options["objective_bound"] < options["objective_target"]
    assert raw.status is SolveStatus.OPTIMAL
    assert raw.objective == pytest.approx(z, rel=1e-9)
    assert validate_solution(built.instance, extract_solution(built, raw)).ok


def test_stopped_and_unstopped_solves_reach_one_optimum(monkeypatch):
    # The stop changes when HiGHS ends, not what it returns: on every
    # pinned model and on random draws of both problems, the solve with
    # the proven bound reaches the optimum of the solve without it, within
    # 1e-9 relative, and its answer extracts and validates.  The stop ends
    # fourteen of these runs.  The energy models' wsum and capw rows let
    # HiGHS prove more optima at the root, which left six stops on the
    # first eight draws, so twelve draws were added.  One of those, draw
    # 8's throughput model, is solved without the stop to 408.975022 Mbps
    # with its three airtimes summing to 1 + 2.4e-9, past its proven bound
    # and brute-force optimum 408.975021 within HiGHS's feasibility
    # tolerance; on the added draws only, an unstopped answer may pass the
    # bound by 5e-9 relative, and the stopped answer must meet the bound.
    # The solve without the stop uses the bound nowhere: Z's column, which
    # exact throughput models on a power grid cap at the bound, is set
    # back to the table's top capacity for it.
    runs = _spy_highs(monkeypatch)
    target = HighsModelStatus.kObjectiveTarget
    rng = np.random.default_rng(25)
    trials = [_pinned(*key) for key in MODEL_SHA256] + [
        milp.build(inst, problem)
        for inst in (random_small_instance(rng, max_units=4, max_ues=4) for _ in range(20))
        for problem in (milp.THROUGHPUT, milp.ENERGY)
    ]
    first_added = len(MODEL_SHA256) + 2 * 8
    stopped = 0
    for i, built in enumerate(trials):
        bound, built.ir.bound, ub = built.ir.bound, None, built.ir.ub.copy()
        if built.problem == milp.THROUGHPUT:
            z = built.ir.var_names.index("Z")
            built.ir.ub[z] = built.instance.capacity_table.max_capacity_mbps
        plain = solve(built.ir, SolverOptions(time_limit_s=60))
        built.ir.bound, built.ir.ub = bound, ub
        del runs[:]
        raw = solve(built.ir, SolverOptions(time_limit_s=60))
        stopped += target in runs
        assert raw.status is plain.status
        if plain.values is None:
            assert raw.values is None
            continue
        assert plain.status is SolveStatus.OPTIMAL
        optimum = plain.objective
        if i >= first_added and backend.beats(built.ir.objective.sense, optimum, bound):
            assert optimum == pytest.approx(bound, rel=5e-9)
            optimum = bound
        assert raw.objective == pytest.approx(optimum, rel=1e-9)
        assert validate_solution(built.instance, extract_solution(built, raw)).ok
    assert stopped >= 10


def test_the_seed_runs_point_starts_the_full_run(monkeypatch):
    # Subset sum over 16 weights: only the subset the row's total was drawn
    # from meets it (by enumeration), so its value is the model's bound.
    # HiGHS keeps the pinned run's point as its solution when the pins are
    # lifted, so the full run holds it from the start and ends at the
    # target with no node; without the seed it takes over a thousand.
    n = 16
    rng = np.random.default_rng(0)
    weights = rng.integers(100_000, 1_000_000, n).astype(float)
    values = rng.integers(1, 100, n).astype(float)
    pick = rng.random(n) < 0.5
    subsets = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    assert (subsets @ weights == weights[pick].sum()).sum() == 1
    ir = ModelIR()
    xs = ir.add_vars([f"x{i}" for i in range(n)], True)
    target = weights[pick].sum()
    ir.add_rows(["sum"], target, target, np.zeros(n, dtype=int), xs, weights)
    ir.set_objective("max", xs, values)
    ir.bound = float(values[pick].sum())
    ir.seed = (np.arange(n), pick.astype(float))

    kept, nodes = [], []
    start_from_seed, real = backend._start_from_seed, backend.milp

    def spy(highs, *args):
        start_from_seed(highs, *args)
        kept.append(highs.getSolution().value_valid)

    def count_nodes(**kwargs):
        res = real(**kwargs)
        nodes.append(res.mip_node_count)
        return res

    monkeypatch.setattr(backend, "_start_from_seed", spy)
    monkeypatch.setattr(backend, "milp", count_nodes)
    runs = _spy_highs(monkeypatch)
    raw = solve(ir, SolverOptions(time_limit_s=10))
    assert kept == [True]
    assert runs == [HighsModelStatus.kOptimal, HighsModelStatus.kObjectiveTarget]
    assert nodes == [0]
    assert raw.status is SolveStatus.OPTIMAL and raw.objective == pytest.approx(ir.bound)
    ir.seed = ()
    solve(ir, SolverOptions(time_limit_s=10))
    assert nodes[1] > 1000
