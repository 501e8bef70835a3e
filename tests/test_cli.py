import csv
import json
from dataclasses import replace

import pytest
from click.testing import CliRunner
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

from iabtopo import heuristics, milp
from iabtopo.cli import RESULT_COLUMNS, evolution_stats, main
from iabtopo.errors import NoFeasibleStart
from iabtopo.scenario import ScenarioConfig, config_from_json, config_to_json


@pytest.fixture
def workspace(tmp_path):
    cfg = ScenarioConfig(
        area_km2=0.09, lambda_gnb=33.4, sectors_per_unit=1, l_ue_per_gnb=1.2, seed=3
    )
    config_path = tmp_path / "cfg.json"
    config_to_json(cfg, config_path)
    profile_path = tmp_path / "profile.csv"
    with open(profile_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "p"])
        for h in range(24):
            writer.writerow([h, 0.2 if h < 8 else 0.9])
    return tmp_path, config_path, profile_path


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_scenario_gen_solve_validate(workspace):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    result = _run(
        ["scenario-gen", "--config", str(cfg), "--profile", str(profile),
         "--hour", "10", "--out", str(graph_path)]
    )
    assert result.exit_code == 0, result.output
    assert graph_path.exists()

    sol_path = tmp / "sol.json"
    state_path = tmp / "state.csv"
    result = _run(
        ["solve", "--graph", str(graph_path), "--config", str(cfg),
         "--problem", "throughput", "--method", "local-search",
         "--time-limit", "20", "--global-budget", "60",
         "--out-solution", str(sol_path), "--out-state", str(state_path)]
    )
    assert result.exit_code == 0, result.output
    assert sol_path.exists() and state_path.exists()

    result = _run(
        ["validate", "--solution", str(sol_path), "--graph", str(graph_path),
         "--config", str(cfg)]
    )
    assert result.exit_code == 0, result.output


def test_validate_flags_tampered_airtime(workspace):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    sol_path = tmp / "sol.json"
    _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
          "--problem", "throughput", "--method", "local-search",
          "--time-limit", "20", "--global-budget", "60",
          "--out-solution", str(sol_path)])
    payload = json.loads(sol_path.read_text())
    key = next(iter(payload["airtimes"]))
    payload["airtimes"][key] = 1.7
    tampered = tmp / "tampered.json"
    tampered.write_text(json.dumps(payload))
    result = _run(
        ["validate", "--solution", str(tampered), "--graph", str(graph_path),
         "--config", str(cfg)]
    )
    assert result.exit_code == 1
    assert "AirtimeBudget" in result.output


def test_validate_refuses_a_solution_it_cannot_check(workspace):
    # Every rule compares with < or >, which a NaN fails both ways, and the
    # rules follow the problem named in the file.
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    sol_path = tmp / "sol.json"
    _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
          "--problem", "throughput", "--method", "local-search",
          "--time-limit", "20", "--global-budget", "60",
          "--out-solution", str(sol_path)])
    def set_first(d, value):
        d[next(iter(d))] = value

    tampers = {
        "objective": lambda p: p.update(objective=float("nan")),
        "airtime": lambda p: set_first(p["airtimes"], float("nan")),
        "per-UE rate": lambda p: set_first(p["per_ue_mbps"], float("inf")),
        "flow": lambda p: set_first(p["flows"]["0"], float("nan")),
        "problem": lambda p: p.update(problem="Energy"),
    }
    for what, tamper in tampers.items():
        payload = json.loads(sol_path.read_text())
        tamper(payload)
        tampered = tmp / "tampered.json"
        tampered.write_text(json.dumps(payload))
        result = _run(
            ["validate", "--solution", str(tampered), "--graph", str(graph_path),
             "--config", str(cfg)]
        )
        assert result.exit_code == 2, (what, result.output)
        assert result.output.startswith("error: "), (what, result.output)


def test_validate_rejects_mismatched_graph(workspace):
    tmp, cfg, profile = workspace
    g10, g_other = tmp / "g10.json", tmp / "gother.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(g10)])
    sol_path = tmp / "sol.json"
    _run(["solve", "--graph", str(g10), "--config", str(cfg),
          "--problem", "throughput", "--method", "local-search",
          "--time-limit", "20", "--global-budget", "60",
          "--out-solution", str(sol_path)])
    # A graph with entirely different node ids.
    other_cfg = ScenarioConfig(
        area_km2=0.09, lambda_gnb=55.0, sectors_per_unit=2, l_ue_per_gnb=1.2, seed=9
    )
    other_path = tmp / "cfg2.json"
    config_to_json(other_cfg, other_path)
    _run(["scenario-gen", "--config", str(other_path), "--profile", str(profile),
          "--hour", "23", "--out", str(g_other)])
    result = _run(
        ["validate", "--solution", str(sol_path), "--graph", str(g_other),
         "--config", str(other_path)]
    )
    assert result.exit_code == 2


def test_sweep_and_report(workspace):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(
        ["sweep", "--config", str(cfg), "--profile", str(profile),
         "--hours", "0,10", "--methods", "local-search",
         "--problems", "throughput,energy", "--seed", "3",
         "--demand-mbps", "2", "--time-limit", "15", "--global-budget", "60",
         "--levels", "3", "--out-dir", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    results_csv = out_dir / "results.csv"
    with open(results_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == RESULT_COLUMNS
        rows = list(reader)
    assert len(rows) == 4
    assert [(r["hour"], r["method"], r["problem"]) for r in rows] == sorted(
        (r["hour"], r["method"], r["problem"]) for r in rows
    )
    for r in rows:
        if not r["status"].startswith("error"):
            assert float(r["runtime_s"]) >= 0
            assert (out_dir / f"hour{int(r['hour']):03d}_{r['method']}_{r['problem']}_solution.json").exists()

    report_dir = tmp / "report"
    result = _run(
        ["report", "--results", str(results_csv), "--states-dir", str(out_dir),
         "--out-dir", str(report_dir)]
    )
    assert result.exit_code == 0, result.output
    with open(report_dir / "throughput_cdf.csv", newline="") as fh:
        cdf = [(float(a), float(b)) for a, b in list(csv.reader(fh))[1:]]
    assert cdf[-1][1] == pytest.approx(1.0)
    assert all(b[1] >= a[1] and b[0] >= a[0] for a, b in zip(cdf, cdf[1:]))
    assert (report_dir / "evolution.csv").exists()
    assert (report_dir / "activation_timeseries.csv").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_levels_reach_the_energy_search(workspace, monkeypatch, command):
    # Local-search energy keeps a continuous-power instance, so --levels
    # reaches it only as the size of its refinement grid.
    tmp, cfg, profile = workspace
    seen = []

    def capture(instance, options=None):
        seen.append(options.power_levels)
        raise NoFeasibleStart("stopped after capturing the options")

    monkeypatch.setattr(heuristics, "local_search_energy", capture)
    if command == "solve":
        graph_path = tmp / "g.json"
        _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
              "--hour", "10", "--out", str(graph_path)])
        args = ["solve", "--graph", str(graph_path), "--config", str(cfg),
                "--problem", "energy", "--method", "local-search", "--demand-mbps", "2"]
    else:
        args = ["sweep", "--config", str(cfg), "--profile", str(profile),
                "--hours", "10", "--methods", "local-search", "--problems", "energy",
                "--seed", "3", "--out-dir", str(tmp / "sweep")]
    _run(args + ["--levels", "3"])
    assert seen == [3]


def test_lp_out_dumps_the_exact_model_of_the_flags(workspace):
    # The default local search keeps powers continuous, which energy's exact
    # model cannot; --lp-out dumps the discrete model --method exact builds.
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    lp_path = tmp / "m.lp"
    args = ["solve", "--graph", str(graph_path), "--config", str(cfg),
            "--problem", "energy", "--lp-out", str(lp_path)]
    result = _run(args)
    assert result.exit_code == 0, result.output
    text = lp_path.read_text()
    assert text.startswith("\\ File written by HiGHS .lp file handler\nmin\n")
    assert "lam[" in text.split("\nbin\n")[1].split("\ngen\n")[0]
    assert _run(args + ["--method", "exact"]).exit_code == 0
    assert lp_path.read_text() == text


def test_exact_lp_out_builds_the_model_once(workspace, monkeypatch):
    # --method exact solves the very model it dumped, and the .mps dump
    # reads back into HiGHS and solves to the same optimum, in HiGHS's
    # sense: minimised, without the objective's constant.
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    built, solved = [], []
    build, solve = milp.build_energy_model, milp.solve

    def counting_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def capturing_solve(ir, *args, **kwargs):
        solved.append((ir, solve(ir, *args, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(milp, "build_energy_model", counting_build)
    monkeypatch.setattr(milp, "solve", capturing_solve)
    mps_path = tmp / "m.mps"
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "energy", "--method", "exact", "--lp-out", str(mps_path)])
    assert result.exit_code == 0, result.output
    assert len(built) == 1
    ((ir, raw),) = solved
    assert ir is built[0].ir
    z = raw.objective - ir.objective.constant
    z = -z if ir.objective.sense == "max" else z
    highs = _Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("mip_rel_gap", 0.0)
    assert highs.readModel(str(mps_path)) == HighsStatus.kOk
    assert highs.getNumCol() == ir.num_vars and highs.getNumRow() == ir.num_rows
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert highs.getInfo().objective_function_value == pytest.approx(z, rel=1e-9)


@pytest.mark.parametrize("name", ["m.lp", "m.mps"])
def test_lp_out_into_a_missing_directory_is_an_input_error(workspace, name):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    out = tmp / "missing" / name
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "energy", "--lp-out", str(out)])
    assert result.exit_code == 2
    assert f"error: {out}: No such file or directory" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("name", ["m.txt", "m.lp.gz", "m"])
def test_lp_out_needs_an_lp_or_mps_suffix(workspace, monkeypatch, name):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    solves = []
    monkeypatch.setattr(milp, "solve", lambda *args, **kwargs: solves.append(args))
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "energy", "--method", "exact", "--lp-out", str(tmp / name)])
    assert result.exit_code == 2
    assert "the suffix must be .lp or .mps" in result.output
    assert solves == [] and not (tmp / name).exists()


def test_sweep_determinism_modulo_runtime(workspace):
    tmp, cfg, profile = workspace
    rows = []
    for name in ("s1", "s2"):
        out_dir = tmp / name
        result = _run(
            ["sweep", "--config", str(cfg), "--profile", str(profile),
             "--hours", "10", "--methods", "local-search",
             "--problems", "throughput", "--seed", "3",
             "--time-limit", "15", "--global-budget", "60",
             "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        with open(out_dir / "results.csv", newline="") as fh:
            rows.append(
                [
                    {k: v for k, v in row.items() if k != "runtime_s"}
                    for row in csv.DictReader(fh)
                ]
            )
    # Wall-clock runtime aside, reruns are byte-identical per field.
    assert rows[0] == rows[1]


def _sweep_args(cfg, profile, out_dir, *extra):
    return ["sweep", "--config", str(cfg), "--profile", str(profile), "--seed", "3",
            "--demand-mbps", "2", "--time-limit", "15", "--global-budget", "60",
            "--levels", "3", "--out-dir", str(out_dir), *extra]


def _rows_without_runtime(out_dir):
    with open(out_dir / "results.csv", newline="") as fh:
        return [{k: v for k, v in r.items() if k != "runtime_s"} for r in csv.DictReader(fh)]


def test_sweep_prints_one_progress_line_per_row(workspace):
    # Progress goes to stderr, one line per written row; stdout keeps its
    # one summary line.
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(_sweep_args(
        cfg, profile, out_dir, "--hours", "0,10", "--methods", "local-search",
        "--problems", "throughput",
    ))
    assert result.exit_code == 0, result.output
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert result.stderr.splitlines() == [
        f"hour {r['hour']} {r['method']} {r['problem']}: {r['status']} in {r['runtime_s']} s"
        for r in rows
    ]
    assert result.stdout == f"wrote {out_dir / 'results.csv'} (2 rows)\n"


def test_sweep_runs_each_method_and_problem_once(workspace):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(_sweep_args(
        cfg, profile, out_dir, "--hours", "0", "--methods", "local-search,local-search",
        "--problems", "throughput, throughput",
    ))
    assert result.exit_code == 0, result.output
    assert [(r["method"], r["problem"]) for r in _rows_without_runtime(out_dir)] == [
        ("local-search", "throughput")
    ]
    assert result.stdout == f"wrote {out_dir / 'results.csv'} (1 rows)\n"


def test_selective_reduction_sweep_solutions_validate(workspace):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(_sweep_args(
        cfg, profile, out_dir, "--hours", "10", "--methods", "selective-reduction",
        "--problems", "throughput,energy",
    ))
    assert result.exit_code == 0, result.output
    rows = _rows_without_runtime(out_dir)
    assert [(r["method"], r["problem"], r["status"]) for r in rows] == [
        ("selective-reduction", "energy", "optimal"),
        ("selective-reduction", "throughput", "optimal"),
    ]
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    for problem in ("energy", "throughput"):
        result = _run(
            ["validate", "--solution",
             str(out_dir / f"hour010_selective-reduction_{problem}_solution.json"),
             "--graph", str(graph_path), "--config", str(cfg), "--demand-mbps", "2"]
        )
        assert (result.exit_code, result.output) == (0, "ok\n")


def test_interrupted_sweep_keeps_finished_rows(workspace, monkeypatch):
    # KeyboardInterrupt is no Exception, so no error row absorbs it: the
    # second task ends the sweep, and the first task's output must stay.
    tmp, cfg, profile = workspace
    search = heuristics.local_search_throughput
    calls = []

    def interrupt_second(instance, options=None):
        calls.append(instance)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return search(instance, options)

    monkeypatch.setattr(heuristics, "local_search_throughput", interrupt_second)
    out_dir = tmp / "sweep"
    result = CliRunner().invoke(main, _sweep_args(
        cfg, profile, out_dir, "--hours", "9,10", "--methods", "local-search",
        "--problems", "throughput",
    ))
    assert result.exit_code != 0
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RESULT_COLUMNS
    assert len(rows) == 2
    assert rows[1][:4] == ["9", "local-search", "throughput", "optimal"]
    assert (out_dir / "hour009_local-search_throughput_solution.json").exists()
    assert not (out_dir / "hour010_local-search_throughput_solution.json").exists()


def test_pool_sweep_matches_serial_sweep(workspace):
    tmp, cfg, profile = workspace
    outputs = []
    for workers in ("1", "2"):
        out_dir = tmp / f"workers{workers}"
        # Problems listed out of row order: rows still come out sorted.
        result = _run(_sweep_args(
            cfg, profile, out_dir, "--hours", "0,9,10", "--methods", "local-search",
            "--problems", "energy,throughput", "--workers", workers,
        ))
        assert result.exit_code == 0, result.output
        solutions = {p.name: p.read_text() for p in sorted(out_dir.glob("*_solution.json"))}
        outputs.append((_rows_without_runtime(out_dir), solutions))
    rows, solutions = outputs[0]
    assert [(r["hour"], r["problem"]) for r in rows] == [
        (h, p) for h in ("0", "9", "10") for p in ("energy", "throughput")
    ]
    assert len(solutions) == 6
    assert outputs[1] == outputs[0]


def test_solve_matches_its_sweep_row(workspace):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    out_dir = tmp / "sweep"
    result = _run(_sweep_args(
        cfg, profile, out_dir, "--hours", "10", "--methods", "local-search",
        "--problems", "throughput,energy",
    ))
    assert result.exit_code == 0, result.output
    for row in _rows_without_runtime(out_dir):
        assert row["status"] == "optimal"
        result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                       "--problem", row["problem"], "--method", row["method"],
                       "--demand-mbps", "2", "--time-limit", "15",
                       "--global-budget", "60", "--levels", "3"])
        assert result.exit_code == 0, result.output
        assert (
            f"status={row['status']} objective={row['objective']} "
            f"min_ue={row['min_ue_mbps']} activated={row['activated_frontends']} "
        ) in result.output


def test_infeasible_exact_model_is_a_model_infeasible_row(workspace):
    # No frontend carries 1 Tbps, and HiGHS proves it: the row names the
    # error, no solution file is written, and solve fails with exit code 1.
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(["sweep", "--config", str(cfg), "--profile", str(profile), "--seed", "3",
                   "--demand-mbps", "1e6", "--hours", "10", "--methods", "exact",
                   "--problems", "energy", "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    (row,) = _rows_without_runtime(out_dir)
    assert row["status"] == "error:ModelInfeasible"
    assert not list(out_dir.glob("*_solution.json"))

    graph_path, sol_path = tmp / "g.json", tmp / "sol.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "energy", "--method", "exact", "--demand-mbps", "1e6",
                   "--out-solution", str(sol_path)])
    assert result.exit_code == 1
    assert "error: HiGHS proved the model infeasible" in result.output
    assert not sol_path.exists()


def test_sweep_rejects_bad_profile(workspace):
    tmp, cfg, _profile = workspace
    bad = tmp / "bad_profile.csv"
    bad.write_text("hour,p\n0,2.0\n")
    out_dir = tmp / "sweep"
    result = _run(
        ["sweep", "--config", str(cfg), "--profile", str(bad),
         "--hours", "0", "--methods", "local-search", "--seed", "3",
         "--out-dir", str(out_dir)]
    )
    assert result.exit_code == 2
    assert "error:" in result.output
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("hours", ["nine", "9-6", ""])
def test_bad_hours_are_input_errors(workspace, hours):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(
        ["sweep", "--config", str(cfg), "--profile", str(profile),
         "--hours", hours, "--methods", "local-search", "--seed", "3",
         "--out-dir", str(out_dir)]
    )
    assert result.exit_code == 2
    assert "error: --hours" in result.output
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("k0, k_max", [(7, 3), (0, 3)])
def test_bad_retention_counts_are_input_errors(workspace, command, k0, k_max):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    if command == "solve":
        graph_path = tmp / "g.json"
        _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
              "--hour", "10", "--out", str(graph_path)])
        args = ["solve", "--graph", str(graph_path), "--config", str(cfg),
                "--problem", "throughput", "--method", "selective-reduction"]
    else:
        args = ["sweep", "--config", str(cfg), "--profile", str(profile), "--hours", "10",
                "--methods", "local-search", "--seed", "3", "--out-dir", str(out_dir)]
    result = _run(args + ["--k0", str(k0), "--k-max", str(k_max)])
    assert result.exit_code == 2
    assert "error:" in result.output and "k0" in result.output
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--time-limit", "0"),
        ("solve", "--levels", "1"),
        ("sweep", "--time-limit", "0"),
        ("sweep", "--levels", "1"),
        ("sweep", "--workers", "0"),
        ("solve", "--global-budget", "0"),
        ("sweep", "--global-budget", "-1"),
        ("solve", "--demand-mbps", "-5"),
        ("sweep", "--demand-mbps", "-5"),
        ("solve", "--demand-mbps", "nan"),
        ("solve", "--demand-mbps", "inf"),
        ("sweep", "--demand-mbps", "nan"),
        ("sweep", "--demand-mbps", "inf"),
        ("solve", "--time-limit", "nan"),
        ("sweep", "--global-budget", "nan"),
    ],
)
def test_out_of_range_search_flags_are_input_errors(workspace, command, flag, value):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    if command == "solve":
        graph_path = tmp / "g.json"
        _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
              "--hour", "10", "--out", str(graph_path)])
        args = ["solve", "--graph", str(graph_path), "--config", str(cfg),
                "--problem", "throughput", "--power-mode", "discrete"]
    else:
        args = ["sweep", "--config", str(cfg), "--profile", str(profile), "--hours", "21",
                "--methods", "local-search", "--seed", "3", "--out-dir", str(out_dir)]
    result = _run(args + [flag, value])
    assert result.exit_code == 2
    assert flag in result.output
    assert not (out_dir / "results.csv").exists()


def test_validate_rejects_negative_demand(workspace):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    sol_path = tmp / "empty.json"
    empty = dict.fromkeys(
        ("flows", "airtimes", "powers_mw", "activations", "capacities_mbps", "per_ue_mbps"), {}
    )
    sol_path.write_text(json.dumps(
        {"problem": "throughput", "status": "optimal", "objective": 0.0,
         "chosen_edges": [], **empty}
    ))
    args = ["validate", "--solution", str(sol_path), "--graph", str(graph_path),
            "--config", str(cfg)]
    assert _run(args).exit_code in (0, 1)
    for value in ("-5", "nan", "inf"):
        result = _run(args + ["--demand-mbps", value])
        assert result.exit_code == 2
        assert "--demand-mbps" in result.output


def _demand_workspace(workspace):
    """The hour-10 graph, and the workspace config with 2 Mbps per UE."""
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    demand_cfg = tmp / "cfg_demand.json"
    config_to_json(replace(config_from_json(cfg), demand_mbps=2.0), demand_cfg)
    return graph_path, demand_cfg


def test_solve_reads_the_configs_demand(workspace):
    # Without --demand-mbps the config's demand_mbps decides; given, the
    # flag replaces it.
    _tmp, cfg, _profile = workspace
    graph_path, demand_cfg = _demand_workspace(workspace)

    def energy(config, *flags):
        result = _run(["solve", "--graph", str(graph_path), "--config", str(config),
                       "--problem", "energy", "--method", "exact", *flags])
        assert result.exit_code == 0, result.output
        return result.output.split(" runtime=")[0]

    with_demand, without = energy(demand_cfg), energy(cfg)
    assert with_demand != without
    assert energy(cfg, "--demand-mbps", "2") == with_demand
    assert energy(demand_cfg, "--demand-mbps", "0") == without


def test_validate_reads_the_configs_demand(workspace):
    tmp, cfg, _profile = workspace
    graph_path, demand_cfg = _demand_workspace(workspace)
    sol_path = tmp / "asleep.json"
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "energy", "--method", "exact",
                   "--out-solution", str(sol_path)])
    assert result.exit_code == 0 and "activated=0 " in result.output, result.output
    args = ["validate", "--solution", str(sol_path), "--graph", str(graph_path)]
    assert _run(args + ["--config", str(cfg)]).exit_code == 0
    # The all-asleep answer to the zero-demand problem routes none of the
    # config's demand ...
    result = _run(args + ["--config", str(demand_cfg)])
    assert result.exit_code == 1 and "UnroutedDemand" in result.output
    # ... unless the flag sets the demand back to zero.
    assert _run(args + ["--config", str(demand_cfg), "--demand-mbps", "0"]).exit_code == 0


def test_single_row_cdf_degenerate(tmp_path):
    results = tmp_path / "results.csv"
    with open(results, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerow(
            {
                "hour": 0, "method": "local-search", "problem": "throughput",
                "status": "optimal", "objective": "100.0", "min_ue_mbps": "100.0",
                "activated_frontends": 1, "p_total_w": "200.0",
                "eta_mbps_per_w": "0.5", "runtime_s": "1.0",
            }
        )
    out = tmp_path / "rep"
    result = _run(["report", "--results", str(results), "--out-dir", str(out)])
    assert result.exit_code == 0
    with open(out / "throughput_cdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [["100.000000", "1.000000"]]


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_report_files_byte_for_byte(tmp_path):
    # Every file `report` writes, pinned as text: its header, number
    # formats, row order and CRLF line ends.  The error row is in no file.
    results = tmp_path / "results.csv"
    _write_rows(results, RESULT_COLUMNS, [
        [6, "local-search", "throughput", "optimal", "120.5", "120.5", 3, "250.0", "0.482", "1.0"],
        [6, "local-search", "energy", "optimal", "240.25", "5.0", 2, "240.25", "0.5", "2.0"],
        [19, "exact", "throughput", "feasible", "98.125", "98.125", 4, "262.0", "0.3745", "30.0"],
        [19, "exact", "energy", "error:ExtractionMismatch", "", "", "", "", "", "3.5"],
        [21, "selective-reduction", "throughput", "optimal", "101.0", "101.0", 3, "251.5", "0.4016", "4.0"],
        [21, "selective-reduction", "energy", "optimal", "239.75", "5.0", 2, "239.75", "0.75", "5.0"],
    ])
    states = tmp_path / "states"
    states.mkdir()
    state_header = ["iter", "timestamp_s", "objective"]
    _write_rows(states / "hour006_local-search_throughput_state.csv", state_header,
                [[0, "0.000000", "100.0"], [1, "0.500000", "119.5"], [2, "1.250000", "120.5"]])
    _write_rows(states / "hour006_local-search_energy_state.csv", state_header,
                [[0, "0.000000", "240.25"], [1, "0.750000", "240.25"]])
    out = tmp_path / "rep"
    args = ["report", "--results", str(results), "--out-dir", str(out)]
    assert _run(args + ["--states-dir", str(states)]).exit_code == 0
    expected = {
        "throughput_cdf.csv": "throughput_mbps,cdf\r\n98.125000,0.333333\r\n"
        "101.000000,0.666667\r\n120.500000,1.000000\r\n",
        "eta_cdf.csv": "eta_mbps_per_w,cdf\r\n0.500000,0.500000\r\n0.750000,1.000000\r\n",
        "activation_timeseries.csv": "hour,method,problem,activated_frontends\r\n"
        "6,local-search,throughput,3\r\n6,local-search,energy,2\r\n19,exact,throughput,4\r\n"
        "21,selective-reduction,throughput,3\r\n21,selective-reduction,energy,2\r\n",
        "evolution.csv": "run,initial,final,improvement_pct,time_to_near_final_s,total_time_s\r\n"
        "hour006_local-search_energy,240.25,240.25,0.00,,0.75\r\n"
        "hour006_local-search_throughput,100.00,120.50,20.50,0.50,1.25\r\n",
    }
    assert {p.name: p.read_bytes().decode() for p in out.iterdir()} == expected

    # Without energy rows there is no eta CDF; without states, no evolution.
    throughput_only = tmp_path / "throughput.csv"
    with open(results, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r[2] != "energy"]
    _write_rows(throughput_only, rows[0], rows[1:])
    out = tmp_path / "rep2"
    assert _run(["report", "--results", str(throughput_only), "--out-dir", str(out)]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == ["activation_timeseries.csv", "throughput_cdf.csv"]
    assert (out / "throughput_cdf.csv").read_bytes().decode() == expected["throughput_cdf.csv"]


def test_evolution_stats_near_final_rule():
    log = [(0.0, 100.0), (5.0, 198.5), (9.0, 200.0), (12.0, 200.0)]
    stats = evolution_stats(log)
    assert stats["initial"] == 100.0
    assert stats["final"] == 200.0
    assert stats["improvement_pct"] == pytest.approx(100.0)
    assert stats["time_to_near_final_s"] == 5.0  # 198.5 within 1% of 200
    assert stats["total_time_s"] == 12.0


def test_evolution_stats_flat_run_has_no_near_final_time():
    stats = evolution_stats([(0.0, 50.0), (3.0, 50.0)])
    assert stats["improvement_pct"] == 0.0
    assert stats["time_to_near_final_s"] is None


def _report_inputs(tmp_path):
    """A results file of one throughput row and a states dir of one trace."""
    results = tmp_path / "results.csv"
    _write_rows(results, RESULT_COLUMNS, [
        [6, "local-search", "throughput", "optimal", "120.5", "120.5", 3, "250.0", "0.482", "1.0"],
    ])
    states = tmp_path / "states"
    states.mkdir()
    _write_rows(states / "hour006_local-search_throughput_state.csv",
                ["iter", "timestamp_s", "objective"], [[0, "0.000000", "120.5"]])
    return results, states


@pytest.mark.parametrize(
    "target, header, rows, where",
    [
        ("state", ["iter", "objective"], [[0, "120.5"]], "state.csv"),
        ("state", ["iter", "timestamp_s", "objective"], [[0, "soon", "120.5"]], "state.csv:2"),
        ("state", ["iter", "timestamp_s", "objective"], [[0, "0.0", "high"]], "state.csv:2"),
        ("results", RESULT_COLUMNS,
         [[6, "exact", "throughput", "optimal", "lots", "1.0", 3, "250.0", "0.4", "1.0"]],
         "results.csv:2"),
        ("results", RESULT_COLUMNS,
         [[6, "exact", "energy", "optimal", "1.0", "1.0", 3, "250.0", "n/a", "1.0"]],
         "results.csv:2"),
        ("results", RESULT_COLUMNS, [[6, "exact", "throughput", "optimal", "1.0"]], "results.csv:2"),
    ],
)
def test_report_refuses_malformed_input(tmp_path, target, header, rows, where):
    results, states = _report_inputs(tmp_path)
    path = results if target == "results" else next(states.iterdir())
    _write_rows(path, header, rows)
    out = tmp_path / "rep"
    result = _run(["report", "--results", str(results), "--states-dir", str(states),
                   "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and where in result.output
    assert not out.exists()


@pytest.mark.parametrize("header, rows", [(["hour", "objective"], [[6, "1.0"]]), (RESULT_COLUMNS, [])])
def test_report_refuses_other_columns_and_no_rows(tmp_path, header, rows):
    results, _states = _report_inputs(tmp_path)
    _write_rows(results, header, rows)
    result = _run(["report", "--results", str(results), "--out-dir", str(tmp_path / "rep")])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


def test_scenario_gen_refuses_an_hour_the_profile_lacks(workspace):
    tmp, cfg, _profile = workspace
    profile = tmp / "short.csv"
    profile.write_text("hour,p\n0,0.5\n")
    out = tmp / "g.json"
    result = _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
                   "--hour", "5", "--out", str(out)])
    assert result.exit_code == 2
    assert "hour 5 not in profile" in result.output
    assert not out.exists()


def test_sweep_refuses_an_unknown_method(workspace):
    tmp, cfg, profile = workspace
    out_dir = tmp / "sweep"
    result = _run(["sweep", "--config", str(cfg), "--profile", str(profile), "--hours", "10",
                   "--methods", "local-search,bogus", "--seed", "3", "--out-dir", str(out_dir)])
    assert result.exit_code == 2
    assert "unknown method 'bogus'" in result.output
    assert not out_dir.exists()


def test_validate_refuses_an_unknown_frontend(workspace):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    sol_path = tmp / "sol.json"
    _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
          "--problem", "throughput", "--method", "local-search",
          "--time-limit", "20", "--global-budget", "60", "--out-solution", str(sol_path)])
    payload = json.loads(sol_path.read_text())
    payload["powers_mw"]["9999"] = 0.0
    sol_path.write_text(json.dumps(payload))
    result = _run(["validate", "--solution", str(sol_path), "--graph", str(graph_path),
                   "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown frontend 9999" in result.output


@pytest.mark.parametrize("flag", ["--out-solution", "--out-state"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_solve_checks_its_output_paths_before_it_solves(workspace, monkeypatch, flag, where):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    out = tmp / "missing" / "out" if where == "missing" else tmp
    solves = []
    monkeypatch.setattr(milp, "solve", lambda *args, **kwargs: solves.append(args))
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "throughput", flag, str(out)])
    assert result.exit_code == 2
    reason = "No such file or directory" if where == "missing" else "Is a directory"
    assert f"error: {out}: {reason}" in result.output
    assert solves == []


def test_exact_solve_writes_no_state(workspace):
    tmp, cfg, profile = workspace
    graph_path = tmp / "g.json"
    _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
          "--hour", "10", "--out", str(graph_path)])
    state_path = tmp / "state.csv"
    result = _run(["solve", "--graph", str(graph_path), "--config", str(cfg),
                   "--problem", "throughput", "--method", "exact", "--out-state", str(state_path)])
    assert result.exit_code == 0, result.output
    assert not state_path.exists()


def test_scenario_gen_checks_its_output_path_first(workspace):
    tmp, cfg, profile = workspace
    out = tmp / "missing" / "g.json"
    result = _run(["scenario-gen", "--config", str(cfg), "--profile", str(profile),
                   "--hour", "10", "--out", str(out)])
    assert result.exit_code == 2
    assert f"error: {out}: No such file or directory" in result.output


@pytest.mark.parametrize("command", ["sweep", "report"])
def test_an_out_dir_that_names_a_file_is_an_input_error(workspace, command):
    tmp, cfg, profile = workspace
    results, _states = _report_inputs(tmp)
    if command == "sweep":
        args = ["sweep", "--config", str(cfg), "--profile", str(profile), "--hours", "10",
                "--methods", "local-search", "--seed", "3"]
    else:
        args = ["report", "--results", str(results)]
    result = _run(args + ["--out-dir", str(results)])
    assert result.exit_code == 2
    assert f"error: {results}: File exists" in result.output


def test_sweep_checks_its_results_path_first(workspace):
    tmp, cfg, profile = workspace
    (tmp / "sweep" / "results.csv").mkdir(parents=True)
    result = _run(["sweep", "--config", str(cfg), "--profile", str(profile), "--hours", "10",
                   "--methods", "local-search", "--seed", "3", "--out-dir", str(tmp / "sweep")])
    assert result.exit_code == 2
    assert "results.csv: Is a directory" in result.output
    assert sorted(p.name for p in (tmp / "sweep").iterdir()) == ["results.csv"]
