"""Which library calls the traced run wraps, and the per-layer metrics they give.

Each layer is timed at the module attribute its caller looks up at call
time: the heuristics and the CLI call ``milp.<fn>`` on the package, the
builder calls the channel coefficients it imported by name, and the
backend calls scipy's ``milp`` (HiGHS) by name.  Every ``*_s`` metric is
a self time, so the self times of all layers plus ``bench.self_s`` add up
to the traced wall time.
"""

from __future__ import annotations

from spans import MODEL_CLASSES, Tracer, model_class, percentile, tail_percentile

from iabtopo import cli, heuristics, milp, oracle, scenario
from iabtopo.milp import backend, builder
from iabtopo.problem import FixedPower

# A solve whose model did not come from the build just before it is
# "unclassified"; it stays 0 while every caller builds and then solves.
SOLVE_CLASSES = (*MODEL_CLASSES, "unclassified")

# Span name -> per-layer metric holding that span's summed self time.
SELF_TIME_METRICS = {
    "cli.sweep": "cli.self_s",
    "scenario.generate": "scenario.generate_s",
    "heuristics": "heuristics.self_s",
    "heuristics.prune": "heuristics.prune_s",
    "milp.build": "milp.build_s",
    "channel.coeff": "channel.coeff_s",
    "milp.solve": "milp.assemble_s",
    "milp.extract": "milp.extract_s",
    "oracle.validate": "oracle.validate_s",
    "oracle.enumerate.throughput": "oracle.enumerate_s.throughput",
    "oracle.enumerate.energy": "oracle.enumerate_s.energy",
    **{f"milp.highs.{c}": f"milp.highs_s.{c}" for c in SOLVE_CLASSES},
}

# Span name -> per-layer metric counting its calls.
CALL_METRICS = {
    "scenario.generate": "scenario.generate_calls",
    "milp.build": "milp.build_calls",
    "channel.coeff": "channel.coeff_calls",
    "milp.extract": "milp.extract_calls",
    "oracle.validate": "oracle.validate_calls",
}

# Counters the wrappers fill in, reported as they are.
COUNTERS = (
    "heuristics.accepted_moves",
    *(f"milp.solves.{c}" for c in SOLVE_CLASSES),
    "milp.vars_total",
    "milp.binaries_total",
    "milp.rows_total",
    "milp.nnz_total",
    "milp.bb_nodes_total",
    "milp.time_limited",
)

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS.values()},
    **{m: "count" for m in CALL_METRICS.values()},
    **{m: "count" for m in COUNTERS},
    "milp.solve_ms_p50": "ms",
    "milp.solve_ms_tail": "ms",
    "milp.solve_ms_tail_pct": "%",
    "milp.stray_stdout_lines": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


class LayerProbe:
    """Installs the layer wrappers on a tracer and keeps the model-class state."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._last_ir = None
        self._last_class = None
        self._solve_class = "unclassified"

    def install(self) -> None:
        t = self.tracer
        t.wrap(cli, "main", "cli.sweep")
        t.wrap(cli, "generate", "scenario.generate")
        t.wrap(scenario, "generate", "scenario.generate")
        for fn in ("local_search_throughput", "local_search_energy"):
            t.wrap(heuristics, fn, "heuristics", after=self._after_local_search)
        t.wrap(heuristics, "selective_reduction", "heuristics")
        t.wrap(heuristics, "prune_graph", "heuristics.prune")
        for fn in ("build_throughput_model", "build_energy_model"):
            t.wrap(milp, fn, "milp.build", after=self._after_build)
        for fn in ("signal_coefficient", "interference_coefficients"):
            t.wrap(builder, fn, "channel.coeff")
        t.wrap(milp, "solve", self._solve_span)
        t.wrap(backend, "milp", lambda *a, **k: f"milp.highs.{self._solve_class}",
               after=self._after_highs)
        t.wrap(milp, "extract_solution", "milp.extract")
        t.wrap(oracle, "validate_solution", "oracle.validate")
        t.wrap(oracle, "enumerate_optimal_throughput", "oracle.enumerate.throughput")
        t.wrap(oracle, "enumerate_optimal_energy", "oracle.enumerate.energy")

    # -- hooks ------------------------------------------------------------

    def _after_build(self, built, args, kwargs) -> None:
        instance = args[0]
        fixed = kwargs.get("fixed_powers", args[1] if len(args) > 1 else None)
        preset = set(fixed or ())
        if isinstance(instance.power_mode, FixedPower):
            preset |= set(instance.power_mode.powers_mw)
        n_free = sum(1 for n in instance.graph.frontends if n.id not in preset)
        self._last_ir = built.ir
        self._last_class = model_class(n_free)

    def _solve_span(self, ir, *args, **kwargs) -> str:
        # Runs as the span opens, so the HiGHS span inside sees the class.
        self._solve_class = self._last_class if ir is self._last_ir else "unclassified"
        self.tracer.counters[f"milp.solves.{self._solve_class}"] += 1
        return "milp.solve"

    def _after_highs(self, res, args, kwargs) -> None:
        counters = self.tracer.counters
        c = args[0] if args else kwargs["c"]
        counters["milp.vars_total"] += len(c)
        integrality = kwargs.get("integrality")
        if integrality is not None:
            counters["milp.binaries_total"] += int((integrality != 0).sum())
        # The backend passes a list of LinearConstraint.
        for con in kwargs.get("constraints") or ():
            counters["milp.rows_total"] += con.A.shape[0]
            counters["milp.nnz_total"] += con.A.nnz
        counters["milp.bb_nodes_total"] += int(getattr(res, "mip_node_count", 0) or 0)
        if res.status == 1:
            counters["milp.time_limited"] += 1

    def _after_local_search(self, result, args, kwargs) -> None:
        # The log holds the start point, one entry per accepted move and
        # the final re-solve.
        _solution, state = result
        self.tracer.counters["heuristics.accepted_moves"] += len(state.log) - 2


def per_layer_metrics(
    tracer: Tracer, wall_s: float, passes: int, stray_lines: int
) -> dict[str, float]:
    """Per-pass per-layer values from a finished traced run."""
    own = tracer.self_time_by_name()
    calls = tracer.calls_by_name()
    out: dict[str, float] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = own.get(span_name, 0.0) / passes
    for span_name, metric in CALL_METRICS.items():
        out[metric] = calls.get(span_name, 0) / passes
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0) / passes

    solve_ms = [(s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "milp.solve"]
    tail = tail_percentile(solve_ms)
    out["milp.solve_ms_p50"] = percentile(solve_ms, 50) if solve_ms else 0.0
    # With too few solves for any rung, the tail is the slowest solve (0 %).
    out["milp.solve_ms_tail_pct"] = tail[0] if tail else 0.0
    out["milp.solve_ms_tail"] = tail[1] if tail else max(solve_ms, default=0.0)
    out["milp.stray_stdout_lines"] = stray_lines / passes

    bench_own = wall_s - tracer.top_level_time() + own.get("bench.task", 0.0)
    out["bench.self_s"] = bench_own / passes
    out["trace.wall_s"] = wall_s / passes
    out["trace.spans"] = len(tracer.spans) / passes
    return out
