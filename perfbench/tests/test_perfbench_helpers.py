"""Tests for the benchmark harness's own helpers (not for the library)."""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph  # noqa: E402
from iabtopo.problem import (  # noqa: E402
    ContinuousPower,
    DiscretePower,
    FixedPower,
    ProblemInstance,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    recorded = [
        ("root", 0.0, 10.0, None, "t"),
        ("a", 1.0, 6.0, 0, "t"),
        ("b", 2.0, 3.0, 1, "t"),
        ("c", 7.0, 9.0, 0, "t"),
    ]
    assert spans.self_times(recorded) == [3.0, 4.0, 1.0, 2.0]
    assert sum(spans.self_times(recorded)) == 10.0


def test_tracer_nests_wrapped_calls_and_restores():
    clock = FakeClock()

    class Lib:
        @staticmethod
        def inner():
            clock.now += 2.0

        @staticmethod
        def outer():
            clock.now += 1.0
            Lib.inner()
            clock.now += 3.0
            return "done"

    original_outer = Lib.outer
    tracer = spans.Tracer(clock=clock)
    tracer.wrap(Lib, "inner", "layer.inner")
    tracer.wrap(Lib, "outer", "layer.outer")
    tracer.task = "task0"
    assert Lib.outer() == "done"
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "task0"
    assert tracer.self_time_by_name() == {"layer.outer": 4.0, "layer.inner": 2.0}
    assert tracer.top_level_time() == 6.0
    tracer.restore()
    assert Lib.outer is original_outer


def test_tracer_closes_span_when_call_raises():
    clock = FakeClock()

    class Lib:
        @staticmethod
        def boom():
            clock.now += 1.0
            raise KeyError("x")

    tracer = spans.Tracer(clock=clock)
    tracer.wrap(Lib, "boom", "layer.boom")
    with pytest.raises(KeyError):
        Lib.boom()
    with tracer.span("bench.task"):
        clock.now += 1.0
    assert [(s[0], s[2] - s[1], s[3]) for s in tracer.spans] == [
        ("layer.boom", 1.0, None),
        ("bench.task", 1.0, None),
    ]


def test_layer_self_times_add_up_to_the_traced_wall():
    clock = FakeClock()

    class Lib:
        @staticmethod
        def solve():
            clock.now += 1.0
            Lib.highs()

        @staticmethod
        def highs():
            clock.now += 4.0

    tracer = spans.Tracer(clock=clock)
    tracer.wrap(Lib, "solve", "milp.solve")
    tracer.wrap(Lib, "highs", "milp.highs.exact")
    clock.now += 0.5  # harness time outside any task
    with tracer.span("bench.task"):
        clock.now += 0.25
        Lib.solve()
    metrics = layers.per_layer_metrics(tracer, clock.now, 1, 0)
    own = [metrics[m] for m in layers.SELF_TIME_METRICS.values()] + [metrics["bench.self_s"]]
    assert metrics["milp.assemble_s"] == 1.0
    assert metrics["milp.highs_s.exact"] == 4.0
    assert metrics["bench.self_s"] == 0.75
    assert sum(own) == metrics["trace.wall_s"] == 5.75


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert spans.percentile(samples, 50) == 3.0
    assert spans.percentile(samples, 20) == 1.0
    assert spans.percentile(samples, 21) == 2.0
    assert spans.percentile(samples, 100) == 5.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (94, 75.0), (124, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    tail = spans.tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    q, value = tail
    assert q == expected
    assert sum(1 for s in samples if s > value) >= 10


def test_model_class_from_free_frontends():
    assert spans.model_class(0) == "fixed"
    assert spans.model_class(1) == "one_free"
    assert spans.model_class(2) == "exact"
    assert spans.model_class(15) == "exact"
    with pytest.raises(ValueError):
        spans.model_class(-1)


def _two_frontend_instance(mode):
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=0.0),
        Node(2, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=180.0),
        Node(3, NodeKind.UE, (50.0, 0.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(0, 2, EdgeKind.WIRED),
        Edge(1, 3, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
        Edge(2, 3, EdgeKind.WIRELESS, pathloss_db=90.0, los=True),
    ]
    return ProblemInstance(
        graph=build_graph(nodes, edges),
        commodities=(Commodity(0, 0, 3, 5.0),),
        power_mode=mode,
    )


@pytest.mark.parametrize(
    "mode, fixed, expected",
    [
        (ContinuousPower(), None, "exact"),
        (ContinuousPower(), {1: 6300.0}, "one_free"),
        (DiscretePower((0.0, 6300.0)), {1: 0.0, 2: 6300.0}, "fixed"),
        (FixedPower({1: 6300.0, 2: 6300.0}), None, "fixed"),
    ],
)
def test_probe_classifies_solves_by_the_build_before_them(mode, fixed, expected):
    tracer = spans.Tracer()
    probe = layers.LayerProbe(tracer)
    probe.install()
    try:
        instance = _two_frontend_instance(mode)
        built = layers.milp.build_throughput_model(instance, fixed_powers=fixed)
        layers.milp.solve(built.ir)
        # A model the probe did not see built is never given a class.
        layers.milp.solve(layers.milp.ModelIR())
    finally:
        tracer.restore()
    assert tracer.counters[f"milp.solves.{expected}"] == 1
    assert tracer.counters["milp.solves.unclassified"] == 1
    names = [s[0] for s in tracer.spans]
    assert f"milp.highs.{expected}" in names


@pytest.mark.parametrize("name", ["wall_s", "milp.highs_s.one_free", "oracle.enumerate_s.energy", "a-b", "9x"])
def test_metric_name_pattern_accepts(name):
    assert spans.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "ms%", "x" * 65])
def test_metric_name_pattern_rejects(name):
    assert not spans.valid_metric_name(name)


def test_benchmark_file_matches_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for name in [*end_to_end, *per_layer, *run.WORKLOAD_NAMES]:
        assert spans.valid_metric_name(name), name


def test_region_times_scale_each_stretch_by_the_kernel_at_its_ends():
    ref = speed.REF_KERNEL_S
    # Kernel runs of ref, ref and 2*ref; stretches of 1 s wall and 0.5 s CPU between them.
    marks = [
        speed.Mark(0.0, 0.0, ref, ref),
        speed.Mark(1.0 + ref, 0.5 + ref, 1.0 + 2 * ref, 0.5 + 2 * ref),
        speed.Mark(2.0 + 2 * ref, 1.0 + 2 * ref, 2.0 + 4 * ref, 1.0 + 4 * ref),
    ]
    times = speed.region_times(marks)
    assert times.wall_s == pytest.approx(2.0)
    assert times.cpu_s == pytest.approx(1.0)
    # Smoothed kernels are ref, ref and 1.5*ref (the median of the last two), so
    # the second stretch ran at 1.25x the reference kernel time and counts 1/1.25.
    assert times.ref_wall_s == pytest.approx(1.0 + 1.0 / 1.25)
    assert times.ref_cpu_s == pytest.approx(0.5 + 0.5 / 1.25)
    assert times.kernel_s == pytest.approx(ref)


def test_smoothing_drops_a_single_preempted_kernel_run():
    assert speed.smoothed([1.0, 9.0, 1.0, 1.0]) == [5.0, 1.0, 1.0, 1.0]
    assert speed.smoothed([1.0, 2.0]) == [1.0, 2.0]


def test_region_needs_two_marks():
    with pytest.raises(ValueError):
        speed.region_times([speed.run_kernel()])


def test_speed_probe_marks_the_region_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.marks) >= 3
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    times = probe.times()
    assert 0 < times.wall_s < 3 * speed.INTERVAL_S + 1
