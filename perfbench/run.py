"""Pinned benchmark of the iabtopo solve pipeline, timed from outside the library.

Run one workload from the repository root:

    python3 perfbench/run.py --workload ls-throughput --seed 5 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run wraps the
library's layer functions (see ``layers.py``) and reports per-layer self
times and counts instead.  The line before it stamps the machine, the
software versions and the seeds.

A run repeats whole passes over the workload's tasks until ``--seconds``
have passed, so every pass runs the same deterministic work; times are
medians over passes.  ``setup_s`` is the median, over fresh processes
started with ``--setup-only``, of the time from process start to the end
of set-up (imports, inputs and a warm-up solve).

The end-to-end times (``setup_s``, ``ref_wall_s`` and ``ref_cpu_s``) are
given at a reference CPU speed, measured by a fixed kernel that runs
through every timed region (see ``speed.py``); the host's CPU speed
drifts too much for raw times of one run to compare with the next.  The
raw wall and CPU times, and the kernel's median duration, are in the
stamp line.  ``--report`` runs every workload once untraced and once
traced, each in a fresh process, and prints every metric with its unit
and the tracing overhead, the traced raw wall time less the untraced.

The library is imported from ``src/`` of the checkout the script sits in;
without it the script exits with code 2 before printing anything.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
from spans import Tracer, valid_metric_name

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("ls-throughput", "ls-energy", "sr-exact", "oracle-xcheck")
SETUP_REPEATS = 3
SETUP_KERNELS = 3  # kernel runs before and after set-up in each set-up process
SETUP_DONE = "set-up done"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ref_wall_s": "s",
    "ref_cpu_s": "s",
    "peak_rss_mb": "MB",
    "solved_share": "share",
    "min_rate_mbps": "Mbps",
    "network_power_w": "W",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=5, help="orders the tasks")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least time a run measures; passes are never cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, print a marker line and exit (times set-up)")
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced; print all metrics")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_library():
    """Import the library from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    missing = [
        p for p in (src / "iabtopo" / "__init__.py", ROOT / "demo" / "scenario_config.json")
        if not p.is_file()
    ]
    if missing:
        print(f"error: checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import iabtopo

    if Path(iabtopo.__file__).resolve().parent != src / "iabtopo":
        print(f"error: imported iabtopo from {iabtopo.__file__}", file=sys.stderr)
        sys.exit(2)


@contextlib.contextmanager
def captured_stdout(counts: dict, sink_dir: Path):
    """Send file descriptor 1 to a scratch file; count the lines it caught.

    HiGHS prints a stray debug line from native code, past ``sys.stdout``,
    which would break the one-JSON-line contract of standard output.
    """
    libc = ctypes.CDLL(None)
    sys.stdout.flush()
    libc.fflush(None)  # what was written before belongs to the real stdout
    saved = os.dup(1)
    with tempfile.TemporaryFile(dir=sink_dir) as sink:
        os.dup2(sink.fileno(), 1)
        try:
            yield
        finally:
            sys.stdout.flush()
            libc.fflush(None)
            os.dup2(saved, 1)
            os.close(saved)
            sink.seek(0)
            counts["lines"] = counts.get("lines", 0) + len(sink.read().splitlines())


def _stamp(args, passes: int, scenario_seed: int, raw: dict) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = (
            f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": scenario_seed,
        "trace": args.trace,
        "passes": passes,
        **raw,
    }


def _git_commit() -> str | None:
    """HEAD's commit, or None outside a git checkout or without git."""
    # The ceiling keeps git from taking the commit of a repository above ROOT.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup(args):
    """Everything before the first timed task: imports, inputs and a warm-up solve."""
    _import_library()
    import layers  # noqa: F401  imported here so that its cost is set-up
    import workloads

    inputs = workloads.Inputs(ROOT)
    tasks = workloads.ordered_tasks(args.workload, args.seed)
    workloads.warm_up()
    return inputs, tasks


def setup_only(args) -> None:
    """Set up between kernel runs; print the marker line with the kernel durations."""
    before = [speed.run_kernel() for _ in range(SETUP_KERNELS)]
    setup(args)
    after = [speed.run_kernel() for _ in range(SETUP_KERNELS)]
    print(SETUP_DONE, json.dumps([m.kernel_s for m in before + after]), flush=True)


def _setup_seconds(args) -> float:
    """Median over fresh processes of the time from process start to the end of set-up.

    Imports dominate set-up and happen once per process, so each sample
    needs its own process; the median keeps one slow start from counting.
    Each sample leaves out the kernel runs and is scaled to the reference
    speed by their median.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = None
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            # A stray HiGHS line may come before the marker.
            for line in proc.stdout:
                if done is None and line.startswith(SETUP_DONE):
                    done = time.perf_counter() - start
                    kernels = json.loads(line[len(SETUP_DONE):])
        if proc.returncode != 0 or done is None:
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
        samples.append((done - sum(kernels)) * speed.REF_KERNEL_S / statistics.median(kernels))
    return statistics.median(samples)


def run_workload(args) -> dict:
    inputs, tasks = setup(args)
    import layers
    import workloads  # both already imported by setup()

    setup_s = None if args.trace else _setup_seconds(args)

    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)  # also holds the captured-stdout scratch file

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.LayerProbe(tracer).install()

    # Traced runs report raw self times; the kernel would land inside their spans.
    times, pending = [], []
    stray = {}
    try:
        with captured_stdout(stray, run_dir):
            start = time.perf_counter()
            while not times or time.perf_counter() - start < args.seconds:
                pass_dir = run_dir / f"pass{len(times)}"
                probe = None if tracer else speed.SpeedProbe()
                t0 = time.perf_counter()
                with probe or contextlib.nullcontext():
                    for task in tasks:
                        if tracer is not None:
                            tracer.task = task.id
                        with tracer.span("bench.task") if tracer else contextlib.nullcontext():
                            result = workloads.run_task(inputs, task, pass_dir)
                        pending.append((task, result))
                times.append(probe.times() if probe else time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.restore()

    outcomes = []
    for task, result in pending:
        outcomes.extend(workloads.check_task(inputs, task, result))
    passes = len(times)
    raw = {}
    if not args.trace:
        raw = {
            "raw_wall_s": statistics.median(t.wall_s for t in times),
            "raw_cpu_s": statistics.median(t.cpu_s for t in times),
            "kernel_ms": 1000 * statistics.median(t.kernel_s for t in times),
        }
    stamp = _stamp(args, passes, workloads.SCENARIO_SEED, raw)

    if args.trace:
        metrics = layers.per_layer_metrics(
            tracer, sum(times), passes, stray.get("lines", 0)
        )
        units = layers.PER_LAYER_UNITS
        _write_spans(run_dir / f"spans_seed{args.seed}.json", tracer, stamp)
    else:
        metrics = {
            "setup_s": setup_s,
            "ref_wall_s": statistics.median(t.ref_wall_s for t in times),
            "ref_cpu_s": statistics.median(t.ref_cpu_s for t in times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **workloads.quality_metrics(outcomes),
        }
        units = END_TO_END_UNITS

    for o in outcomes:
        if o.failure is not None:
            print(f"failed {o.task}/{o.problem}: {o.failure}", file=sys.stderr)
    bad = [name for name in metrics if not valid_metric_name(name)]
    if bad:
        raise ValueError(f"invalid metric names {bad}")
    print(json.dumps({"stamp": stamp}))
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure is not None),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _write_spans(path: Path, tracer: Tracer, stamp: dict) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "stamp": stamp,
                "fields": ["name", "start_s", "end_s", "parent", "task"],
                "spans": tracer.spans,
            },
            fh,
        )
        fh.write("\n")


def report(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    rows = []
    status = 0
    for workload in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[trace] = json.loads(lines[-1])
            if trace == 0:
                stamp = json.loads(lines[-2])["stamp"]
        untraced, traced = results[0], results[1]
        if not untraced["correct"]:
            status = 1
        rows.append((workload, "attempted", untraced["attempted"], "count"))
        rows.append((workload, "failed", untraced["failed"], "count"))
        for which in (untraced, traced):
            for name, m in which["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
        for name in ("raw_wall_s", "raw_cpu_s"):
            rows.append((workload, name, stamp[name], "s"))
        rows.append((workload, "kernel_ms", stamp["kernel_ms"], "ms"))
        overhead = traced["metrics"]["trace.wall_s"]["value"] - stamp["raw_wall_s"]
        rows.append((workload, "trace.overhead_measured_s", overhead, "s"))
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:{width}s} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.report:
        return report(args)
    if args.setup_only:
        setup_only(args)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
