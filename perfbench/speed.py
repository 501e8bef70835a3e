"""Times at a reference CPU speed, so runs on a shared host compare.

On a shared host the speed of the CPU this process runs on changes while
a run goes on: each virtual CPU flips, every few seconds and on its own,
between speeds about 1.45x apart, with CPU time rising as much as wall
time.  No median over one run's passes removes that, because all of a
run's passes can fall in slow spells.

So every untraced timed region is sampled: a fixed kernel, a small
knapsack MILP solved by scipy's HiGHS, which uses no code of the library,
runs at the start and the end of the region and every ``INTERVAL_S`` in
between, from a ``SIGALRM`` handler.  Of the kernels tried (pure-Python
arithmetic, random memory reads, dict building and this MILP), the MILP
tracked the workloads' slow spells best.  Each stretch of the region
between two kernel runs is scaled by how much slower than
``REF_KERNEL_S`` the kernel ran at its two ends, and the kernel runs
themselves are left out.  The result reads as the seconds the region
would take on a CPU that solves the kernel in ``REF_KERNEL_S``.  A change
to the library moves it exactly as it moves the raw time; a slow spell of
the host moves it far less.  It corrects least where a pass is a few long
HiGHS calls on large models (sr-exact): no mark runs inside a native
call, and such models slow less than the kernel does.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

REF_KERNEL_S = 0.007  # about what the kernel takes on a quiet 2-CPU VM
INTERVAL_S = 0.2

# 12 items with values 10-99 and three weights 5-49 each; a third of each weight's sum fits.
_RNG = np.random.default_rng(0)
_VALUES = -_RNG.integers(10, 100, 12).astype(float)
_WEIGHTS = _RNG.integers(5, 50, (3, 12)).astype(float)
_CAPACITY = LinearConstraint(_WEIGHTS, -np.inf, _WEIGHTS.sum(axis=1) / 3)


def kernel() -> float:
    """The fixed work whose duration measures the CPU's current speed."""
    return milp(_VALUES, constraints=_CAPACITY, integrality=np.ones(12), bounds=Bounds(0, 1)).fun


class Mark(NamedTuple):
    """One kernel run: clocks at its start and end, and its duration."""

    wall_start: float
    cpu_start: float
    wall_end: float
    cpu_end: float

    @property
    def kernel_s(self) -> float:
        return self.wall_end - self.wall_start


def run_kernel() -> Mark:
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    return Mark(wall, cpu, time.perf_counter(), time.process_time())


def smoothed(kernel_s: Sequence[float]) -> list[float]:
    """Three-point running median: one run the scheduler preempted does not count."""
    if len(kernel_s) < 3:
        return list(kernel_s)
    return [statistics.median(kernel_s[max(0, i - 1):i + 2]) for i in range(len(kernel_s))]


class Times(NamedTuple):
    wall_s: float
    cpu_s: float
    ref_wall_s: float
    ref_cpu_s: float
    kernel_s: float  # median kernel duration over the region


def region_times(marks: Sequence[Mark]) -> Times:
    """Raw and reference-speed times of the stretches between consecutive marks."""
    if len(marks) < 2:
        raise ValueError("a region needs a mark at its start and at its end")
    k = smoothed([m.kernel_s for m in marks])
    wall = cpu = ref_wall = ref_cpu = 0.0
    for i in range(len(marks) - 1):
        d_wall = marks[i + 1].wall_start - marks[i].wall_end
        d_cpu = marks[i + 1].cpu_start - marks[i].cpu_end
        scale = REF_KERNEL_S / ((k[i] + k[i + 1]) / 2)
        wall += d_wall
        cpu += d_cpu
        ref_wall += d_wall * scale
        ref_cpu += d_cpu * scale
    return Times(wall, cpu, ref_wall, ref_cpu, statistics.median(k))


class SpeedProbe:
    """Runs the kernel at the edges of a ``with`` block and every INTERVAL_S inside it.

    The handler runs between bytecodes of the main thread, so a long native
    call (a HiGHS solve) delays the next mark until it returns; the stretch
    is then longer, and is scaled by the kernel runs on either side of it.
    """

    def __init__(self):
        self.marks: list[Mark] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.marks.append(run_kernel())

    def __enter__(self) -> SpeedProbe:
        self.marks = [run_kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.marks.append(run_kernel())

    def times(self) -> Times:
        return region_times(self.marks)
