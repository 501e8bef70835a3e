"""In-memory span tracer and the small pure helpers the benchmark reports with.

Spans are recorded from outside the program: the tracer replaces a
module attribute with a wrapper that opens a span, calls the original and
closes the span.  Nothing under ``src/`` is edited, so only calls that go
through a module attribute at call time are seen.

This module imports nothing from the library, so its helpers can be
tested on their own.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
import time
from collections import Counter
from typing import Callable, Sequence

# A metric name: starts with a letter or digit; letters, digits, '_', '.'
# and '-' only; at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles the tail latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

MODEL_CLASSES = ("fixed", "one_free", "exact")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def _rank(q: float, n: int) -> int:
    # Rounded first so that, e.g., 99.9 % of 10000 is rank 9990, not 9991.
    return max(math.ceil(round(q / 100.0 * n, 9)), 1)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """(q, value) for the highest TAIL_LADDER percentile with 10 samples above its rank.

    None when even the lowest rung leaves fewer than 10 samples beyond it,
    so a tail is never read off a handful of values.
    """
    n = len(samples)
    best = None
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= 10:
            best = q
    if best is None:
        return None
    return best, percentile(samples, best)


def model_class(n_free: int) -> str:
    """Model class of a solve from how many frontend powers the build left free."""
    if n_free < 0:
        raise ValueError("negative free-frontend count")
    if n_free == 0:
        return "fixed"
    if n_free == 1:
        return "one_free"
    return "exact"


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    A span is (name, start, end, parent, task), where ``parent`` is the
    index of the enclosing span or None.  Children of one span never
    overlap (calls are synchronous), so subtracting their durations
    removes exactly the time they cover.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


class Tracer:
    """Records one span per wrapped call; spans stay in memory until written."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.task: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.task])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of open/close for the benchmark's own spans."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(
        self,
        module: object,
        attr: str,
        name: str | Callable[..., str],
        after: Callable | None = None,
    ) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``restore``.

        ``name`` may be a callable of the call's arguments, for spans whose
        layer depends on them.  ``after(result, args, kwargs)`` runs once
        the span is closed, to count what the call returned.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            idx = self.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def calls_by_name(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def top_level_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)
