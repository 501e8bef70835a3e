"""MCS ladder: SINR thresholds to link capacity.

The ladder maps each modulation/coding step to the linear SINR threshold
above which it becomes available; link capacity is the highest step whose
threshold the signal-to-interference ratio meets (inclusive).  The shipped
default ladder was measured on a 100 MHz, 4-layer link; capacities for
other bandwidths/layer counts scale linearly while thresholds stay put.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import BadRow, NonMonotoneTable

_VALID_SCALING = (1.0, 0.8, 0.75, 0.4)
_VALID_Q = (2, 4, 6, 8)

REFERENCE_BANDWIDTH_MHZ = 100.0
REFERENCE_LAYERS = 4
_DEFAULT_TABLE_RESOURCE = "mcs_100mhz_4layers.csv"


@dataclass(frozen=True)
class Ts38306Params:
    """Inputs of the standard NR peak-rate formula.

    ``overhead`` is calibrated so the top-step rate lands on the measured
    ladder's plateau (it folds control overhead and duplexing duty cycle);
    do not confuse it with the bare DL overhead factor.
    """

    num_carriers: int = 1
    modulation_order: int = 8
    scaling_factor: float = 1.0
    mimo_layers: int = 4
    max_code_rate: float = 948.0 / 1024.0
    n_prb: int = 273
    symbol_duration_us: float = 1000.0 / 28.0  # mu=1: 14 symbols per 0.5 ms slot
    overhead: float = 0.55

    def __post_init__(self):
        if self.modulation_order not in _VALID_Q:
            raise ValueError(f"modulation_order {self.modulation_order} not in {_VALID_Q}")
        if self.scaling_factor not in _VALID_SCALING:
            raise ValueError(f"scaling_factor {self.scaling_factor} not in {_VALID_SCALING}")
        if not 0 < self.overhead < 1:
            raise ValueError("overhead must lie strictly between 0 and 1")
        if self.mimo_layers < 1:
            raise ValueError("mimo_layers must be >= 1")
        if self.num_carriers < 1 or self.n_prb < 1:
            raise ValueError("num_carriers and n_prb must be >= 1")
        if self.symbol_duration_us <= 0 or self.max_code_rate <= 0:
            raise ValueError("symbol duration and code rate must be positive")


def ts38306_rate(params: Ts38306Params) -> float:
    """Peak data rate in Mbps for identical aggregated carriers."""
    per_carrier = (
        params.modulation_order
        * params.scaling_factor
        * params.mimo_layers
        * params.max_code_rate
        * params.n_prb
        * 12.0
        / (params.symbol_duration_us * 1e-6)
        * (1.0 - params.overhead)
    )
    return 1e-6 * params.num_carriers * per_carrier


@dataclass(frozen=True)
class McsEntry:
    index: int
    sinr_threshold_db: float
    capacity_mbps: float

    @property
    def threshold_linear(self) -> float:
        return 10.0 ** (self.sinr_threshold_db / 10.0)


@dataclass(frozen=True)
class CapacityTable:
    """Ordered ladder of (threshold, capacity) steps; 0 below the first."""

    entries: tuple[McsEntry, ...]
    bandwidth_mhz: float = REFERENCE_BANDWIDTH_MHZ
    mimo_layers: int = REFERENCE_LAYERS

    def __post_init__(self):
        if not 1 <= len(self.entries) <= 28:
            raise NonMonotoneTable(f"table must hold 1..28 entries, got {len(self.entries)}")
        prev = None
        for e in self.entries:
            if not math.isfinite(e.sinr_threshold_db) or not 0 <= e.capacity_mbps < math.inf:
                raise NonMonotoneTable(
                    f"index {e.index} needs a finite threshold and a finite capacity >= 0"
                )
            if prev is not None:
                if e.sinr_threshold_db <= prev.sinr_threshold_db:
                    raise NonMonotoneTable(
                        f"threshold at index {e.index} not strictly increasing"
                    )
                if e.capacity_mbps < prev.capacity_mbps:
                    raise NonMonotoneTable(f"capacity at index {e.index} decreases")
            prev = e

    # cached_property works on frozen dataclasses (writes to __dict__
    # directly); lookups sit on hot paths.
    @cached_property
    def thresholds_db(self) -> tuple[float, ...]:
        return tuple(e.sinr_threshold_db for e in self.entries)

    @cached_property
    def thresholds_linear(self) -> tuple[float, ...]:
        return tuple(e.threshold_linear for e in self.entries)

    @cached_property
    def capacities_mbps(self) -> tuple[float, ...]:
        return tuple(e.capacity_mbps for e in self.entries)

    @property
    def max_capacity_mbps(self) -> float:
        return self.entries[-1].capacity_mbps

    def scaled(self, bandwidth_mhz: float, mimo_layers: int) -> "CapacityTable":
        """Same thresholds, capacities scaled by bandwidth and layer ratios."""
        factor = (bandwidth_mhz / self.bandwidth_mhz) * (mimo_layers / self.mimo_layers)
        return CapacityTable(
            entries=tuple(
                McsEntry(e.index, e.sinr_threshold_db, e.capacity_mbps * factor)
                for e in self.entries
            ),
            bandwidth_mhz=bandwidth_mhz,
            mimo_layers=mimo_layers,
        )

    def coarsened(self, keep_every: int) -> "CapacityTable":
        """Thinned ladder (always keeps the top step); for fast experiments."""
        picked = list(self.entries[::keep_every])
        if picked[-1] is not self.entries[-1]:
            picked.append(self.entries[-1])
        entries = tuple(
            McsEntry(i, e.sinr_threshold_db, e.capacity_mbps) for i, e in enumerate(picked)
        )
        return CapacityTable(entries, self.bandwidth_mhz, self.mimo_layers)


def ladder_position(
    table: CapacityTable, signal_mw: float, interference_mw: float
) -> int | None:
    """Position in ``table.entries`` of the highest met step, or None.

    Zero signal never grants capacity; positive signal over zero
    interference grants the top step.  Thresholds are inclusive.
    """
    if signal_mw < 0 or interference_mw < 0:
        raise ValueError("signal and interference must be >= 0")
    if signal_mw == 0:
        return None
    if interference_mw == 0:
        return len(table.entries) - 1
    # Highest i with S >= th_i * I, i.e. with th_i <= S/I.
    pos = bisect_right(table.thresholds_linear, signal_mw / interference_mw) - 1
    return pos if pos >= 0 else None


def capacity_from_sinr(
    table: CapacityTable, signal_mw: float, interference_mw: float
) -> tuple[int | None, float]:
    """Index and rate of the highest ladder step the link's S/I meets."""
    pos = ladder_position(table, signal_mw, interference_mw)
    if pos is None:
        return None, 0.0
    entry = table.entries[pos]
    return entry.index, entry.capacity_mbps


def load_table(path) -> CapacityTable:
    """Read a ladder CSV with header ``index,sinr_threshold_db,capacity_mbps``."""
    entries: list[McsEntry] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "sinr_threshold_db", "capacity_mbps"]:
            raise BadRow(f"{path}: bad or missing header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise BadRow(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                entries.append(
                    McsEntry(
                        index=int(row[0]),
                        sinr_threshold_db=float(row[1]),
                        capacity_mbps=float(row[2]),
                    )
                )
            except ValueError as exc:
                raise BadRow(f"{path}:{lineno}: {exc}") from exc
    if entries != sorted(entries, key=lambda e: e.index):
        raise BadRow(f"{path}: rows not sorted by index")
    return CapacityTable(entries=tuple(entries))


@lru_cache(maxsize=None)
def _reference_table() -> CapacityTable:
    resource = importlib.resources.files("iabtopo").joinpath("data", _DEFAULT_TABLE_RESOURCE)
    with importlib.resources.as_file(resource) as path:
        return load_table(path)


def default_table(
    bandwidth_mhz: float = REFERENCE_BANDWIDTH_MHZ, layers: int = REFERENCE_LAYERS
) -> CapacityTable:
    """The shipped measured ladder, rescaled to the requested configuration."""
    ref = _reference_table()
    if bandwidth_mhz == ref.bandwidth_mhz and layers == ref.mimo_layers:
        return ref
    return ref.scaled(bandwidth_mhz, layers)
