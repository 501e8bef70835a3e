"""Solver-agnostic mixed-integer model representation.

Holds variables, linear constraints and a linear objective, plus the
rows of big-M indicator implications and binary-times-continuous
products.  Variables are declared a block at a time and live as arrays:
a name list plus one ``binary``, ``lb`` and ``ub`` entry per column, read
by column index from the builder through the backend to extraction.
Constraint rows live as HiGHS loads them: COO buffers (flat row, column
and coefficient arrays, plus each row's name and lower and upper bound,
±inf where a side is open) that are appended a block of rows at a time
and handed to the backend as arrays.
Rows touching physically tiny coefficients (received powers in mW) can
be normalized so the largest magnitude per row is 1, which keeps solver
feasibility tolerances meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class Objective:
    sense: str = "min"  # "min" | "max"
    cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    coefs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    constant: float = 0.0


def _filled(values, n: int) -> np.ndarray:
    """``values`` as n floats; a scalar is repeated."""
    values = np.asarray(values, dtype=float)
    return np.full(n, values) if values.ndim == 0 else values


def _merge(rows, cols, coefs, n_cols):
    """Sort terms by (row, column); sum duplicates in term order; drop zeros."""
    keep = coefs != 0.0
    rows, cols, coefs = rows[keep], cols[keep], coefs[keep]
    order = np.argsort(rows * n_cols + cols, kind="stable")
    rows, cols, coefs = rows[order], cols[order], coefs[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if first.all():
        return rows, cols, coefs
    run = np.cumsum(first) - 1
    depth = np.arange(len(rows)) - np.flatnonzero(first)[run]
    sums = coefs[first]
    for k in range(1, int(depth.max()) + 1):  # one pass per duplicate depth
        at = depth == k
        sums[run[at]] += coefs[at]
    rows, cols = rows[first], cols[first]
    nz = sums != 0.0
    return rows[nz], cols[nz], sums[nz]


class ModelIR:
    """Variable/constraint/objective registry."""

    def __init__(self):
        self.var_names: list[str] = []
        self.binary = np.zeros(0, dtype=bool)
        self.lb = np.zeros(0)
        self.ub = np.zeros(0)
        self.objective = Objective()
        # (columns, values) a first HiGHS run pins; its point starts the
        # full solve (empty: no such run).
        self.seed: tuple = ()
        # Proven bound on the objective (model sense, constant included): no
        # feasible point beats it, and HiGHS stops once its incumbent meets
        # it (None: no bound).
        self.bound: float | None = None
        self.row_names: list[str] = []
        empty = np.zeros(0, dtype=np.int64)
        # (rows, cols, coefs, lower, upper row bounds) per block of rows
        self._chunks: list[tuple[np.ndarray, ...]] = [
            (empty, empty, np.zeros(0), np.zeros(0), np.zeros(0))
        ]
        self._joined: tuple[np.ndarray, ...] | None = None

    # -- variables --------------------------------------------------------

    def add_vars(
        self,
        names: Sequence[str],
        binary: bool | Sequence[bool] = False,
        lb: float | Sequence[float] = 0.0,
        ub: float | Sequence[float] = math.inf,
    ) -> range:
        """Declare one variable per name; ``binary``, ``lb`` and ``ub`` broadcast."""
        n = len(names)
        start = self.num_vars
        binary = np.array(np.broadcast_to(binary, (n,)), dtype=bool)
        lbs = np.full(n, lb, dtype=float) if np.isscalar(lb) else np.array(lb, dtype=float)
        ubs = np.full(n, ub, dtype=float) if np.isscalar(ub) else np.array(ub, dtype=float)
        lbs[binary] = np.maximum(lbs[binary], 0.0)
        ubs[binary] = np.minimum(ubs[binary], 1.0)
        seen = set(self.var_names)
        if len(set(names)) < n or not seen.isdisjoint(names):
            dup = next(x for x in names if x in seen or seen.add(x))
            raise ValueError(f"variable {dup!r} already declared")
        if (lbs > ubs).any():
            i = int(np.argmax(lbs > ubs))
            raise ValueError(f"variable {names[i]!r}: lb {lbs[i]} above ub {ubs[i]}")
        self.var_names += names
        self.binary = np.concatenate([self.binary, binary])
        self.lb = np.concatenate([self.lb, lbs])
        self.ub = np.concatenate([self.ub, ubs])
        return range(start, start + n)

    # -- constraints ------------------------------------------------------

    def add_rows(
        self,
        names: Sequence[str],
        lo,
        hi,
        rows,
        cols,
        coefs,
        normalize=False,
    ) -> int:
        """Append ``len(names)`` rows given as COO terms; returns the first row.

        Term k adds ``coefs[k] * x[cols[k]]`` to block row ``rows[k]`` (a
        scalar ``coefs`` applies to every term).  In each row, duplicate
        columns are summed in term order, and zero coefficients and zero
        sums are dropped.  ``lo <= row <= hi`` bounds each row: each is one
        value or one per row, and ±inf leaves a side open.  A row whose
        ``normalize`` (a bool, or one per row) is set is divided, both
        bounds included, by its largest absolute coefficient.
        """
        n = len(names)
        lo, hi = _filled(lo, n), _filled(hi, n)
        bad = ~(lo <= hi)  # NaN fails too
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"constraint {names[i]!r}: lower bound {lo[i]} not <= upper {hi[i]}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        coefs = _filled(coefs, len(rows))
        bad = (cols < 0) | (cols >= self.num_vars)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"constraint {names[rows[k]]!r}: unknown variable index {cols[k]}")
        rows, cols, coefs = _merge(rows, cols, coefs, self.num_vars)
        if np.any(normalize) and len(rows):
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            scale = np.ones(n)
            scale[rows[starts]] = np.maximum.reduceat(np.abs(coefs), starts)
            scale[~np.broadcast_to(normalize, (n,))] = 1.0
            coefs = coefs / scale[rows]
            lo, hi = lo / scale, hi / scale
        first = len(self.row_names)
        self.row_names.extend(names)
        self._chunks.append((rows + first, cols, coefs, lo, hi))
        self._joined = None
        return first

    def set_objective(self, sense: str, cols, coefs, constant: float = 0.0) -> None:
        """Objective ``sum(coefs[k] * x[cols[k]]) + constant``; duplicate columns are summed."""
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense {sense!r}")
        cols = np.asarray(cols, dtype=np.int64)
        if ((cols < 0) | (cols >= self.num_vars)).any():
            raise ValueError("objective: unknown variable index")
        _, cols, coefs = _merge(
            np.zeros(len(cols), dtype=np.int64), cols, np.asarray(coefs, dtype=float),
            self.num_vars,
        )
        self.objective = Objective(sense, cols, coefs, constant)

    # -- introspection ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    def _join(self) -> tuple[np.ndarray, ...]:
        if self._joined is None:
            self._joined = tuple(np.concatenate(p) for p in zip(*self._chunks))
        return self._joined

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, coefficient) of every term, in row order."""
        return self._join()[:3]

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bound of every row (±inf where a side is open)."""
        return self._join()[3:]


# -- big-M rows ----------------------------------------------------------------


def indicator_row(sense: str, big_m, expr_const):
    """Indicator coefficient and row bounds (lo, hi) of a big-M implication.

    sense "geq": indicator=1 forces expr >= 0, via expr >= -M*(1-indicator),
    i.e. expr - M*ind >= -M - const.  sense "leq": indicator=0 forces
    expr <= 0, via expr - M*ind <= -const.  Works on arrays.
    """
    if sense == "geq":
        return -big_m, -big_m - expr_const, np.inf
    if sense == "leq":
        return -big_m, -np.inf, -expr_const
    raise ValueError(f"indicator sense {sense!r}")


PRODUCT_ROWS = ("_le_cont", "_le_bin", "_ge")  # name suffixes of a product's rows


def product_rows(binary_idx, cont_idx, cont_upper, aux_idx):
    """COO terms and row bounds of aux = binary * continuous, 3 rows each.

    Per product: aux <= cont; aux <= ub * binary; aux >= cont + ub * binary - ub.
    Returns (rows, cols, coefs, lo, hi) with rows local to the block.
    """
    n = len(aux_idx)
    base = 3 * np.arange(n)
    rows = np.concatenate([base, base, base + 1, base + 1, base + 2, base + 2, base + 2])
    cols = np.concatenate([aux_idx, cont_idx, aux_idx, binary_idx, aux_idx, cont_idx, binary_idx])
    one, ub = np.ones(n), np.full(n, float(cont_upper))
    coefs = np.concatenate([one, -one, one, -ub, one, -one, -ub])
    lo, hi = np.full(3 * n, -np.inf), np.zeros(3 * n)
    lo[2::3], hi[2::3] = -ub, np.inf
    return rows, cols, coefs, lo, hi
