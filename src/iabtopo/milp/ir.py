"""Solver-agnostic mixed-integer model representation.

Holds variables, linear constraints and a linear objective, plus the
explicit linearization helpers for indicator implications and
binary-times-continuous products.  Rows touching physically tiny
coefficients (received powers in mW) can be normalized so the largest
magnitude per row is 1, which keeps solver feasibility tolerances
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from ..errors import NonPositiveBigM, UnboundedContinuous

Term = tuple[float, int]  # (coefficient, variable index)


class VarKind(str, Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Sense(str, Enum):
    LE = "<="
    EQ = "="
    GE = ">="


@dataclass
class Var:
    idx: int
    name: str
    kind: VarKind
    lb: float
    ub: float


@dataclass
class LinConstraint:
    name: str
    terms: tuple[Term, ...]
    sense: Sense
    rhs: float


@dataclass
class Objective:
    sense: str = "min"  # "min" | "max"
    terms: tuple[Term, ...] = ()
    constant: float = 0.0


class ModelIR:
    """Variable/constraint/objective registry with a name index."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[LinConstraint] = []
        self.objective = Objective()
        self._by_name: dict[str, int] = {}

    # -- variables --------------------------------------------------------

    def add_var(
        self,
        name: str,
        kind: VarKind = VarKind.CONTINUOUS,
        lb: float = 0.0,
        ub: float = math.inf,
    ) -> int:
        if name in self._by_name:
            raise ValueError(f"variable {name!r} already declared")
        if kind is VarKind.BINARY:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} above ub {ub}")
        idx = len(self.variables)
        self.variables.append(Var(idx, name, kind, lb, ub))
        self._by_name[name] = idx
        return idx

    def fix_var(self, idx: int, value: float) -> None:
        self.variables[idx].lb = value
        self.variables[idx].ub = value

    # -- constraints ------------------------------------------------------

    def add_constraint(
        self,
        name: str,
        terms: Iterable[Term],
        sense: Sense,
        rhs: float,
        normalize: bool = False,
    ) -> int:
        merged: dict[int, float] = {}
        for coeff, idx in terms:
            if idx < 0 or idx >= len(self.variables):
                raise ValueError(f"constraint {name!r}: unknown variable index {idx}")
            if coeff != 0.0:
                merged[idx] = merged.get(idx, 0.0) + coeff
        row = tuple((c, i) for i, c in sorted(merged.items()) if c != 0.0)
        if normalize and row:
            scale = max(abs(c) for c, _ in row)
            if scale > 0 and scale != 1.0:
                row = tuple((c / scale, i) for c, i in row)
                rhs = rhs / scale
        self.constraints.append(LinConstraint(name, row, sense, rhs))
        return len(self.constraints) - 1

    def set_objective(self, sense: str, terms: Iterable[Term], constant: float = 0.0) -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense {sense!r}")
        merged: dict[int, float] = {}
        for coeff, idx in terms:
            merged[idx] = merged.get(idx, 0.0) + coeff
        self.objective = Objective(
            sense=sense,
            terms=tuple((c, i) for i, c in sorted(merged.items()) if c != 0.0),
            constant=constant,
        )

    # -- introspection ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def lp_text(self) -> str:
        """Dump in LP-format text for external debugging."""

        def expr(terms: Sequence[Term]) -> str:
            if not terms:
                return "0"
            parts = []
            for coeff, idx in terms:
                name = self.variables[idx].name
                sign = "-" if coeff < 0 else "+"
                parts.append(f"{sign} {abs(coeff):.12g} {name}")
            text = " ".join(parts)
            return text[2:] if text.startswith("+ ") else text

        lines = [f"\\ {self.name}"]
        lines.append("Maximize" if self.objective.sense == "max" else "Minimize")
        lines.append(f" obj: {expr(self.objective.terms)}")
        lines.append("Subject To")
        op = {Sense.LE: "<=", Sense.EQ: "=", Sense.GE: ">="}
        for i, con in enumerate(self.constraints):
            lines.append(f" c{i}_{con.name}: {expr(con.terms)} {op[con.sense]} {con.rhs:.12g}")
        lines.append("Bounds")
        for v in self.variables:
            lo = "-inf" if v.lb == -math.inf else f"{v.lb:.12g}"
            hi = "+inf" if v.ub == math.inf else f"{v.ub:.12g}"
            lines.append(f" {lo} <= {v.name} <= {hi}")
        binaries = [v.name for v in self.variables if v.kind is VarKind.BINARY]
        if binaries:
            lines.append("Binaries")
            lines.append(" " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"


# -- linearization helpers -------------------------------------------------


def linearize_indicator(
    ir: ModelIR,
    expr_terms: Iterable[Term],
    expr_const: float,
    indicator_idx: int,
    sense: str,
    big_m: float,
    name: str,
) -> list[int]:
    """Encode an implication between a binary and the sign of an affine expr.

    sense "geq": indicator=1 forces expr >= 0, via expr >= -M*(1-indicator).
    sense "leq": indicator=0 forces expr <= 0, via expr <= M*indicator.
    big_m must dominate the relevant side of the expression's range;
    0 is legal when that side is degenerate.
    """
    if big_m < 0:
        raise NonPositiveBigM(f"{name}: big-M {big_m} is negative")
    terms = list(expr_terms)
    rows = []
    if sense not in ("geq", "leq"):
        raise ValueError(f"indicator sense {sense!r}")
    if sense == "geq":
        # expr - M*ind >= -M - const  <=>  expr >= -M*(1-ind)
        rows.append(
            ir.add_constraint(
                name + "_on",
                terms + [(-big_m, indicator_idx)],
                Sense.GE,
                -big_m - expr_const,
                normalize=True,
            )
        )
    else:
        # expr - M*ind <= -const  <=>  expr <= M*ind
        rows.append(
            ir.add_constraint(
                name + "_off",
                terms + [(-big_m, indicator_idx)],
                Sense.LE,
                -expr_const,
                normalize=True,
            )
        )
    return rows


def linearize_binary_product(
    ir: ModelIR,
    binary_idx: int,
    cont_idx: int,
    cont_upper: float,
    name: str,
) -> int:
    """Exact product aux = binary * continuous for continuous in [0, ub]."""
    if not math.isfinite(cont_upper):
        raise UnboundedContinuous(f"{name}: continuous factor has no finite upper bound")
    aux = ir.add_var(name, VarKind.CONTINUOUS, lb=0.0, ub=max(cont_upper, 0.0))
    ir.add_constraint(name + "_le_cont", [(1.0, aux), (-1.0, cont_idx)], Sense.LE, 0.0)
    ir.add_constraint(
        name + "_le_bin", [(1.0, aux), (-cont_upper, binary_idx)], Sense.LE, 0.0
    )
    ir.add_constraint(
        name + "_ge",
        [(1.0, aux), (-1.0, cont_idx), (-cont_upper, binary_idx)],
        Sense.GE,
        -cont_upper,
    )
    return aux
