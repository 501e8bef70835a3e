"""Mixed-integer model builders for the two network design problems.

Both formulations share the same skeleton: single-path commodity flows on
a donor-rooted tree, per-node airtime budgets charged at both endpoints
of every wireless link, and a power-indexed capacity ladder encoded with
explicit big-M indicator rows plus a telescoping coupling

    c(e) <= alpha(e) * (C_0*phi_0 + sum_i (C_i - C_{i-1})*phi_i),

with the monotone chain phi_{i+1} <= phi_i.  Each edge's ladder comes from
the SINR interval its power reps can reach: levels met at the source's
on-power over maximum interference are the constant 1 whenever the
source carries traffic, levels missed even at maximum signal over
minimum interference are the constant 0, and only the levels in between
get an indicator, with big-Ms taken from the same interval.  The
on-power is the source's one power above zero when it has exactly one
(a constant, or a single level it can also switch off), and 0 otherwise.
With every power fixed the interval is a point, so fixed-power models
collapse to plain flow MILPs.

Every frontend's power is at most one (coefficient, column) term, which
the indicator rows read: a continuous power variable, the one binary of a
single power, or, for a grid of several levels above zero, one continuous
power column ``pw`` in [0, 1] defined by ``pw_def``: pw = sum (level/top)
* lam over the level binaries.  So each multi-level interferer costs a
row one coefficient, not one per level; the level binaries still carry
the level choice, the powered rows, the energy products and extraction.

An edge whose interval grants no level at all is dead.  When its source
has at most one power above zero, the edge is left out of routing like
an edge outside ``routing_edges``: it gets no variables and no rows.
Dead edges of continuous or multi-level sources stay, with capacity and
airtime bounded to 0.

The energy objective prices each edge's amplifier as delta_p * P * alpha,
one product w[e,l] = lam_l * alpha(e) per power level of the source, each
exact at binary lam by its three McCormick rows (Math. Programming 10,
1976).  Their LP relaxation is nearly free, so every edge whose source
has level binaries also gets two rows that are products of a row with a
variable (Sherali & Adams, SIAM J. Discrete Math. 3, 1990):

    wsum[e]:  sum_l w[e,l] = alpha(e),
    capw[e]:  cap(e) <= sum_l C_l(e) * w[e,l].

wsum holds since the level binaries sum to the activation act (act_def,
or the one act of a fixed power) and alpha <= use <= act (use_ge_alpha,
use_le_act), so sum_l w = alpha * act = alpha.  C_l(e) is the capacity
of the levels met at (g_sig*P_l, I_lo): no interference is below I_lo,
so at power P_l the edge meets no more levels; capacities never fall up
the ladder, so cap(e) <= C_l(e) * alpha = C_l(e) * w[e,l] with every
other product 0.  The levels come from the rule that sets ``top``, and
the power bound reads the same C_l.  Without a per-unit power, the LP
relaxation is then at least the power bound: use_ge_f and the flow rows
wake one frontend in total for each UE, and its in-edges carry its
demand d within cap <= sum_l C_l*w, so their amplifier terms are at
least d times the cheapest delta_p * P_l / C_l.

Interference coefficients always come from the full measurement graph,
even when routing is restricted to a pruned edge subset or an edge is
dead; a solution of a restricted model is therefore feasible in the
unrestricted one.

Every model carries a proven bound on its objective, ``BuiltModel.bound``,
which no feasible point beats.  For throughput it is the widest donor
path to each UE, for any two UEs the airtime their in-edges share when
both leave one node, and the first hop's airtime apportioned over the
UEs that must leave through it, at the capacities the sectors keep while
every sector that carries one of them is on (three UEs behind two donor
sectors get at most half a sector each, and a third of one where two
sectors on drown each other); for energy, one awake frontend plus each UE's
demand at its cheapest in-edge's watts per Mbps.  Both come from the
ladder arrays and add no column or row.  The head of the build, a pure
function of the trial (commodities, power reps, ladders, wired edges and
bound), computes it before any model exists, so ``model_bound`` lets a
search rule out a trial without building its model.  The build puts the
bound on the model IR, ``ir.bound``, which ``BuiltModel.bound`` reads:
HiGHS is handed it and stops once its incumbent meets it.  A throughput
model whose powers are all free grid levels (an exact model with no
``ptx`` column) also caps Z's column at the bound, so its LP relaxation
starts there; every other throughput model caps Z at the table's top
capacity.

A throughput model in which every frontend's power is free (the exact
model) carries a seed, ``ir.seed``: columns and the values that pin each
frontend's power.  By default that is every frontend at its top power
(``ptx`` at p_max, or the binary of its grid's top level at 1).  Given
``start`` powers, ``ptx`` is pinned at the power, and on a grid the
binary of the power's level at 1, or every level binary of a frontend
started at 0 at 0; selective reduction starts from the throughput
search's powers this way.  HiGHS first solves the model with those
columns pinned, which is the fixed-power flow problem at that point, and
starts the full solve from its answer.

An exact energy model's seed wakes the fewest frontends that reach every
demanded UE from the donor over wired routing edges and the live wireless routing
edges out of awake frontends, at most ``MAX_AWAKE_SEED`` of them: it pins
their ``act`` at 1 and every level binary of every other frontend at 0,
and leaves the levels to the pinned run.  No served point wakes fewer
frontends, and waking one costs n_trx * (p0 - p_sleep), 34 W in the
demo's power model, where each amplifier term of a 5 Mbps UE is a
fraction of a watt; so the optimum tends to wake a set this small.  A
model that needs more frontends carries none, and so does every model
with a fixed power.

Models are built from arrays.  Each graph's channel gains are computed
once per radio and shared by every model built on it; every edge's
ladder interval and every family of rows is computed with numpy over
all edges at once, with the same float operations, in the same order, as
a scalar computation of one term at a time would use.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ..channel import RadioParams, interference_coefficients, signal_coefficient
from ..errors import EmptyCommodities, UnsupportedMode
from ..graph import Commodity, Edge, EdgeKey, MeasurementGraph
from ..problem import (
    ContinuousPower,
    DiscretePower,
    FixedPower,
    ProblemInstance,
)
from .ir import PRODUCT_ROWS, ModelIR, indicator_row, product_rows

# Smallest transmit power (fraction of p_max) a continuous-power frontend
# may use while claiming any capacity; rules out the degenerate
# zero-signal/zero-interference corner of the threshold model.
MIN_ON_POWER_FRACTION = 1e-6

THROUGHPUT = "throughput"
ENERGY = "energy"


class _Reps(NamedTuple):
    """Each frontend's transmit power in the model; entry j is the j-th frontend id in order.

    A power is ``coef * x[var]``, or the constant ``lo`` (= ``hi``) where
    ``var`` is -1.  Its column is a continuous power variable, the one
    binary of a single power, or the power column of a grid with several
    levels, defined from the grid's level binaries.
    """

    col: dict[int, int]
    lo: np.ndarray  # lowest power (mW)
    hi: np.ndarray  # highest power (mW)
    coef: np.ndarray  # power = coef * x[var]
    var: np.ndarray  # the power's column, or -1 for a constant
    cont: np.ndarray  # continuous power variable, or -1
    act: np.ndarray  # activation binary (energy problem), or -1
    level_mw: np.ndarray  # frontends x grid levels above zero, padded with 0
    level_col: np.ndarray  # each level's binary, padded with -1

    @property
    def has_on(self) -> np.ndarray:
        """Whether level binaries tell if the frontend is on."""
        return (self.level_col >= 0).any(axis=1)

    @property
    def single(self) -> np.ndarray:
        """At most one power above zero: a constant, or one switchable level."""
        return (self.cont < 0) & ((self.level_col >= 0).sum(axis=1) <= 1)

    @property
    def free(self) -> np.ndarray:
        """Whether the model picks the power: ``ptx``, or level binaries other than ``act``."""
        levels = (self.level_col >= 0) & (self.level_col != self.act[:, None])
        return (self.cont >= 0) | levels.any(axis=1)

    @property
    def on(self) -> np.ndarray:
        """The one power above zero, or 0 where there are several."""
        return np.where(self.single, self.hi, 0.0)

    @property
    def rise(self) -> np.ndarray:
        """How far the power is above ``lo`` at least, while the frontend is on.

        Only level binaries switch a power on, and they come with ``lo`` 0,
        so that is the lowest level: a single rep's one power, or a sorted
        grid's ``level_mw[j, 0]``.  Constants and continuous powers rise by 0.
        """
        return self.level_mw[:, 0] if self.level_mw.shape[1] else np.zeros(len(self.lo))


@dataclass
class BuiltModel:
    """A model with its column layout; edge arrays follow ``routing_wireless``.

    Wireless edge j's columns start at ``v0[j]``: alpha, use, cap, then
    the ``phi`` binaries of ladder levels ``floor[j]`` to ``top[j] - 1``.
    ``flows[k, j]`` is commodity k's flow column on routing edge j of
    ``routing_wireless + routing_wired``.
    """

    problem: str
    ir: ModelIR
    instance: ProblemInstance
    commodities: tuple[Commodity, ...]
    routing_wireless: tuple[Edge, ...]
    routing_wired: tuple[Edge, ...]
    power_reps: _Reps
    v0: np.ndarray
    floor: np.ndarray  # ladder levels every power choice meets while on
    top: np.ndarray  # first ladder level no power choice meets
    flows: np.ndarray

    @property
    def bound(self) -> float:
        """Proven bound on the objective, which the model IR holds: no feasible point beats it."""
        return self.ir.bound


def build_throughput_model(
    instance: ProblemInstance,
    fixed_powers: Mapping[int, float] | None = None,
    routing_edges: Iterable[EdgeKey] | None = None,
    start: Mapping[int, float] | None = None,
) -> BuiltModel:
    """Maximize the smallest per-UE rate over tree, airtime and power choices.

    ``fixed_powers`` pins individual frontends regardless of the instance's
    power mode; ``routing_edges`` restricts which edges may carry traffic
    (interference still accumulates over the full graph).  ``start`` (mW
    by frontend id) is the seed's point when every power is free, in place
    of every top power.
    """
    return _build(instance, THROUGHPUT, fixed_powers, routing_edges, start)


def build_energy_model(
    instance: ProblemInstance,
    fixed_powers: Mapping[int, float] | None = None,
    routing_edges: Iterable[EdgeKey] | None = None,
) -> BuiltModel:
    """Minimize total network power while routing every positive demand.

    Zero-demand commodities impose nothing and are dropped; continuous
    power is rejected (the power-airtime objective product only stays
    linear for fixed or gridded powers).
    """
    return _build(instance, ENERGY, fixed_powers, routing_edges)


def model_bound(
    instance: ProblemInstance,
    problem: str,
    fixed_powers: Mapping[int, float] | None = None,
    routing_edges: Iterable[EdgeKey] | None = None,
) -> float:
    """The proven bound of ``problem``'s model, ``built.bound``, without building it.

    It is the bound of the build's own head, so it equals the built
    model's bound bit for bit, and it declares no model.
    """
    return _head(instance, problem, fixed_powers, routing_edges)[-1]


# -- channel gains, once per graph -------------------------------------------


class _Gains(NamedTuple):
    """Every wireless edge's gains under one radio, rows in graph edge order."""

    row: dict[EdgeKey, int]
    signal: np.ndarray  # received mW per transmitted mW on the edge's own link
    interference: np.ndarray  # edges x frontends in id order; 0 = not an interferer


# id(graph) -> (weak reference to the graph, gains per radio).  The entry
# leaves with its graph, so a later graph at the same address never hits it.
_GAINS: dict[int, tuple[weakref.ref, dict[RadioParams, _Gains]]] = {}


def _gains(graph: MeasurementGraph, radio: RadioParams) -> _Gains:
    key = id(graph)
    entry = _GAINS.get(key)
    if entry is None or entry[0]() is not graph:
        entry = _GAINS[key] = (weakref.ref(graph, lambda _, k=key: _GAINS.pop(k, None)), {})
    gains = entry[1].get(radio)
    if gains is None:
        edges = graph.wireless_edges
        col = {fid: j for j, fid in enumerate(sorted(n.id for n in graph.frontends))}
        interference = np.zeros((len(edges), len(col)))
        for r, e in enumerate(edges):
            for fid, coeff in interference_coefficients(graph, e, radio).items():
                interference[r, col[fid]] = coeff
        signal = np.array([signal_coefficient(graph, e, radio) for e in edges], dtype=float)
        gains = entry[1][radio] = _Gains(
            {e.key: r for r, e in enumerate(edges)}, signal, interference
        )
    return gains


# -- ladders -------------------------------------------------------------------


def _levels_met(thresholds: np.ndarray, signal_mw: np.ndarray, interference_mw: np.ndarray):
    """Ladder levels met at each (S, I), as ``capacity.ladder_position`` + 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        met = np.searchsorted(thresholds, signal_mw / interference_mw, side="right")
    met[interference_mw == 0] = len(thresholds)
    met[signal_mw == 0] = 0
    return met


def _big_ms(th, s_lo, s_hi, i_lo, i_hi):
    """(M_on, M_off) of a level at threshold ``th``.

    They bound -(S - th*I) and S - th*I from above over the interval, the
    source being off included.
    """
    return th * i_hi - s_lo, s_hi - th * i_lo


class _Ladders(NamedTuple):
    """Wireless edges with their gains and SINR intervals, one entry per edge."""

    edges: tuple[Edge, ...]
    src: np.ndarray  # rep column of the source
    g_sig: np.ndarray
    g_int: np.ndarray  # interference gains, edges x frontends
    floor: np.ndarray
    top: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    i_lo: np.ndarray
    i_hi: np.ndarray

    def take(self, keep: np.ndarray) -> _Ladders:
        edges = tuple(e for e, k in zip(self.edges, keep.tolist()) if k)
        return _Ladders(edges, *(a[keep] for a in self[1:]))


def _ladders(instance: ProblemInstance, reps: _Reps, edges: list[Edge]) -> _Ladders:
    """Each edge's ladder levels met while on, levels it can meet, and SINR interval.

    Over every power the reps allow, the signal spans [S_lo, S_hi] and
    noise plus interference spans [I_lo, I_hi].  The first ``floor``
    levels are met at (g_sig*on_mw, I_hi), so they hold whenever the
    source carries traffic (an edge's airtime is 0 while its source is
    off); no level from ``top`` up is met even at (S_hi, I_lo).
    """
    gains = _gains(instance.graph, instance.radio)
    at = np.array([gains.row[e.key] for e in edges], dtype=np.intp)
    src = np.array([reps.col[e.src] for e in edges], dtype=np.intp)
    g_sig, g_int = gains.signal[at], gains.interference[at]
    i_lo = np.full(len(edges), float(instance.radio.noise_mw))
    i_hi = i_lo.copy()
    # One frontend at a time in id order, so each sum is the scalar one.
    for j in range(g_int.shape[1]):
        i_lo += g_int[:, j] * reps.lo[j]
        i_hi += g_int[:, j] * reps.hi[j]
    s_hi = g_sig * reps.hi[src]
    th = np.asarray(instance.capacity_table.thresholds_linear)
    floor = _levels_met(th, g_sig * reps.on[src], i_hi)
    top = _levels_met(th, s_hi, i_lo)
    return _Ladders(
        tuple(edges), src, g_sig, g_int, floor, top, g_sig * reps.lo[src], s_hi, i_lo, i_hi
    )


# -- model ---------------------------------------------------------------------


class _Terms:
    """COO terms of one block of rows, gathered piecewise."""

    def __init__(self):
        self.parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, rows, cols, coefs) -> None:
        """Terms ``coefs[k] * x[cols[k]]`` in ``rows[k]``; a scalar row or coefficient repeats."""
        n = len(cols)
        self.parts.append((
            rows if isinstance(rows, np.ndarray) else np.full(n, rows),
            cols,
            coefs if isinstance(coefs, np.ndarray) else np.full(n, coefs),
        ))

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        return tuple(np.concatenate(p) for p in zip(*self.parts))


def _head(
    instance: ProblemInstance,
    problem: str,
    fixed_powers: Mapping[int, float] | None,
    routing_edges: Iterable[EdgeKey] | None,
):
    """A trial's commodities, power reps and block, routing edges' ladders, wired edges, bound.

    Throughput serves every commodity, energy only those with demand.
    """
    commodities = instance.commodities
    if problem == ENERGY:
        commodities = tuple(c for c in commodities if c.demand_mbps > 0)
    elif not commodities:
        raise EmptyCommodities("throughput problem needs at least one commodity")
    g = instance.graph
    allowed = None if routing_edges is None else set(routing_edges)
    wired = tuple(e for e in g.wired_edges if allowed is None or e.key in allowed)
    reps, emit = _power_reps(instance, problem, fixed_powers)
    lad = _ladders(
        instance, reps, [e for e in g.wireless_edges if allowed is None or e.key in allowed]
    )
    # Dead edges of single-power sources leave routing; they still
    # interfere, since the gains cover the full graph.
    lad = lad.take((lad.top > 0) | ~reps.single[lad.src])
    if problem == ENERGY:
        bound = _power_bound(instance, commodities, reps, lad, _asleep_w(reps, instance))
    else:
        bound = _rate_bound(instance, commodities, reps, lad, wired)
    return commodities, reps, emit, lad, wired, bound


def _build(
    instance: ProblemInstance,
    problem: str,
    fixed_powers: Mapping[int, float] | None,
    routing_edges: Iterable[EdgeKey] | None,
    start: Mapping[int, float] | None = None,
) -> BuiltModel:
    commodities, reps, emit, lad, wired, bound = _head(
        instance, problem, fixed_powers, routing_edges
    )
    g = instance.graph
    ir = ModelIR()
    ir.bound = bound
    emit(ir)
    wireless = lad.edges
    v0 = _emit_edges(ir, instance, reps, lad)
    alpha, use, cap = v0, v0 + 1, v0 + 2
    n_wl = len(wireless)
    src_ids = np.array([e.src for e in wireless], dtype=np.int64)
    dst_ids = np.array([e.dst for e in wireless], dtype=np.int64)

    # Airtime budgets: each wireless edge charges both its endpoints.
    nodes, row = np.unique(np.concatenate([src_ids, dst_ids]), return_inverse=True)
    ir.add_rows(
        [f"airtime[{n}]" for n in nodes.tolist()], -np.inf, 1.0,
        row, np.concatenate([alpha, alpha]), 1.0,
    )

    # Tree rule: at most one chosen incoming wireless edge per non-donor node.
    nodes, row, count = np.unique(dst_ids, return_inverse=True, return_counts=True)
    capped = (count >= 2) & (nodes != g.donor.id)
    hit = capped[row]
    ir.add_rows(
        [f"indegree[{n}]" for n in nodes[capped].tolist()], -np.inf, 1.0,
        (np.cumsum(capped) - 1)[row[hit]], use[hit], 1.0,
    )

    # Commodity flows.
    routing = wireless + wired
    flow_ub = 1.0 if problem == ENERGY else instance.capacity_table.max_capacity_mbps
    flows = np.asarray(ir.add_vars(
        [f"f[k{c.id},{e.src}->{e.dst}]" for c in commodities for e in routing],
        problem == ENERGY, 0.0, flow_ub,
    ), dtype=np.int64).reshape(len(commodities), len(routing))
    _emit_conservation(ir, g, problem, commodities, routing, flows)

    # Wireless capacity caps aggregate (demand-weighted) flow.
    weight = [c.demand_mbps if problem == ENERGY else 1.0 for c in commodities]
    edge_at = np.arange(n_wl)
    ir.add_rows(
        [f"capacity[{e.src}->{e.dst}]" for e in wireless], -np.inf, 0.0,
        np.concatenate([np.tile(edge_at, len(commodities)), edge_at]),
        np.concatenate([flows[:, :n_wl].ravel(), cap]),
        np.concatenate([np.repeat(weight, n_wl), -np.ones(n_wl)]),
    )

    built = BuiltModel(
        problem, ir, instance, commodities, wireless, wired, reps, v0, lad.floor, lad.top, flows
    )
    if problem == ENERGY:
        _finish_energy(built, lad)
    else:
        _finish_throughput(built, lad, start)
    return built


def _emit_edges(ir: ModelIR, instance: ProblemInstance, reps: _Reps, lad: _Ladders) -> np.ndarray:
    """Declare each wireless edge's variables and emit its ladder rows.

    Per edge, in order: variables alpha, use, cap, the ``phi`` binaries of
    levels floor..top-1 and one product ``y`` per level with a capacity
    step; rows use_ge_alpha, then per level its two indicator rows (S -
    th*I >= 0 while phi is 1, <= 0 while it is 0) and its chain row, the
    powered row, the product rows and the coupling row

        cap <= C_{floor-1}*alpha + sum_i (C_i - C_{i-1}) * phi_i * alpha.

    An edge whose interval grants no level gets only use_ge_alpha, with
    capacity and airtime bounded to 0.  Returns each edge's first variable.
    """
    table = instance.capacity_table
    th = np.asarray(table.thresholds_linear)
    caps = np.asarray(table.capacities_mbps)
    delta = np.diff(caps, prepend=0.0)
    stepped = np.concatenate([[0], np.cumsum(delta != 0.0)])  # steps below each level
    floor, top, src = lad.floor, lad.top, lad.src
    n_lvl = top - floor
    n_y = stepped[top] - stepped[floor]
    powered = (n_lvl > 0) & (reps.has_on | (reps.cont >= 0))[src]
    n_thr = np.maximum(3 * n_lvl - 1, 0)
    n_rows = 1 + (top > 0) * (n_thr + powered + 3 * n_y + 1)
    n_vars = 3 + n_lvl + n_y
    v0 = ir.num_vars + np.cumsum(n_vars) - n_vars
    r0 = np.cumsum(n_rows) - n_rows

    names, binary, ubs, row_names = [], [], [], []
    c_max = table.max_capacity_mbps
    for e, f, t, pw in zip(lad.edges, floor.tolist(), top.tolist(), powered.tolist()):
        k = f"{e.src}->{e.dst}"
        steps = [i for i in range(f, t) if delta[i] != 0.0]
        names += [f"alpha[{k}]", f"use[{k}]", f"cap[{k}]"]
        names += [f"phi[{k},{i}]" for i in range(f, t)] + [f"y[{k},{i}]" for i in steps]
        binary += [False, True, False] + [True] * (t - f) + [False] * len(steps)
        cap_ub = 0.0 if t == 0 else caps[t - 1] if f == t else c_max
        ubs += [0.0 if t == 0 else 1.0, 1.0, cap_ub] + [1.0] * (t - f + len(steps))
        row_names.append(f"use_ge_alpha[{k}]")
        if t == 0:
            continue
        for i in range(f, t):
            row_names += [f"thr[{k},{i}]_on", f"thr[{k},{i}]_off"]
            if i > f:
                row_names.append(f"chain[{k},{i}]")
        if pw:
            row_names.append(f"powered[{k}]")
        row_names += [f"y[{k},{i}]{s}" for i in steps for s in PRODUCT_ROWS]
        row_names.append(f"couple[{k}]")
    ir.add_vars(names, binary, 0.0, ubs)

    lo, hi = np.full(len(row_names), -np.inf), np.zeros(len(row_names))
    normalize = np.zeros(len(row_names), dtype=bool)
    out = _Terms()
    lo[r0], hi[r0] = 0.0, np.inf
    out.add(r0, v0 + 1, 1.0)
    out.add(r0, v0, -1.0)

    # Indicator rows of every level: S - th*I as an affine expression
    # (constant reps have no term) against phi with big-Ms from the interval.
    ladder = np.arange(len(th))
    e_of, lvl = np.nonzero((floor[:, None] <= ladder) & (ladder < top[:, None]))
    j = lvl - floor[e_of]
    th_l = th[lvl]
    phi = v0[e_of] + 3 + j
    on = r0[e_of] + 1 + 3 * j - (j > 0)
    m_on, m_off = _big_ms(th_l, lad.s_lo[e_of], lad.s_hi[e_of], lad.i_lo[e_of], lad.i_hi[e_of])
    expr_const = lad.s_lo[e_of] - th_l * lad.i_lo[e_of]
    who = np.flatnonzero(reps.var[src[e_of]] >= 0)
    sender = src[e_of][who]
    signal = (who, reps.var[sender], lad.g_sig[e_of][who] * reps.coef[sender])
    # Interference: g_k times the power term of interferer k, k in id order.
    who, k = np.nonzero(((lad.g_int != 0) & (reps.var >= 0))[e_of])
    interference = (who, reps.var[k], -th_l[who] * (lad.g_int[e_of[who], k] * reps.coef[k]))
    for rows, sense, big_m in ((on, "geq", m_on), (on + 1, "leq", m_off)):
        coeff, lo[rows], hi[rows] = indicator_row(sense, big_m, expr_const)
        normalize[rows] = True
        out.add(rows, phi, coeff)
        for who, cols, coefs in (signal, interference):
            out.add(rows[who], cols, coefs)
    chained = j > 0
    out.add(on[chained] + 2, phi[chained], 1.0)
    out.add(on[chained] + 2, phi[chained] - 1, -1.0)

    # Capacity needs transmit power: tie the lowest indicator to the
    # source actually being on.  The floor's levels need it too, which
    # use <= on (use_le_act, use_le_on) enforces.
    p_row = r0 + 1 + n_thr
    by_on = powered & reps.has_on[src]
    out.add(p_row[by_on], v0[by_on] + 3, 1.0)
    lam = reps.level_col[src[by_on]]
    out.add(p_row[by_on][np.nonzero(lam >= 0)[0]], lam[lam >= 0], -1.0)
    by_cont = powered & ~reps.has_on[src]
    lo[p_row[by_cont]], hi[p_row[by_cont]] = 0.0, np.inf
    out.add(p_row[by_cont], reps.cont[src[by_cont]], 1.0)
    p_eps = MIN_ON_POWER_FRACTION * instance.radio.p_max_mw
    out.add(p_row[by_cont], v0[by_cont] + 3, -p_eps)

    # y = phi * alpha for every level with a capacity step.
    step = delta[lvl] != 0.0
    rank = (stepped[lvl] - stepped[floor[e_of]])[step]
    y = (v0 + 3 + n_lvl)[e_of][step] + rank
    y_row = (p_row + powered)[e_of][step] + 3 * rank
    rows, cols, coefs, y_lo, y_hi = product_rows(phi[step], v0[e_of][step], 1.0, y)
    placed = (y_row[:, None] + np.arange(3)).ravel()  # block row of each product row
    lo[placed], hi[placed] = y_lo, y_hi
    out.add(placed[rows], cols, coefs)

    # Levels below the floor always hold, so they add caps[floor-1]*alpha.
    live = top > 0
    c_row = r0 + n_rows - 1
    out.add(c_row[live], v0[live] + 2, 1.0)
    low = live & (floor > 0)
    out.add(c_row[low], v0[low], -caps[floor[low] - 1])
    out.add(c_row[e_of][step], y, -delta[lvl][step])
    ir.add_rows(row_names, lo, hi, *out.coo(), normalize)
    return v0


def _emit_conservation(ir, g, problem, commodities, routing, flows) -> None:
    """Per commodity: conservation at every other node, then source and destination rows."""
    node_ids = [n.id for n in g.nodes]
    pos = {n: p for p, n in enumerate(node_ids)}
    tail = np.array([pos[e.src] for e in routing], dtype=np.int64)
    head = np.array([pos[e.dst] for e in routing], dtype=np.int64)
    touched = np.zeros(len(node_ids), dtype=bool)
    touched[tail] = True
    touched[head] = True
    names: list[str] = []
    rhs: list[float] = []
    out = _Terms()
    for comm, f in zip(commodities, flows):
        s, d = pos[comm.source], pos[comm.dest]
        inner = touched.copy()
        inner[[s, d]] = False
        row = len(names) + np.cumsum(inner) - 1
        names += [f"cons[k{comm.id},{node_ids[p]}]" for p in np.flatnonzero(inner).tolist()]
        rhs += [0.0] * (len(names) - len(rhs))
        out.add(row[tail[inner[tail]]], f[inner[tail]], 1.0)
        out.add(row[head[inner[head]]], f[inner[head]], -1.0)
        src_net = ((tail == s, 1.0), (head == s, -1.0))
        dst_net = ((head == d, 1.0), (tail == d, -1.0))
        r = len(names)
        if problem == ENERGY:
            names += [f"src[k{comm.id}]", f"dst[k{comm.id}]"]
            rhs += [1.0, 1.0]
            for m, c in src_net:
                out.add(r, f[m], c)
            for m, c in dst_net:
                out.add(r + 1, f[m], c)
        else:
            # Net outflow at the donor mirrors net inflow at the UE.
            names.append(f"srcdst[k{comm.id}]")
            rhs.append(0.0)
            for m, c in src_net:
                out.add(r, f[m], c)
            for m, c in dst_net:
                out.add(r, f[m], -c)
    ir.add_rows(names, rhs, rhs, *out.coo())


def _finish_throughput(
    built: BuiltModel, lad: _Ladders, start: Mapping[int, float] | None
) -> None:
    ir, reps, v0, flows = built.ir, built.power_reps, built.v0, built.flows
    commodities = built.commodities
    exact = reps.free.all()
    # An exact model on a power grid caps Z at the proven bound, so its LP
    # starts there; other models keep the table's top.
    z_ub = built.instance.capacity_table.max_capacity_mbps
    if exact and (reps.cont < 0).all():
        z_ub = min(z_ub, ir.bound)
    (z,) = ir.add_vars(["Z"], ub=z_ub)
    heads = np.array([e.dst for e in built.routing_wireless + built.routing_wired], dtype=np.int64)
    dests = np.array([c.dest for c in commodities], dtype=np.int64)
    comm_of, edge_of = np.nonzero(heads[None, :] == dests[:, None])
    out = _Terms()
    out.add(comm_of, flows[comm_of, edge_of], 1.0)
    out.add(np.arange(len(commodities)), np.full(len(commodities), z), -1.0)
    ir.add_rows([f"rate[k{c.id}]" for c in commodities], 0.0, np.inf, *out.coo())

    # A source that can be off meets its edges' floor levels only while on,
    # so those edges carry traffic only then.
    gated = reps.has_on[lad.src] & (lad.floor > 0)
    lam = reps.level_col[lad.src[gated]]
    out = _Terms()
    out.add(np.arange(int(gated.sum())), (v0 + 1)[gated], 1.0)
    out.add(np.nonzero(lam >= 0)[0], lam[lam >= 0], -1.0)
    ir.add_rows(
        [f"use_le_on[{e.src}->{e.dst}]" for e, m in zip(lad.edges, gated.tolist()) if m],
        -np.inf, 0.0, *out.coo(),
    )
    ir.set_objective("max", [z], [1.0])
    if exact:
        ir.seed = _seed(reps, start)


def _seed(reps: _Reps, start: Mapping[int, float] | None):
    """(columns, values) that pin every free power at ``start``, or at its top.

    ``ptx`` is pinned at the power itself; on a grid, the binary of the
    power's level is pinned at 1, or every level binary at 0 for power 0.
    """
    lit = {}
    for fid, j in reps.col.items():
        p = reps.hi[j] if start is None else start[fid]
        if reps.cont[j] >= 0:
            lit[fid] = (reps.cont[j], p)
        elif p > 0:
            at = np.flatnonzero(reps.level_mw[j] == p)
            if at.size != 1:
                raise ValueError(f"frontend {fid}: start power {p} mW is not a grid level")
            lit[fid] = (reps.level_col[j, at[0]], 1.0)
    return _pins(reps, lit)


def _pins(reps: _Reps, lit: Mapping[int, tuple[int, float]]):
    """(columns, values): ``lit``'s (column, value) per frontend, else its level binaries at 0."""
    cols, values = [], []
    for fid, j in reps.col.items():
        if fid in lit:
            cols.append(lit[fid][0])
            values.append(lit[fid][1])
        else:
            lam = reps.level_col[j][reps.level_col[j] >= 0]
            cols.extend(lam)
            values.extend([0.0] * len(lam))
    return np.array(cols, dtype=np.int64), np.array(values, dtype=float)


def _rate_bound(
    instance: ProblemInstance,
    commodities: tuple[Commodity, ...],
    reps: _Reps,
    lad: _Ladders,
    wired: tuple[Edge, ...],
) -> float:
    """No UE's rate beats its widest donor path, two UEs' shared airtime, or its first hop.

    The tree rule leaves each node but the donor at most one incoming edge
    with flow, so a served UE's parent chain reaches the donor and carries
    at least the UE's rate Z on every edge, and a wireless edge carries at
    most C(e), the capacity of its top level (Pollack's bottleneck path,
    Oper. Res. 8, 1960).  Wired edges are unbounded; edges granting no
    level carry nothing.  So Z is at most w(e) = min(C(e), widest(src e))
    for the in-edge e the UE is served over.

    Each UE's in-edge e also carries Z at airtime at least Z / C(e), and
    in-edges that leave one node share that node's airtime, which is at
    most 1 (the node-conflict argument of Jain, Padhye, Padmanabhan &
    Qiu, MobiCom 2003).  So for any two UEs, Z is at most the largest,
    over their in-edge pairs (e, f), of min(w(e), w(f)), and of
    1 / (1/C(e) + 1/C(f)) when e and f are wireless edges of one source.

    The first hop shares airtime the same way.  The nodes the donor
    reaches over wired edges alone are those its widest path reaches
    unbounded; the ones with live wireless out-edges are its first-hop
    sources (its sectors).  No UE is among them, so the parent chain of
    each of the K UEs leaves that reach over one wireless edge, out of
    one first-hop source f, and that edge carries at least Z for the UE.
    Let S* be the sources the K chains leave over, at most K of them.
    Each carries traffic, so it is on (use_le_on, or the powered row)
    and its power is at least ``_Reps.rise`` above its ``lo``: every
    other member g adds at least g_int[e, g] * rise(g) to I_lo at the
    receiver of f's edge e.  So e meets no level above those met at
    (S_hi, I_lo + that sum), whose top capacity is C(e, S*), and f's
    out-edges carry at most C(e, S*) * alpha(e) each within f's airtime
    of at most 1, so at most C_f(S*) in total, the largest C(e, S*)
    among them.  So the n_f UEs whose chains leave over f need
    n_f * Z <= C_f(S*), and sum_f floor(C_f(S*) / Z) >= K: Z is at most
    the K-th largest of the quotients C_f(S*) / j, j = 1..K, the
    Jefferson (D'Hondt) apportionment of K seats (Balinski & Young, Fair
    Representation, 1982).  S* is not known, so the term is the largest
    of that apportionment over every set S of at most K first-hop
    sources.
    """
    caps = np.asarray(instance.capacity_table.capacities_mbps)
    live = lad.top > 0
    n_live = int(live.sum())
    edges = [e for e, k in zip(lad.edges, live.tolist()) if k] + list(wired)
    width = np.concatenate([caps[lad.top[live] - 1], np.full(len(wired), np.inf)])
    pos = {n.id: p for p, n in enumerate(instance.graph.nodes)}
    tail = np.array([pos[e.src] for e in edges], dtype=np.int64)
    head = np.array([pos[e.dst] for e in edges], dtype=np.int64)
    # Every commodity leaves the donor (ProblemInstance).
    widest = np.zeros(len(pos))
    widest[pos[instance.graph.donor.id]] = np.inf
    while True:  # each pass lengthens the paths considered by one edge
        wider = widest.copy()
        np.maximum.at(wider, head, np.minimum(widest[tail], width))
        if (wider == widest).all():
            break
        widest = wider
    dests = [pos[c.dest] for c in commodities]
    bound = min(instance.capacity_table.max_capacity_mbps, float(widest[dests].min()))
    hop = np.isinf(widest[tail[:n_live]])  # live wireless edges out of the wired reach
    hop_caps = np.zeros(len(pos))
    np.maximum.at(hop_caps, tail[:n_live][hop], width[:n_live][hop])
    first = np.flatnonzero(live)[hop]
    bound = min(bound, _first_hop_term(instance, lad, first, reps.rise, hop_caps, len(dests)))
    ends = []  # per commodity: its in-edges' w(e), airtime per Mbps and source
    for d in dests:
        into = head == d
        with np.errstate(divide="ignore"):  # a level of capacity 0 takes all airtime
            per_mbps = 1.0 / width[into]  # 0 on wired edges
        ends.append((np.minimum(width[into], widest[tail[into]]), per_mbps, tail[into]))
    return min(bound, _shared_airtime_bound(ends))


def _first_hop_term(
    instance: ProblemInstance,
    lad: _Ladders,
    first: np.ndarray,
    rise: np.ndarray,
    hop_caps: np.ndarray,
    k: int,
) -> float:
    """The first-hop term of ``_rate_bound``: the largest, over sets S, of k-th largest C_f(S) / j.

    ``first`` are the first-hop edges' entries in ``lad``, ``rise`` each
    frontend's ``_Reps.rise`` and ``hop_caps`` each first-hop source's
    C_f, in any order.  S runs over the sets of at most k sources of the
    first-hop edges; while none of them rises, each C_f(S) is C_f, and
    the term is the apportionment of every C_f at once.
    """
    src = lad.src[first]
    if not rise[src].any():
        return _first_hop_bound(hop_caps, k)
    caps = np.asarray(instance.capacity_table.capacities_mbps)
    th = np.asarray(instance.capacity_table.thresholds_linear)
    sources, term = np.unique(src).tolist(), 0.0
    for size in range(1, k + 1):
        for s in itertools.combinations(sources, size):
            # Every other member of S is on; a source does not interfere
            # with its own edges (its g_int is 0 there).
            i_on = lad.i_lo[first]
            for g in s:
                i_on += lad.g_int[first, g] * rise[g]
            met = _levels_met(th, lad.s_hi[first], i_on)
            inside = np.isin(src, s) & (met > 0)
            c_s = np.zeros(len(rise))
            np.maximum.at(c_s, src[inside], caps[met[inside] - 1])
            term = max(term, _first_hop_bound(c_s, k))
    return term


def _first_hop_bound(hop_caps: np.ndarray, k: int) -> float:
    """The apportionment of k UEs over capacities C_f: the k-th largest C_f / j, j = 1..k."""
    quotients = np.sort((hop_caps[hop_caps > 0][:, None] / np.arange(1, k + 1)).ravel())
    return float(quotients[-k]) if len(quotients) >= k else 0.0


def _shared_airtime_bound(ends) -> float:
    """The pair term of ``_rate_bound``: the smallest over UE pairs, inf for one UE."""
    bound = np.inf
    for k, (w_k, t_k, src_k) in enumerate(ends):
        for w_l, t_l, src_l in ends[k + 1:]:
            z = np.minimum(w_k[:, None], w_l[None, :])
            shared = (src_k[:, None] == src_l[None, :]) & (t_k[:, None] > 0) & (t_l[None, :] > 0)
            z[shared] = np.minimum(z[shared], 1.0 / (t_k[:, None] + t_l[None, :])[shared])
            bound = min(bound, float(z.max(initial=0.0)))
    return bound


def _finish_energy(built: BuiltModel, lad: _Ladders) -> None:
    ir, reps, v0, flows = built.ir, built.power_reps, built.v0, built.flows
    instance = built.instance
    g = instance.graph
    pm = instance.power_model

    # f(e) >= f_k(e) ties usage to routing; usage implies the source is on.
    # A source without an activation binary is a constant above zero here:
    # a switched-off one has only dead edges, which are out of routing.
    n_c = len(built.commodities)
    act = reps.act[lad.src]
    gated = act >= 0
    n_rows = n_c + gated
    r0 = np.cumsum(n_rows) - n_rows
    lo, hi = np.zeros(int(n_rows.sum())), np.full(int(n_rows.sum()), np.inf)
    out = _Terms()
    e_of, k = np.repeat(np.arange(len(lad.edges)), n_c), np.tile(np.arange(n_c), len(lad.edges))
    out.add(r0[e_of] + k, v0[e_of] + 1, 1.0)
    out.add(r0[e_of] + k, flows[k, e_of], -1.0)
    act_row = r0[gated] + n_c
    lo[act_row], hi[act_row] = -np.inf, 0.0
    out.add(act_row, v0[gated] + 1, 1.0)
    out.add(act_row, act[gated], -1.0)
    names = []
    for e, a in zip(lad.edges, gated.tolist()):
        names += [f"use_ge_f[k{c.id},{e.src}->{e.dst}]" for c in built.commodities]
        if a:
            names.append(f"use_le_act[{e.src}->{e.dst}]")
    ir.add_rows(names, lo, hi, *out.coo())

    obj_cols = [a for a in reps.act.tolist() if a >= 0]
    obj_coefs = [pm.n_trx * (pm.p0_w - pm.p_sleep_w)] * len(obj_cols)

    # Amplifier term: delta_p * P_tx * alpha, expanded per power level with
    # exact products w = lam * alpha.
    who, at, p_mw, level_cap = _level_caps(instance, reps, lad)
    lam = reps.level_col[lad.src[who], at]
    names = [
        f"w[{lad.edges[i].src}->{lad.edges[i].dst},l{l}]"
        for i, l in zip(who.tolist(), lam.tolist())
    ]
    w = np.asarray(ir.add_vars(names, ub=1.0), dtype=np.int64)
    rows, cols, coefs, lo, hi = product_rows(lam, v0[who], 1.0, w)
    ir.add_rows([n + s for n in names for s in PRODUCT_ROWS], lo, hi, rows, cols, coefs)

    # Each edge's products summed (wsum: sum_l w = alpha), and its capacity
    # capped level by level (capw: cap <= sum_l C_l * w); see the docstring.
    edge_at, row = np.unique(who, return_inverse=True)
    n_e = len(edge_at)
    out = _Terms()
    out.add(row, w, 1.0)
    out.add(np.arange(n_e), v0[edge_at], -1.0)
    out.add(n_e + row, w, -level_cap)
    out.add(n_e + np.arange(n_e), v0[edge_at] + 2, 1.0)
    keys = [f"{lad.edges[i].src}->{lad.edges[i].dst}" for i in edge_at.tolist()]
    ir.add_rows(
        [f"wsum[{k}]" for k in keys] + [f"capw[{k}]" for k in keys],
        np.repeat([0.0, -np.inf], n_e), 0.0, *out.coo(),
    )

    if pm.p_active_unit_w > 0:
        units: dict[int, list[int]] = {}
        for fid, a in zip(reps.col, reps.act.tolist()):
            if a >= 0:
                units.setdefault(g.node(fid).unit_id, []).append(a)
        unit_on = ir.add_vars([f"unit_on[{u}]" for u in sorted(units)], binary=True)
        names, cols = [], []
        for unit, a_unit in zip(sorted(units), unit_on):
            for act_idx in units[unit]:
                names.append(f"unit_on_ge[{unit},{act_idx}]")
                cols += [a_unit, act_idx]
            obj_cols.append(a_unit)
            obj_coefs.append(pm.p_active_unit_w)
        ir.add_rows(
            names, 0.0, np.inf, np.repeat(np.arange(len(names)), 2), cols,
            np.tile([1.0, -1.0], len(names)),
        )

    ir.set_objective(
        "min",
        np.concatenate([w, np.array(obj_cols, dtype=np.int64)]),
        np.concatenate([pm.delta_p * p_mw / 1000.0, np.array(obj_coefs, dtype=float)]),
        _asleep_w(reps, instance),
    )
    if reps.free.all():
        ir.seed = _awake_seed(built, lad)


# The most frontends ``_awake_seed`` tries to wake.
MAX_AWAKE_SEED = 3


def _awake_seed(built: BuiltModel, lad: _Ladders):
    """(columns, values) that wake the fewest frontends that reach every UE, or ().

    A UE is reached from the donor over wired routing edges and the live
    wireless routing edges out of awake frontends.  Sets are tried by
    size, then by ascending frontend ids, up to ``MAX_AWAKE_SEED``
    frontends; the first that reaches every demanded UE is pinned awake
    (``act`` at 1), and every level binary of every other frontend at 0.
    The levels stay free, so HiGHS's pinned run picks them.
    """
    reps = built.power_reps
    wired: dict[int, list[int]] = {}
    for e in built.routing_wired:
        wired.setdefault(e.src, []).append(e.dst)
    radiates: dict[int, list[int]] = {}
    for e, live in zip(lad.edges, (lad.top > 0).tolist()):
        if live:
            radiates.setdefault(e.src, []).append(e.dst)
    dests = {c.dest for c in built.commodities}

    def reaches_all(awake: tuple[int, ...]) -> bool:
        todo = [built.instance.graph.donor.id]
        reached = set(todo)
        while todo:
            n = todo.pop()
            for m in wired.get(n, []) + (radiates[n] if n in awake else []):
                if m not in reached:
                    reached.add(m)
                    todo.append(m)
        return dests <= reached

    # A first covering set wakes only frontends with live edges: any other
    # member could leave it, giving a smaller covering set.
    sets = (
        awake
        for size in range(MAX_AWAKE_SEED + 1)
        for awake in itertools.combinations(sorted(radiates), size)
    )
    awake = next(filter(reaches_all, sets), None)
    if awake is None:
        return ()
    return _pins(reps, {fid: (reps.act[reps.col[fid]], 1.0) for fid in awake})


def _asleep_w(reps: _Reps, instance: ProblemInstance) -> float:
    """The objective constant: every frontend asleep."""
    pm = instance.power_model
    constant = 0.0
    for _ in reps.act.tolist():
        constant += pm.n_trx * pm.p_sleep_w
    return constant


def _level_caps(instance: ProblemInstance, reps: _Reps, lad: _Ladders):
    """Each edge's source power levels: (edge, level, mW, capacity at (g_sig*mW, I_lo)).

    No interference is below I_lo, so at that power the edge meets no
    more levels than these; the rule is ``_levels_met``, as for ``top``.
    """
    table = instance.capacity_table
    who, at = np.nonzero(reps.level_col[lad.src] >= 0)
    p_mw = reps.level_mw[lad.src[who], at]
    met = _levels_met(np.asarray(table.thresholds_linear), lad.g_sig[who] * p_mw, lad.i_lo[who])
    return who, at, p_mw, np.where(met > 0, np.asarray(table.capacities_mbps)[met - 1], 0.0)


def _power_bound(
    instance: ProblemInstance,
    commodities: tuple[Commodity, ...],
    reps: _Reps,
    lad: _Ladders,
    constant: float,
) -> float:
    """No network power undercuts one awake frontend plus each UE's cheapest in-edge.

    A positive demand reaches its UE over a wireless edge, so that edge's
    source and its unit are awake.  The UE's one chosen in-edge e carries
    its demand d, and at source power p it grants at most the levels met
    at (g_sig*p, I_lo), so d <= C(met)*alpha(e) and e's amplifier term
    delta_p*p*alpha(e) is at least delta_p*p*d/C(met).  Distinct UEs have
    distinct in-edges, and every other term is at least 0.
    """
    if not commodities:
        return constant
    pm = instance.power_model
    who, _, p_mw, cap = _level_caps(instance, reps, lad)
    w_per_mbps = np.full(len(lad.edges), np.inf)
    with np.errstate(divide="ignore"):
        np.minimum.at(w_per_mbps, who, np.where(cap > 0, pm.delta_p * (p_mw / 1000.0) / cap, np.inf))
    heads = np.array([e.dst for e in lad.edges], dtype=np.int64)
    bound = constant + pm.n_trx * (pm.p0_w - pm.p_sleep_w) + pm.p_active_unit_w
    for c in commodities:
        bound += c.demand_mbps * float(w_per_mbps[heads == c.dest].min(initial=np.inf))
    return bound


def _power_reps(
    instance: ProblemInstance,
    problem: str,
    fixed_powers: Mapping[int, float] | None,
):
    """Every frontend's power reps, and ``emit(ir)`` that declares their columns and rows.

    The columns are numbered from 0: the block goes first into a fresh model.
    """
    mode = instance.power_mode
    fixed_powers = dict(fixed_powers or {})
    p_max = instance.radio.p_max_mw
    fids = sorted(n.id for n in instance.graph.frontends)
    names, binary, ubs = [], [], []
    lo, hi, cont, act, terms, levels, rows, defs = [], [], [], [], [], [], [], []

    def declare(name: str, is_binary: bool = True, ub: float = 1.0) -> int:
        names.append(name)
        binary.append(is_binary)
        ubs.append(ub)
        return len(names) - 1

    for fid in fids:
        if fid in fixed_powers:
            p = float(fixed_powers[fid])
        elif isinstance(mode, FixedPower):
            if fid not in mode.powers_mw:
                raise ValueError(f"fixed power mode misses frontend {fid}")
            p = float(mode.powers_mw[fid])
        else:
            p = None

        c, a, lam, term = -1, -1, [], None
        if p is not None:
            if p < 0 or p > p_max + 1e-9:
                raise ValueError(f"frontend {fid}: power {p} mW outside [0, p_max]")
            if problem == ENERGY and p > 0:
                # Energy: a preset power applies only while the frontend is
                # awake, so the effective power is p * a(fid).
                a = declare(f"act[{fid}]")
                lam = [(p, a)]
            low, high = (0.0 if lam else p), p
        elif isinstance(mode, ContinuousPower):
            if problem == ENERGY:
                raise UnsupportedMode("energy problem cannot leave powers continuous")
            c = declare(f"ptx[{fid}]", is_binary=False, ub=p_max)
            low, high, term = 0.0, p_max, (1.0, c)
        elif isinstance(mode, DiscretePower):
            grid = [l for l in mode.levels_mw if l > 0]
            if max(mode.levels_mw) > p_max + 1e-9:
                raise ValueError("power grid exceeds p_max")
            lam = [(lvl, declare(f"lam[{fid},{i}]")) for i, lvl in enumerate(grid)]
            row = [(1.0, idx) for _, idx in lam]
            if problem == ENERGY:
                a = declare(f"act[{fid}]")
                row.append((-1.0, a))
            rows.append((f"act_def[{fid}]" if problem == ENERGY else f"one_level[{fid}]", row))
            low, high = 0.0, max(grid)
            if len(lam) > 1:
                # One power column, as a fraction of the top level, stands
                # for the level sum in every row that reads the power.
                pw = declare(f"pw[{fid}]", is_binary=False)
                defs.append((f"pw_def[{fid}]", [(1.0, pw)] + [(-l / high, i) for l, i in lam]))
                term = (high, pw)
        else:
            raise UnsupportedMode(f"unknown power mode {mode!r}")
        lo.append(low)
        hi.append(high)
        cont.append(c)
        act.append(a)
        # Otherwise one power above zero, or a constant.
        terms.append(term or (lam[0] if lam else (0.0, -1)))
        levels.append(lam)

    def emit(ir) -> None:
        ir.add_vars(names, binary, 0.0, ubs)
        # A grid's level binaries sum to its activation (energy) or to at most 1.
        one = (0.0, 0.0) if problem == ENERGY else (-np.inf, 1.0)
        for block, (row_lo, row_hi) in ((rows, one), (defs, (0.0, 0.0))):
            flat = [t for _, row in block for t in row]
            ir.add_rows(
                [name for name, _ in block], row_lo, row_hi,
                np.repeat(np.arange(len(block)), [len(row) for _, row in block]),
                np.array([i for _, i in flat], dtype=np.int64),
                np.array([c for c, _ in flat], dtype=float),
            )
    level_mw = np.zeros((len(fids), max(map(len, levels), default=0)))
    level_col = np.full(level_mw.shape, -1, dtype=np.int64)
    for j, lam in enumerate(levels):
        level_mw[j, :len(lam)] = [p for p, _ in lam]
        level_col[j, :len(lam)] = [i for _, i in lam]
    return _Reps(
        {fid: j for j, fid in enumerate(fids)},
        np.array(lo, dtype=float),
        np.array(hi, dtype=float),
        np.array([k for k, _ in terms], dtype=float),
        np.array([v for _, v in terms], dtype=np.int64),
        np.array(cont, dtype=np.int64),
        np.array(act, dtype=np.int64),
        level_mw,
        level_col,
    ), emit
