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

An edge whose interval grants no level at all is dead.  When its source
has at most one power above zero, the edge is left out of routing like
an edge outside ``routing_edges``: it gets no variables and no rows.
Dead edges of continuous or multi-level sources stay, with capacity and
airtime bounded to 0.

Interference coefficients always come from the full measurement graph,
even when routing is restricted to a pruned edge subset or an edge is
dead; a solution of a restricted model is therefore feasible in the
unrestricted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from ..capacity import CapacityTable, ladder_position
from ..channel import interference_coefficients, signal_coefficient
from ..errors import DemandMissing, EmptyCommodities, UnsupportedMode
from ..graph import Commodity, Edge, EdgeKey
from ..problem import (
    ContinuousPower,
    DiscretePower,
    FixedPower,
    ProblemInstance,
)
from .ir import (
    ModelIR,
    Sense,
    Term,
    VarKind,
    linearize_binary_product,
    linearize_indicator,
)

# Smallest transmit power (fraction of p_max) a continuous-power frontend
# may use while claiming any capacity; rules out the degenerate
# zero-signal/zero-interference corner of the threshold model.
MIN_ON_POWER_FRACTION = 1e-6

THROUGHPUT = "throughput"
ENERGY = "energy"


@dataclass
class _PowerRep:
    """How one frontend's effective transmit power enters the model."""

    frontend_id: int
    const_mw: float | None = None  # set when the power is a model constant
    terms: tuple[Term, ...] = ()  # affine expression otherwise
    max_mw: float = 0.0
    on_terms: tuple[Term, ...] | None = None  # binaries summing to 1 iff power > 0
    cont_idx: int | None = None  # continuous power variable
    level_terms: tuple[tuple[float, int], ...] = ()  # (level mW, binary idx)
    act_idx: int | None = None  # activation binary (energy problem)

    @property
    def is_const(self) -> bool:
        return self.const_mw is not None

    @property
    def min_mw(self) -> float:
        return self.const_mw if self.is_const else 0.0

    @property
    def single_power(self) -> bool:
        """At most one power above zero: a constant, or one switchable level."""
        return self.is_const or len(self.level_terms) == 1

    @property
    def on_mw(self) -> float:
        """The one power this rep can take above zero, or 0 if it has several."""
        return self.max_mw if self.single_power else 0.0


class _Ladder(NamedTuple):
    """One wireless edge's signal gain, interferers and SINR interval."""

    g_sig: float
    interferers: list[tuple[float, _PowerRep]]
    floor: int
    top: int
    big_ms: list[tuple[float, float]]


@dataclass
class BuiltModel:
    problem: str
    ir: ModelIR
    instance: ProblemInstance
    commodities: tuple[Commodity, ...]
    routing_wireless: tuple[Edge, ...]
    routing_wired: tuple[Edge, ...]
    power_reps: dict[int, _PowerRep]
    alpha: dict[EdgeKey, int]
    use: dict[EdgeKey, int]
    cap: dict[EdgeKey, int]
    flow: dict[tuple[int, EdgeKey], int]
    phi_vars: dict[EdgeKey, tuple[int, ...]]
    phi_floor: dict[EdgeKey, int]  # ladder levels every power choice meets
    z_idx: int | None = None
    act: dict[int, int] = field(default_factory=dict)


def build_throughput_model(
    instance: ProblemInstance,
    fixed_powers: Mapping[int, float] | None = None,
    routing_edges: Iterable[EdgeKey] | None = None,
) -> BuiltModel:
    """Maximize the smallest per-UE rate over tree, airtime and power choices.

    ``fixed_powers`` pins individual frontends regardless of the instance's
    power mode; ``routing_edges`` restricts which edges may carry traffic
    (interference still accumulates over the full graph).
    """
    if not instance.commodities:
        raise EmptyCommodities("throughput problem needs at least one commodity")
    return _build(instance, THROUGHPUT, instance.commodities, fixed_powers, routing_edges)


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
    if isinstance(instance.power_mode, ContinuousPower) and fixed_powers is None:
        raise UnsupportedMode("energy problem needs fixed or discrete powers")
    for c in instance.commodities:
        if math.isnan(c.demand_mbps):
            raise DemandMissing(f"commodity {c.id} has no demand")
    active = tuple(c for c in instance.commodities if c.demand_mbps > 0)
    return _build(instance, ENERGY, active, fixed_powers, routing_edges)


# -- internals ---------------------------------------------------------------


def _build(
    instance: ProblemInstance,
    problem: str,
    commodities: tuple[Commodity, ...],
    fixed_powers: Mapping[int, float] | None,
    routing_edges: Iterable[EdgeKey] | None,
) -> BuiltModel:
    g = instance.graph
    ir = ModelIR(name=f"{problem}__{len(g.nodes)}n_{len(g.edges)}e")

    allowed = None if routing_edges is None else set(routing_edges)
    wired = tuple(e for e in g.wired_edges if allowed is None or e.key in allowed)

    reps = _power_reps(ir, instance, problem, fixed_powers)

    # Dead edges of single-power sources leave routing; they still
    # interfere, since coefficients come from the full graph.
    ladders: dict[EdgeKey, _Ladder] = {}
    for e in g.wireless_edges:
        if allowed is None or e.key in allowed:
            ladder = _edge_ladder(instance, e, reps)
            if ladder.top or not reps[e.src].single_power:
                ladders[e.key] = ladder
    wireless = tuple(e for e in g.wireless_edges if e.key in ladders)

    c_max = instance.capacity_table.max_capacity_mbps
    alpha: dict[EdgeKey, int] = {}
    use: dict[EdgeKey, int] = {}
    cap: dict[EdgeKey, int] = {}
    phi_vars: dict[EdgeKey, tuple[int, ...]] = {}
    phi_floor: dict[EdgeKey, int] = {}

    for e in wireless:
        k = e.key
        alpha[k] = ir.add_var(f"alpha[{k[0]}->{k[1]}]", VarKind.CONTINUOUS, 0.0, 1.0)
        use[k] = ir.add_var(f"use[{k[0]}->{k[1]}]", VarKind.BINARY)
        cap[k] = ir.add_var(f"cap[{k[0]}->{k[1]}]", VarKind.CONTINUOUS, 0.0, c_max)
        ir.add_constraint(
            f"use_ge_alpha[{k[0]}->{k[1]}]", [(1.0, use[k]), (-1.0, alpha[k])], Sense.GE, 0.0
        )
        phi_floor[k] = ladders[k].floor
        phi_vars[k] = _emit_capacity_ladder(
            ir, instance, e, reps[e.src], ladders[k], alpha[k], cap[k]
        )

    # Airtime budgets: each wireless edge charges both its endpoints.
    incident: dict[int, list[EdgeKey]] = {}
    for e in wireless:
        incident.setdefault(e.src, []).append(e.key)
        incident.setdefault(e.dst, []).append(e.key)
    for node_id in sorted(incident):
        terms = [(1.0, alpha[k]) for k in incident[node_id]]
        ir.add_constraint(f"airtime[{node_id}]", terms, Sense.LE, 1.0)

    # Tree rule: at most one chosen incoming wireless edge per non-donor node.
    donor_id = g.donor.id
    incoming: dict[int, list[EdgeKey]] = {}
    for e in wireless:
        incoming.setdefault(e.dst, []).append(e.key)
    for node_id in sorted(incoming):
        if node_id == donor_id or len(incoming[node_id]) < 2:
            continue
        ir.add_constraint(
            f"indegree[{node_id}]",
            [(1.0, use[k]) for k in incoming[node_id]],
            Sense.LE,
            1.0,
        )

    # Commodity flows.
    routing = wireless + wired
    flow: dict[tuple[int, EdgeKey], int] = {}
    flow_kind = VarKind.BINARY if problem == ENERGY else VarKind.CONTINUOUS
    flow_ub = 1.0 if problem == ENERGY else c_max
    for comm in commodities:
        for e in routing:
            flow[(comm.id, e.key)] = ir.add_var(
                f"f[k{comm.id},{e.src}->{e.dst}]", flow_kind, 0.0, flow_ub
            )

    out_by_node: dict[int, list[EdgeKey]] = {}
    in_by_node: dict[int, list[EdgeKey]] = {}
    for e in routing:
        out_by_node.setdefault(e.src, []).append(e.key)
        in_by_node.setdefault(e.dst, []).append(e.key)

    for comm in commodities:
        for n in g.nodes:
            if n.id in (comm.source, comm.dest):
                continue
            terms = [(1.0, flow[(comm.id, k)]) for k in out_by_node.get(n.id, ())]
            terms += [(-1.0, flow[(comm.id, k)]) for k in in_by_node.get(n.id, ())]
            if terms:
                ir.add_constraint(f"cons[k{comm.id},{n.id}]", terms, Sense.EQ, 0.0)
        src_net = [(1.0, flow[(comm.id, k)]) for k in out_by_node.get(comm.source, ())]
        src_net += [(-1.0, flow[(comm.id, k)]) for k in in_by_node.get(comm.source, ())]
        dst_net = [(1.0, flow[(comm.id, k)]) for k in in_by_node.get(comm.dest, ())]
        dst_net += [(-1.0, flow[(comm.id, k)]) for k in out_by_node.get(comm.dest, ())]
        if problem == ENERGY:
            ir.add_constraint(f"src[k{comm.id}]", src_net, Sense.EQ, 1.0)
            ir.add_constraint(f"dst[k{comm.id}]", dst_net, Sense.EQ, 1.0)
        else:
            # Net outflow at the donor mirrors net inflow at the UE.
            ir.add_constraint(f"srcdst[k{comm.id}]", src_net + [(-t, i) for t, i in dst_net], Sense.EQ, 0.0)

    # Wireless capacity caps aggregate (demand-weighted) flow.
    for e in wireless:
        if problem == ENERGY:
            terms = [(comm.demand_mbps, flow[(comm.id, e.key)]) for comm in commodities]
        else:
            terms = [(1.0, flow[(comm.id, e.key)]) for comm in commodities]
        ir.add_constraint(
            f"capacity[{e.src}->{e.dst}]", terms + [(-1.0, cap[e.key])], Sense.LE, 0.0
        )

    built = BuiltModel(
        problem=problem,
        ir=ir,
        instance=instance,
        commodities=commodities,
        routing_wireless=wireless,
        routing_wired=wired,
        power_reps=reps,
        alpha=alpha,
        use=use,
        cap=cap,
        flow=flow,
        phi_vars=phi_vars,
        phi_floor=phi_floor,
    )

    if problem == ENERGY:
        _finish_energy(built, commodities)
    else:
        _finish_throughput(built, commodities)
    return built


def _finish_throughput(built: BuiltModel, commodities: tuple[Commodity, ...]) -> None:
    ir = built.ir
    c_max = built.instance.capacity_table.max_capacity_mbps
    z = ir.add_var("Z", VarKind.CONTINUOUS, 0.0, c_max)
    built.z_idx = z
    in_by_dst: dict[int, list[EdgeKey]] = {}
    for e in built.routing_wireless + built.routing_wired:
        in_by_dst.setdefault(e.dst, []).append(e.key)
    for comm in commodities:
        terms = [(1.0, built.flow[(comm.id, k)]) for k in in_by_dst.get(comm.dest, ())]
        terms.append((-1.0, z))
        ir.add_constraint(f"rate[k{comm.id}]", terms, Sense.GE, 0.0)

    # A source that can be off meets its edges' floor levels only while on,
    # so those edges carry traffic only then.
    for e in built.routing_wireless:
        rep = built.power_reps[e.src]
        if rep.on_terms is not None and built.phi_floor[e.key]:
            ir.add_constraint(
                f"use_le_on[{e.src}->{e.dst}]",
                [(1.0, built.use[e.key])] + [(-c, i) for c, i in rep.on_terms],
                Sense.LE,
                0.0,
            )
    ir.set_objective("max", [(1.0, z)])


def _finish_energy(built: BuiltModel, commodities: tuple[Commodity, ...]) -> None:
    ir = built.ir
    instance = built.instance
    g = instance.graph
    pm = instance.power_model
    reps = built.power_reps

    # f(e) >= f_k(e) ties usage to routing; usage implies the source is on.
    # A source without an activation binary is a constant above zero here:
    # a switched-off one has only dead edges, which are out of routing.
    for e in built.routing_wireless:
        for comm in commodities:
            ir.add_constraint(
                f"use_ge_f[k{comm.id},{e.src}->{e.dst}]",
                [(1.0, built.use[e.key]), (-1.0, built.flow[(comm.id, e.key)])],
                Sense.GE,
                0.0,
            )
        rep = reps[e.src]
        if rep.act_idx is not None:
            ir.add_constraint(
                f"use_le_act[{e.src}->{e.dst}]",
                [(1.0, built.use[e.key]), (-1.0, rep.act_idx)],
                Sense.LE,
                0.0,
            )

    obj_terms: list[Term] = []
    constant = 0.0
    for fid in sorted(reps):
        rep = reps[fid]
        constant += pm.n_trx * pm.p_sleep_w
        if rep.act_idx is not None:
            obj_terms.append((pm.n_trx * (pm.p0_w - pm.p_sleep_w), rep.act_idx))
        built.act[fid] = rep.act_idx if rep.act_idx is not None else -1

    # Amplifier term: delta_p * P_tx * alpha, expanded per power level with
    # exact binary-times-continuous products.
    for e in built.routing_wireless:
        for level_mw, lam_idx in reps[e.src].level_terms:
            z_idx = linearize_binary_product(
                ir, lam_idx, built.alpha[e.key], 1.0, f"w[{e.src}->{e.dst},l{lam_idx}]"
            )
            obj_terms.append((pm.delta_p * level_mw / 1000.0, z_idx))

    if pm.p_active_unit_w > 0:
        units: dict[int, list[int]] = {}
        for fid in sorted(reps):
            unit = g.node(fid).unit_id
            units.setdefault(unit, []).append(fid)
        for unit in sorted(units):
            members = [reps[fid].act_idx for fid in units[unit] if reps[fid].act_idx is not None]
            if not members:
                continue
            a_unit = ir.add_var(f"unit_on[{unit}]", VarKind.BINARY)
            for act_idx in members:
                ir.add_constraint(
                    f"unit_on_ge[{unit},{act_idx}]",
                    [(1.0, a_unit), (-1.0, act_idx)],
                    Sense.GE,
                    0.0,
                )
            obj_terms.append((pm.p_active_unit_w, a_unit))

    ir.set_objective("min", obj_terms, constant)


def _power_reps(
    ir: ModelIR,
    instance: ProblemInstance,
    problem: str,
    fixed_powers: Mapping[int, float] | None,
) -> dict[int, _PowerRep]:
    mode = instance.power_mode
    fixed_powers = dict(fixed_powers or {})
    reps: dict[int, _PowerRep] = {}
    for n in sorted(instance.graph.frontends, key=lambda n: n.id):
        fid = n.id
        if fid in fixed_powers:
            p = float(fixed_powers[fid])
        elif isinstance(mode, FixedPower):
            if fid not in mode.powers_mw:
                raise ValueError(f"fixed power mode misses frontend {fid}")
            p = float(mode.powers_mw[fid])
        else:
            p = None

        if p is not None:
            if p < 0 or p > instance.radio.p_max_mw + 1e-9:
                raise ValueError(f"frontend {fid}: power {p} mW outside [0, p_max]")
            if problem == THROUGHPUT:
                reps[fid] = _PowerRep(fid, const_mw=p, max_mw=p)
            elif p == 0.0:
                reps[fid] = _PowerRep(fid, const_mw=0.0, max_mw=0.0)
            else:
                # Energy: a preset power applies only while the frontend is
                # awake, so the effective power is p * a(fid).
                act = ir.add_var(f"act[{fid}]", VarKind.BINARY)
                reps[fid] = _PowerRep(
                    fid,
                    terms=((p, act),),
                    max_mw=p,
                    on_terms=((1.0, act),),
                    level_terms=((p, act),),
                    act_idx=act,
                )
            continue

        if isinstance(mode, ContinuousPower):
            if problem == ENERGY:
                raise UnsupportedMode("energy problem cannot leave powers continuous")
            idx = ir.add_var(
                f"ptx[{fid}]", VarKind.CONTINUOUS, 0.0, instance.radio.p_max_mw
            )
            reps[fid] = _PowerRep(
                fid, terms=((1.0, idx),), max_mw=instance.radio.p_max_mw, cont_idx=idx
            )
        elif isinstance(mode, DiscretePower):
            levels = [l for l in mode.levels_mw if l > 0]
            if max(mode.levels_mw) > instance.radio.p_max_mw + 1e-9:
                raise ValueError("power grid exceeds p_max")
            lam = [
                (lvl, ir.add_var(f"lam[{fid},{i}]", VarKind.BINARY))
                for i, lvl in enumerate(levels)
            ]
            terms = tuple((lvl, idx) for lvl, idx in lam)
            on = tuple((1.0, idx) for _, idx in lam)
            if problem == ENERGY:
                act = ir.add_var(f"act[{fid}]", VarKind.BINARY)
                ir.add_constraint(
                    f"act_def[{fid}]", list(on) + [(-1.0, act)], Sense.EQ, 0.0
                )
                reps[fid] = _PowerRep(
                    fid, terms=terms, max_mw=max(levels), on_terms=on,
                    level_terms=tuple(lam), act_idx=act,
                )
            else:
                ir.add_constraint(f"one_level[{fid}]", list(on), Sense.LE, 1.0)
                reps[fid] = _PowerRep(
                    fid, terms=terms, max_mw=max(levels), on_terms=on,
                    level_terms=tuple(lam),
                )
        else:
            raise UnsupportedMode(f"unknown power mode {mode!r}")
    return reps


def _ladder_interval(
    table: CapacityTable,
    noise_mw: float,
    g_sig: float,
    src: _PowerRep,
    interferers: Iterable[tuple[float, _PowerRep]],
) -> tuple[int, int, list[tuple[float, float]]]:
    """Ladder levels an edge meets while on, levels it can meet, and big-Ms.

    Over every power the reps allow, the signal spans [S_lo, S_hi] and
    noise plus interference spans [I_lo, I_hi].  The first ``floor``
    levels are met at (g_sig*on_mw, I_hi), so they hold whenever the
    source carries traffic (an edge's airtime is 0 while its source is
    off); no level from ``top`` up is met even at (S_hi, I_lo).  For each
    level i in ``floor..top-1`` the pair (th_i*I_hi - S_lo,
    S_hi - th_i*I_lo) bounds -(S - th_i*I) and S - th_i*I from above,
    the source being off included.
    """
    s_lo, s_hi = g_sig * src.min_mw, g_sig * src.max_mw
    i_lo = i_hi = noise_mw
    for coeff, rep in interferers:
        i_lo += coeff * rep.min_mw
        i_hi += coeff * rep.max_mw
    pos = ladder_position(table, g_sig * src.on_mw, i_hi)
    floor = 0 if pos is None else pos + 1
    pos = ladder_position(table, s_hi, i_lo)
    top = 0 if pos is None else pos + 1
    big_ms = [
        (th * i_hi - s_lo, s_hi - th * i_lo) for th in table.thresholds_linear[floor:top]
    ]
    return floor, top, big_ms


def _edge_ladder(instance: ProblemInstance, edge: Edge, reps: dict[int, _PowerRep]) -> _Ladder:
    g = instance.graph
    radio = instance.radio
    g_sig = signal_coefficient(g, edge, radio)
    g_int = interference_coefficients(g, edge, radio)
    interferers = [(g_int[fid], reps[fid]) for fid in sorted(g_int)]
    floor, top, big_ms = _ladder_interval(
        instance.capacity_table, radio.noise_mw, g_sig, reps[edge.src], interferers
    )
    return _Ladder(g_sig, interferers, floor, top, big_ms)


def _emit_capacity_ladder(
    ir: ModelIR,
    instance: ProblemInstance,
    edge: Edge,
    src_rep: _PowerRep,
    ladder: _Ladder,
    alpha_idx: int,
    cap_idx: int,
) -> tuple[int, ...]:
    """Emit one edge's ladder rows; returns its ``phi`` binaries."""
    table = instance.capacity_table
    key = edge.key
    g_sig, interferers, floor, top, big_ms = ladder
    caps = table.capacities_mbps
    if top == 0:
        # No power choice grants a level: no capacity, no airtime.
        ir.variables[cap_idx].ub = 0.0
        ir.variables[alpha_idx].ub = 0.0
        return ()
    if floor == top:
        ir.variables[cap_idx].ub = caps[top - 1]

    # S - th*I as an affine expression; constant reps have no terms.
    sig_terms = [(g_sig * c, i) for c, i in src_rep.terms]
    int_terms: list[Term] = []
    int_const = instance.radio.noise_mw
    for coeff, rep in interferers:
        int_terms.extend((coeff * c, i) for c, i in rep.terms)
        int_const += coeff * rep.min_mw

    phis = []
    for i, (m_on, m_off) in enumerate(big_ms, start=floor):
        phi = ir.add_var(f"phi[{key[0]}->{key[1]},{i}]", VarKind.BINARY)
        th = table.thresholds_linear[i]
        expr_terms = sig_terms + [(-th * c, idx) for c, idx in int_terms]
        expr_const = g_sig * src_rep.min_mw - th * int_const
        name = f"thr[{key[0]}->{key[1]},{i}]"
        linearize_indicator(ir, expr_terms, expr_const, phi, "geq", m_on, name)
        linearize_indicator(ir, expr_terms, expr_const, phi, "leq", m_off, name)
        if phis:
            ir.add_constraint(
                f"chain[{key[0]}->{key[1]},{i}]",
                [(1.0, phi), (-1.0, phis[-1])],
                Sense.LE,
                0.0,
            )
        phis.append(phi)

    # Capacity needs transmit power: tie the lowest indicator to the
    # source actually being on.  The floor's levels need it too, which
    # use <= on (use_le_act, use_le_on) enforces.
    if phis and src_rep.on_terms is not None:
        ir.add_constraint(
            f"powered[{key[0]}->{key[1]}]",
            [(1.0, phis[0])] + [(-c, i) for c, i in src_rep.on_terms],
            Sense.LE,
            0.0,
        )
    elif phis and src_rep.cont_idx is not None:
        p_eps = MIN_ON_POWER_FRACTION * instance.radio.p_max_mw
        ir.add_constraint(
            f"powered[{key[0]}->{key[1]}]",
            [(1.0, src_rep.cont_idx), (-p_eps, phis[0])],
            Sense.GE,
            0.0,
        )

    # Levels below the floor always hold, so they add caps[floor-1]*alpha.
    terms: list[Term] = [(1.0, cap_idx)]
    if floor:
        terms.append((-caps[floor - 1], alpha_idx))
    for i, phi in enumerate(phis, start=floor):
        delta = caps[i] - (caps[i - 1] if i else 0.0)
        if delta == 0.0:
            continue
        y = linearize_binary_product(
            ir, phi, alpha_idx, 1.0, f"y[{key[0]}->{key[1]},{i}]"
        )
        terms.append((-delta, y))
    ir.add_constraint(f"couple[{key[0]}->{key[1]}]", terms, Sense.LE, 0.0)
    return tuple(phis)
