"""Independent brute-force optima and numeric solution validation.

Everything here recomputes from first principles (channel arithmetic,
ladder lookups, explicit enumeration) so the optimization models have a
second, dumber implementation to agree with.  Enumeration is a test
instrument with a hard size guard, not a solver.

Both optima visit power points best-first under a bound the oracle's own
arithmetic proves, and stop at the first point whose bound cannot
strictly beat the best answer so far (Land & Doig, Econometrica 28,
1960); no bound comes from the MILP.

- Energy ranks a point by its power floor, ``network_power`` at that
  point's powers and activations with no airtime.  Every amplifier term
  ``alpha * delta_p * p / 1000`` is >= 0 and floating-point addition is
  monotone, so no tree at the point prices below its floor; the walk
  stops once a floor reaches the best power, since only a strictly lower
  power replaces it.
- Throughput ranks a point by its rate cap, the least over UEs of the
  largest ``1 / (1 / c)`` over the UE's live in-links.  A UE's node
  airtime per unit rate in ``_max_min`` is exactly ``1 / c`` of its one
  in-link, so no tree at the point gives a rate above its cap, bit for
  bit; the walk stops once a cap is no higher than the best rate.

Points left after the stop cannot change the answer, so the optima are
those of the exhaustive walk, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .capacity import CapacityTable, capacity_from_sinr
from .channel import link_budgets
from .energy import network_power, total_power
from .errors import NoFeasible, TooLarge, UnsupportedMode, ZeroCapacityLink
from .graph import EdgeKey, EdgeKind, MeasurementGraph, NodeKind, Violation, validate_tree
from .problem import (
    DiscretePower,
    FixedPower,
    NetworkSolution,
    ProblemInstance,
)

_TOL = 1e-6
_CONFIG_GUARD = 10**6

# Relative slack when re-deriving ladder levels from extracted powers;
# covers the solver's row feasibility tolerance at threshold-binding
# optima (~1e-4 relative is ~0.0004 dB of SINR).
_LEVEL_SLACK = 1e-4


# -- max-min airtime on a fixed tree ------------------------------------------


def max_min_on_tree(
    graph: MeasurementGraph,
    tree_edges: Iterable[EdgeKey],
    capacities_mbps: Mapping[EdgeKey, float],
    ue_ids: Iterable[int],
) -> float:
    """Largest common per-UE rate a fixed tree supports, in closed form.

    Rate Z charges every wireless tree edge airtime Z * (UEs downstream) /
    capacity at both endpoints, and each node has a unit budget of 1.  Each
    node's airtime is linear in Z, so Z* = 1 / max_v sum_{e at v} n_e / c_e.
    0 when some UE has no unique path to the donor.
    """
    ues = {ue: 1 for ue in ue_ids}
    wireless = {e.key for e in graph.wireless_edges}
    loads = _routed_demand(set(tree_edges), ues, graph.donor.id, wireless)
    if not ues or loads is None:
        return 0.0
    return _max_min(loads, capacities_mbps)


def _max_min(
    ues_down: Mapping[EdgeKey, int], capacities_mbps: Mapping[EdgeKey, float]
) -> float:
    """1 / the largest airtime per unit rate at any node (max c + 1 if none)."""
    per_rate: dict[EdgeKey, float] = {}
    for key, n_down in ues_down.items():
        c = capacities_mbps.get(key, 0.0)
        if c <= 0:
            raise ZeroCapacityLink(f"tree edge {key} carries {n_down} UEs at zero capacity")
        per_rate[key] = n_down / c
    if not per_rate:
        return max(capacities_mbps.values(), default=0.0) + 1.0
    return 1.0 / max(_node_airtime(per_rate).values())


def _node_airtime(airtimes: Mapping[EdgeKey, float]) -> dict[int, float]:
    """Each node's summed airtime: every link is charged to both endpoints."""
    node_load: dict[int, float] = {}
    for (src, dst), a in airtimes.items():
        node_load[src] = node_load.get(src, 0.0) + a
        node_load[dst] = node_load.get(dst, 0.0) + a
    return node_load


# -- exhaustive optima --------------------------------------------------------


def _power_grids(instance: ProblemInstance) -> tuple[list[int], list[list[float]]]:
    mode = instance.power_mode
    frontends = sorted(n.id for n in instance.graph.frontends)
    if isinstance(mode, FixedPower):
        return frontends, [[float(mode.powers_mw[f])] for f in frontends]
    if isinstance(mode, DiscretePower):
        return frontends, [list(mode.levels_mw) for _ in frontends]
    raise UnsupportedMode("enumeration needs fixed or discrete powers")


def _trees(instance: ProblemInstance, demand: Mapping[int, float], rank):
    """Yield ``(bound, trees)`` per power point, lowest ``rank`` first.

    ``rank(powers, capacities)`` is a point's bound; ``capacities(powers)``
    gives the link capacities at a point and computes them once, so a rank
    that never calls it leaves them uncomputed at points nobody visits.
    ``trees`` yields ``(powers, capacities, loads)`` once per distinct
    ``loads``.  Powers range over the instance's grid.  Each UE of
    ``demand`` takes one wireless parent and each MT-DU one wireless parent
    or none, both only over links with positive capacity at those powers; a
    point that leaves a UE unservable has no trees.  A tree is the graph's
    wired edges plus the chosen wireless links and does not depend on the
    powers, so ``_routed_demand`` turns each distinct parent choice into
    loads once; choices it rejects (a UE cut off from the donor, or a cycle
    among unit parents) are skipped.  Choices that differ only in an MT-DU
    parent no UE's path crosses route the same loads, which a point yields
    once.
    """
    g = instance.graph
    ue_ids = sorted(demand)
    donor = g.donor.id
    wireless = {e.key for e in g.wireless_edges}
    frontends, grids = _power_grids(instance)
    ue_candidates = {
        ue: [e.src for e in g.in_edges(ue) if e.kind is EdgeKind.WIRELESS]
        for ue in ue_ids
    }
    mtdus = sorted(n.id for n in g.basebands if n.kind is NodeKind.MT_DU)
    mtdu_candidates = {
        m: [None] + [e.src for e in g.in_edges(m) if e.kind is EdgeKind.WIRELESS]
        for m in mtdus
    }
    total = 1
    for grid in grids:
        total *= len(grid)
    for c in ue_candidates.values():
        total *= max(len(c), 1)
    for c in mtdu_candidates.values():
        total *= len(c)
    if total > _CONFIG_GUARD:
        raise TooLarge(f"{total} configurations exceed the {_CONFIG_GUARD} guard")

    table = instance.capacity_table
    budgets = link_budgets(g, g.wireless_edges, instance.radio)
    computed: dict[tuple, dict[EdgeKey, float]] = {}

    def capacities(powers: Mapping[int, float]) -> dict[EdgeKey, float]:
        point = tuple(powers.values())
        if point not in computed:
            computed[point] = {
                key: capacity_from_sinr(table, s, i)[1]
                for key, (s, i) in budgets(powers).items()
            }
        return computed[point]

    wired = [e.key for e in g.wired_edges]
    routed: dict[tuple, dict | None] = {}  # parent choice -> interned loads or None
    interned: dict[tuple, dict] = {}

    def trees(powers: dict[int, float]):
        caps = capacities(powers)
        ue_options = [
            [f for f in ue_candidates[ue] if caps.get((f, ue), 0.0) > 0] for ue in ue_ids
        ]
        if any(not opts for opts in ue_options):
            return  # some UE unservable at these powers
        mtdu_options = [
            [None] + [f for f in mtdu_candidates[m][1:] if caps.get((f, m), 0.0) > 0]
            for m in mtdus
        ]
        priced: set[int] = set()
        for choice in itertools.product(
            itertools.product(*ue_options), itertools.product(*mtdu_options)
        ):
            if choice not in routed:
                ue_pick, m_pick = choice
                tree = set(wired)
                tree.update(zip(ue_pick, ue_ids))
                tree.update((f, m) for f, m in zip(m_pick, mtdus) if f is not None)
                loads = _routed_demand(tree, demand, donor, wireless)
                if loads is not None:
                    loads = interned.setdefault(tuple(loads.items()), loads)
                routed[choice] = loads
            loads = routed[choice]
            if loads is not None and id(loads) not in priced:
                priced.add(id(loads))
                yield powers, caps, loads

    points = [dict(zip(frontends, combo)) for combo in itertools.product(*grids)]
    bounds = [rank(powers, capacities) for powers in points]
    for i in sorted(range(len(points)), key=bounds.__getitem__):
        yield bounds[i], trees(points[i])


def _rate_cap(capacities: Mapping[EdgeKey, float], ue_ids: Iterable[int]) -> float:
    """Throughput's rank: no tree at these capacities beats it (module docstring)."""
    best_in = dict.fromkeys(ue_ids, 0.0)
    for (_src, dst), c in capacities.items():
        if dst in best_in and c > 0:
            best_in[dst] = max(best_in[dst], 1.0 / (1.0 / c))
    return min(best_in.values())


def _power_floor(instance: ProblemInstance, powers: Mapping[int, float]) -> float:
    """Energy's rank: no tree at these powers prices below it (module docstring)."""
    activations = {f: int(p > 0) for f, p in powers.items()}
    return network_power(powers, activations, {}, instance.power_model, instance.graph).total_w


def enumerate_optimal_throughput(instance: ProblemInstance) -> float:
    """Exact max-min rate by exhausting powers, parents and airtime."""
    ues = {ue: 1 for ue in sorted({c.dest for c in instance.commodities})}
    if not ues:
        return 0.0
    best = 0.0
    for neg_cap, trees in _trees(
        instance, ues, lambda powers, capacities: -_rate_cap(capacities(powers), ues)
    ):
        if -neg_cap <= best:
            break
        for _powers, caps, loads in trees:
            z = _max_min(loads, caps)
            if z > best:
                best = z
    return best


def enumerate_optimal_energy(instance: ProblemInstance) -> float:
    """Exact minimum total power meeting every positive demand."""
    g = instance.graph
    pm = instance.power_model
    commodities = [c for c in instance.commodities if c.demand_mbps > 0]
    if not commodities:
        asleep = {n.id: 0.0 for n in g.frontends}
        return network_power(asleep, {}, {}, pm, g).total_w

    demand = {c.dest: c.demand_mbps for c in commodities}
    best = math.inf
    for floor, trees in _trees(
        instance, demand, lambda powers, _capacities: _power_floor(instance, powers)
    ):
        if floor >= best:
            break
        for powers, caps, load in trees:
            airtimes = {key: d_e / caps[key] for key, d_e in load.items()}
            if any(v > 1.0 + 1e-9 for v in _node_airtime(airtimes).values()):
                continue
            activations = {f: int(p > 0) for f, p in powers.items()}
            value = network_power(powers, activations, airtimes, pm, g).total_w
            if value < best:
                best = value
    if not math.isfinite(best):
        raise NoFeasible("no power/tree/routing combination meets the demands")
    return best


def _routed_demand(
    tree: set[EdgeKey],
    demand: Mapping[int, float],
    donor: int,
    wireless: set[EdgeKey],
) -> dict[EdgeKey, float] | None:
    """Summed demand per wireless tree edge along each UE's unique path.

    None when some node has two parents or some UE no path to the donor.
    """
    parent_of: dict[int, int] = {}
    for src, dst in tree:
        if dst in parent_of:
            return None
        parent_of[dst] = src
    load: dict[EdgeKey, float] = {}
    for ue, d in demand.items():
        node = ue
        hops = 0
        while node != donor:
            src = parent_of.get(node)
            if src is None or hops > len(tree):
                return None
            key = (src, node)
            if key in wireless:
                load[key] = load.get(key, 0.0) + d
            node = src
            hops += 1
    return load


# -- solution validation -------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    recomputed_objective: float | None


def granted_levels(table: CapacityTable, signal_mw: float, interference_mw: float) -> int:
    """Ladder levels met with relative slack on each threshold comparison.

    Level i holds when S >= th_i*I - slack*max(S, th_i*I); thresholds
    increase, so the levels that hold are the lowest ones.
    """
    if signal_mw <= 0:
        return 0
    if interference_mw <= 0:
        return len(table.entries)
    count = 0
    for th in table.thresholds_linear:
        rhs = th * interference_mw
        if signal_mw < rhs - _LEVEL_SLACK * max(signal_mw, rhs):
            break
        count += 1
    return count


def _granted_capacity(
    table: CapacityTable, signal_mw: float, interference_mw: float
) -> float:
    """Capacity of the highest level ``granted_levels`` grants, or 0."""
    n = granted_levels(table, signal_mw, interference_mw)
    return table.capacities_mbps[n - 1] if n else 0.0


def validate_solution(
    instance: ProblemInstance, solution: NetworkSolution
) -> ValidationReport:
    """Re-check every constraint numerically from the solution's own values."""
    g = instance.graph
    violations: list[Violation] = []
    is_energy = solution.problem == "energy"
    commodities = [
        c for c in instance.commodities if not is_energy or c.demand_mbps > 0
    ]

    # Airtime: range and per-node budgets (both endpoints charged).
    for key, a in solution.airtimes.items():
        if a < -_TOL or a > 1 + _TOL:
            violations.append(Violation("AirtimeRange", key, a))
    for node_id, load in sorted(_node_airtime(solution.airtimes).items()):
        if load > 1 + _TOL:
            violations.append(Violation("AirtimeBudget", (node_id,), load - 1.0))

    # Capacity claims against recomputed signal/interference.
    claimed = [(key, c) for key, c in sorted(solution.capacities_mbps.items()) if c > _TOL]
    edges = [g.edge(*key) for key, _ in claimed]
    budgets = link_budgets(
        g, [e for e in edges if e is not None and e.kind is EdgeKind.WIRELESS], instance.radio
    )(solution.powers_mw)
    for key, c in claimed:
        if key not in budgets:
            violations.append(Violation("CapacityOnNonWireless", key, c))
            continue
        granted = _granted_capacity(instance.capacity_table, *budgets[key])
        limit = solution.airtimes.get(key, 0.0) * granted
        if c > limit + _TOL * max(1.0, granted):
            violations.append(Violation("CapacityOverclaim", key, c - limit))

    # Flows: conservation, nonnegativity/binariness, link loads.
    link_flow: dict[EdgeKey, float] = {}
    rates: dict[int, float] = {}
    for comm in commodities:
        per_edge = solution.flows.get(comm.id, {})
        net: dict[int, float] = {}
        for (src, dst), v in per_edge.items():
            if is_energy and min(abs(v), abs(v - 1)) > _TOL:
                violations.append(Violation("NonBinaryFlow", (comm.id, src, dst), v))
            if v < -_TOL:
                violations.append(Violation("NegativeFlow", (comm.id, src, dst), v))
            weight = comm.demand_mbps * v if is_energy else v
            edge = g.edge(src, dst)
            if edge is None:
                violations.append(Violation("FlowOffGraph", (comm.id, src, dst), v))
                continue
            if edge.kind is EdgeKind.WIRELESS:
                link_flow[(src, dst)] = link_flow.get((src, dst), 0.0) + weight
            net[src] = net.get(src, 0.0) + v
            net[dst] = net.get(dst, 0.0) - v
        rate = -net.get(comm.dest, 0.0)
        rates[comm.dest] = comm.demand_mbps * rate if is_energy else rate
        for node_id, value in sorted(net.items()):
            if node_id in (comm.source, comm.dest):
                continue
            if abs(value) > _TOL:
                violations.append(Violation("FlowConservation", (comm.id, node_id), value))
        if is_energy and abs(rate - 1.0) > _TOL:
            violations.append(Violation("UnroutedDemand", (comm.id,), rate))

    for key, flow in sorted(link_flow.items()):
        c = solution.capacities_mbps.get(key, 0.0)
        if flow > c + _TOL * max(1.0, c):
            violations.append(Violation("LinkOverload", key, flow - c))

    # Reported per-UE rates must match the flows.
    for comm in commodities:
        reported = solution.per_ue_mbps.get(comm.dest)
        actual = rates.get(comm.dest, 0.0)
        if reported is None or abs(reported - actual) > _TOL * max(1.0, abs(actual)):
            violations.append(
                Violation("PerUeMismatch", (comm.dest,), (reported or 0.0) - actual)
            )

    # Tree shape.
    required = [
        comm.dest
        for comm in commodities
        if is_energy or rates.get(comm.dest, 0.0) > _TOL
    ]
    violations.extend(validate_tree(g, solution.chosen_edges, required_ues=required).violations)

    # Activation consistency (sleeping frontends neither transmit nor serve);
    # a frontend missing from the activations sleeps, as in ``network_power``.
    chosen = set(solution.chosen_edges)
    chosen_srcs = {src for src, _ in chosen}
    for fid in sorted(solution.activations.keys() | {n.id for n in g.frontends}):
        p = solution.powers_mw.get(fid, 0.0)
        if not solution.activations.get(fid, 0):
            if p > _TOL:
                violations.append(Violation("SleepingTransmitter", (fid,), p))
            wireless_out = {e.dst for e in g.out_edges(fid) if e.kind is EdgeKind.WIRELESS}
            if fid in chosen_srcs and any(
                (fid, dst) in chosen for dst in wireless_out
            ):
                violations.append(Violation("SleepingServer", (fid,)))

    # Objective recomputation.
    recomputed: float | None = None
    if is_energy:
        try:
            recomputed = total_power(solution, instance.power_model, g).total_w
        except Exception as exc:  # inconsistent activations already flagged
            violations.append(Violation("EnergyRecompute", (str(exc),)))
    else:
        recomputed = min(
            (rates.get(comm.dest, 0.0) for comm in commodities), default=0.0
        )
    if recomputed is not None and solution.objective is not None:
        if abs(recomputed - solution.objective) > _TOL * max(1.0, abs(recomputed)):
            violations.append(
                Violation("ObjectiveMismatch", (), recomputed - solution.objective)
            )

    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        recomputed_objective=recomputed,
    )
