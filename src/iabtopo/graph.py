"""Typed directed measurement graph: topology types, validation, file I/O.

Node roles: user terminals (UE), radio frontends, baseband units (MT+DU)
and the single donor baseband that roots every routing tree.  Wireless
edges go frontend -> UE or frontend -> other unit's baseband and carry a
pathloss weight; wired edges connect a baseband to its own frontends and
are capacity-free.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    DisconnectedUe,
    DuplicateId,
    IllegalEdgeEndpoints,
    MissingDonor,
    OrphanFrontend,
    ParseError,
)

EdgeKey = tuple[int, int]


class NodeKind(str, Enum):
    UE = "ue"
    FRONTEND = "frontend"
    MT_DU = "mt_du"
    DONOR_DU = "donor_du"


class EdgeKind(str, Enum):
    WIRELESS = "wireless"
    WIRED = "wired"


_BASEBAND_KINDS = (NodeKind.MT_DU, NodeKind.DONOR_DU)


@dataclass(frozen=True)
class Node:
    """A graph vertex.  Position is meters (x, y, z).

    ``unit_id`` groups a baseband with its frontends; UEs carry none.
    ``indoor`` is meaningful for UEs only, ``sector_azimuth_deg`` for
    frontends only.
    """

    id: int
    kind: NodeKind
    pos: tuple[float, float, float] = (0.0, 0.0, 0.0)
    unit_id: int | None = None
    indoor: bool = False
    sector_azimuth_deg: float | None = None

    def __post_init__(self):
        if self.kind is NodeKind.UE:
            if self.unit_id is not None:
                raise ValueError(f"UE node {self.id} must not carry a unit_id")
        elif self.unit_id is None:
            raise ValueError(f"node {self.id} ({self.kind.value}) needs a unit_id")
        if self.kind is not NodeKind.FRONTEND and self.sector_azimuth_deg is not None:
            raise ValueError(f"node {self.id}: sector azimuth is frontend-only")
        if self.kind is not NodeKind.UE and self.indoor:
            raise ValueError(f"node {self.id}: indoor flag is UE-only")


@dataclass(frozen=True)
class Edge:
    """A directed link.  Wireless edges carry pathloss (dB >= 0) and LOS."""

    src: int
    dst: int
    kind: EdgeKind
    pathloss_db: float | None = None
    los: bool | None = None

    def __post_init__(self):
        if self.kind is EdgeKind.WIRELESS:
            if self.pathloss_db is None or not 0 <= self.pathloss_db < math.inf:
                raise ValueError(
                    f"wireless edge {self.src}->{self.dst} needs a finite pathloss_db >= 0"
                )
        elif self.pathloss_db is not None or self.los is not None:
            raise ValueError(f"wired edge {self.src}->{self.dst} carries no radio fields")

    @property
    def key(self) -> EdgeKey:
        return (self.src, self.dst)


@dataclass(frozen=True)
class Commodity:
    """A routing requirement from the donor baseband down to one UE."""

    id: int
    source: int
    dest: int
    demand_mbps: float = 0.0

    def __post_init__(self):
        if not 0 <= self.demand_mbps < math.inf:
            raise ValueError(f"commodity {self.id}: demand must be finite and >= 0")


@dataclass(frozen=True)
class MeasurementGraph:
    """Immutable validated topology with adjacency indices.

    Construct through :func:`build_graph`; the constructor itself performs
    no validation.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    _by_id: Mapping[int, Node] = field(repr=False, compare=False, default_factory=dict)
    _in: Mapping[int, tuple[Edge, ...]] = field(repr=False, compare=False, default_factory=dict)
    _out: Mapping[int, tuple[Edge, ...]] = field(repr=False, compare=False, default_factory=dict)

    # -- lookups --------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id

    def in_edges(self, node_id: int) -> tuple[Edge, ...]:
        return self._in.get(node_id, ())

    def out_edges(self, node_id: int) -> tuple[Edge, ...]:
        return self._out.get(node_id, ())

    # -- node/edge groups ------------------------------------------------

    # Computed once per graph (cached_property writes to the frozen
    # instance's __dict__); every trial head reads them.
    @cached_property
    def donor(self) -> Node:
        return next(n for n in self.nodes if n.kind is NodeKind.DONOR_DU)

    @cached_property
    def ues(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.UE)

    @cached_property
    def frontends(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.FRONTEND)

    @cached_property
    def basebands(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind in _BASEBAND_KINDS)

    @cached_property
    def wireless_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind is EdgeKind.WIRELESS)

    @cached_property
    def wired_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind is EdgeKind.WIRED)

    def edge(self, src: int, dst: int) -> Edge | None:
        for e in self.out_edges(src):
            if e.dst == dst:
                return e
        return None


def build_graph(nodes: Iterable[Node], edges: Iterable[Edge]) -> MeasurementGraph:
    """Validate nodes/edges and assemble an indexed graph.

    Raises DuplicateId, MissingDonor, OrphanFrontend, IllegalEdgeEndpoints
    or DisconnectedUe on structural violations.
    """
    nodes = tuple(nodes)
    edges = tuple(edges)

    by_id: dict[int, Node] = {}
    for n in nodes:
        if n.id in by_id:
            raise DuplicateId(f"node id {n.id} appears more than once")
        by_id[n.id] = n

    donors = [n for n in nodes if n.kind is NodeKind.DONOR_DU]
    if len(donors) != 1:
        raise MissingDonor(f"expected exactly one donor baseband, found {len(donors)}")

    basebands_by_unit: dict[int, Node] = {}
    for n in nodes:
        if n.kind in _BASEBAND_KINDS:
            if n.unit_id in basebands_by_unit:
                raise OrphanFrontend(
                    f"unit {n.unit_id} has more than one baseband node"
                )
            basebands_by_unit[n.unit_id] = n

    frontends_per_unit: dict[int, int] = {}
    for n in nodes:
        if n.kind is NodeKind.FRONTEND:
            if n.unit_id not in basebands_by_unit:
                raise OrphanFrontend(f"frontend {n.id} has no baseband for unit {n.unit_id}")
            frontends_per_unit[n.unit_id] = frontends_per_unit.get(n.unit_id, 0) + 1
    for unit_id, bb in basebands_by_unit.items():
        count = frontends_per_unit.get(unit_id, 0)
        if not 1 <= count <= 3:
            raise OrphanFrontend(
                f"unit {unit_id} has {count} frontends, expected 1 to 3"
            )

    seen_keys: set[EdgeKey] = set()
    for e in edges:
        if e.src not in by_id or e.dst not in by_id:
            raise IllegalEdgeEndpoints(f"edge {e.src}->{e.dst} references unknown node")
        if e.key in seen_keys:
            raise DuplicateId(f"edge {e.src}->{e.dst} appears more than once")
        seen_keys.add(e.key)
        src, dst = by_id[e.src], by_id[e.dst]
        if e.kind is EdgeKind.WIRELESS:
            if src.kind is not NodeKind.FRONTEND:
                raise IllegalEdgeEndpoints(
                    f"wireless edge {e.src}->{e.dst}: source must be a frontend"
                )
            if dst.kind is NodeKind.UE:
                pass
            elif dst.kind is NodeKind.MT_DU:
                if dst.unit_id == src.unit_id:
                    raise IllegalEdgeEndpoints(
                        f"wireless edge {e.src}->{e.dst} stays inside unit {src.unit_id}"
                    )
            else:
                raise IllegalEdgeEndpoints(
                    f"wireless edge {e.src}->{e.dst}: destination must be UE or MT+DU"
                )
        else:
            if src.kind not in _BASEBAND_KINDS or dst.kind is not NodeKind.FRONTEND:
                raise IllegalEdgeEndpoints(
                    f"wired edge {e.src}->{e.dst}: must go baseband -> frontend"
                )
            if src.unit_id != dst.unit_id:
                raise IllegalEdgeEndpoints(
                    f"wired edge {e.src}->{e.dst} crosses units "
                    f"{src.unit_id} and {dst.unit_id}"
                )

    for n in nodes:
        if n.kind is NodeKind.UE:
            if not any(e.dst == n.id and e.kind is EdgeKind.WIRELESS for e in edges):
                raise DisconnectedUe(f"UE {n.id} has no incoming wireless edge")

    in_map: dict[int, list[Edge]] = {}
    out_map: dict[int, list[Edge]] = {}
    for e in sorted(edges, key=lambda e: e.key):
        in_map.setdefault(e.dst, []).append(e)
        out_map.setdefault(e.src, []).append(e)
    return MeasurementGraph(
        nodes=nodes,
        edges=edges,
        _by_id=by_id,
        _in={k: tuple(v) for k, v in in_map.items()},
        _out={k: tuple(v) for k, v in out_map.items()},
    )


# -- tree validation ----------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    location: tuple
    magnitude: float = 0.0

    def __str__(self):
        where = ",".join(str(x) for x in self.location)
        return f"{self.rule}@{where}: {self.magnitude:.3e}"


@dataclass(frozen=True)
class TreeReport:
    ok: bool
    violations: tuple[Violation, ...]
    reached: frozenset[int]


def validate_tree(
    graph: MeasurementGraph,
    chosen_edges: Iterable[EdgeKey],
    required_ues: Iterable[int] | None = None,
) -> TreeReport:
    """Check that chosen edges form a donor-rooted tree.

    ok is true iff every non-donor node reachable from the donor has
    in-degree <= 1 within the chosen set, every UE in ``required_ues``
    is reached, and the chosen set is acyclic.
    """
    chosen = set(chosen_edges)
    all_keys = {e.key for e in graph.edges}
    unknown = chosen - all_keys
    if unknown:
        raise ValueError(f"chosen edges not in graph: {sorted(unknown)}")

    violations: list[Violation] = []
    out_adj: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
    for src, dst in sorted(chosen):
        out_adj.setdefault(src, []).append(dst)
        indeg[dst] = indeg.get(dst, 0) + 1

    donor_id = graph.donor.id
    reached: set[int] = {donor_id}
    stack = [donor_id]
    while stack:
        u = stack.pop()
        for v in out_adj.get(u, ()):
            if v not in reached:
                reached.add(v)
                stack.append(v)

    for node_id in sorted(reached):
        if node_id == donor_id:
            continue
        if indeg.get(node_id, 0) > 1:
            violations.append(Violation("InDegree", (node_id,)))

    if required_ues is not None:
        for ue in sorted(set(required_ues)):
            if ue not in reached:
                violations.append(Violation("UnreachedUe", (ue,)))

    # Cycle detection over the full chosen set (iterative DFS, 3-color).
    color: dict[int, int] = {}
    for start in sorted(out_adj):
        if color.get(start, 0):
            continue
        stack2: list[tuple[int, int]] = [(start, 0)]
        while stack2:
            node, idx = stack2[-1]
            if idx == 0:
                color[node] = 1
            succ = out_adj.get(node, ())
            if idx < len(succ):
                stack2[-1] = (node, idx + 1)
                nxt = succ[idx]
                state = color.get(nxt, 0)
                if state == 1:
                    violations.append(Violation("Cycle", (node, nxt)))
                elif state == 0:
                    stack2.append((nxt, 0))
            else:
                color[node] = 2
                stack2.pop()

    return TreeReport(ok=not violations, violations=tuple(violations), reached=frozenset(reached))


# -- JSON serialization --------------------------------------------------

_DB_DIGITS = 6


def _node_to_dict(n: Node) -> dict:
    return {
        "id": n.id,
        "kind": n.kind.value,
        "unit_id": n.unit_id,
        "pos": list(n.pos),
        "indoor": n.indoor,
        "sector_azimuth_deg": n.sector_azimuth_deg,
    }


def _edge_to_dict(e: Edge) -> dict:
    return {
        "src": e.src,
        "dst": e.dst,
        "kind": e.kind.value,
        "pathloss_db": None if e.pathloss_db is None else round(e.pathloss_db, _DB_DIGITS),
        "los": e.los,
    }


def save_graph(graph: MeasurementGraph, path) -> None:
    """Write the graph JSON schema; dB values rounded to 6 decimals."""
    payload = {
        "nodes": [_node_to_dict(n) for n in graph.nodes],
        "edges": [_edge_to_dict(e) for e in graph.edges],
    }
    write_json(path, payload)


def _parse_node(raw: dict, where: str) -> Node:
    try:
        kind = NodeKind(raw["kind"])
        pos = raw.get("pos", [0.0, 0.0, 0.0])
        return Node(
            id=int(raw["id"]),
            kind=kind,
            pos=(float(pos[0]), float(pos[1]), float(pos[2])),
            unit_id=raw.get("unit_id"),
            indoor=bool(raw.get("indoor") or False),
            sector_azimuth_deg=raw.get("sector_azimuth_deg"),
        )
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_edge(raw: dict, where: str) -> Edge:
    try:
        return Edge(
            src=int(raw["src"]),
            dst=int(raw["dst"]),
            kind=EdgeKind(raw["kind"]),
            pathloss_db=raw.get("pathloss_db"),
            los=raw.get("los"),
        )
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def read_json(path):
    """``path``'s JSON payload; invalid JSON raises ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by 2, with a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_csv(path, header: list[str], parse) -> list:
    """``parse(row)`` of each non-blank row of ``path``, a CSV headed by ``header``.

    Another header, a row of another width, or a cell ``parse`` refuses
    with ValueError raises ParseError naming the file and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ParseError(f"{path}: expected header {','.join(header)!r}, got {found}")
        parsed = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, got {len(row)}")
                parsed.append(parse(row))
            except ValueError as exc:
                raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return parsed


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_graph(path) -> MeasurementGraph:
    """Load and fully validate a graph JSON file."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "nodes" not in payload or "edges" not in payload:
        raise ParseError(f"{path}: expected object with 'nodes' and 'edges'")
    nodes = [_parse_node(raw, f"nodes[{i}]") for i, raw in enumerate(payload["nodes"])]
    edges = [_parse_edge(raw, f"edges[{i}]") for i, raw in enumerate(payload["edges"])]
    return build_graph(nodes, edges)
