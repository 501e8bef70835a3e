import importlib.util
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from iabtopo.capacity import CapacityTable, McsEntry, default_table
from iabtopo.channel import RadioParams
from iabtopo.graph import Commodity, Edge, EdgeKind, Node, NodeKind, build_graph
from iabtopo.problem import DiscretePower, ProblemInstance


def fuzz_bounds():
    """``tools/fuzz_bounds.py``, whose instances have 3 UEs and 2 sectors per unit.

    Its ``instance(5, i)`` is the benchmark's oracle-xcheck instance i.
    """
    path = Path(__file__).resolve().parent.parent / "tools" / "fuzz_bounds.py"
    spec = importlib.util.spec_from_file_location("fuzz_bounds", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return fuzz


def coarse_table(n_keep: int = 5) -> CapacityTable:
    """Thinned default ladder to keep tiny MILPs fast."""
    step = max(len(default_table().entries) // n_keep, 1)
    return default_table().coarsened(step)


def level_terms(reps, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid levels (mW) and their binaries' columns of power rep ``j``."""
    has = reps.level_col[j] >= 0
    return reps.level_mw[j][has], reps.level_col[j][has]


class Row(NamedTuple):
    name: str
    terms: tuple[tuple[float, int], ...]  # (coefficient, column), in column order
    lo: float
    hi: float


def model_rows(ir) -> list[Row]:
    """Every row of a model IR, read from its ``coo()`` and ``row_bounds()`` arrays."""
    rows, cols, coefs = ir.coo()
    ends = np.searchsorted(rows, np.arange(ir.num_rows + 1)).tolist()
    cols, coefs = cols.tolist(), coefs.tolist()
    return [
        Row(name, tuple(zip(coefs[a:b], cols[a:b])), lo, hi)
        for name, a, b, lo, hi in zip(
            ir.row_names, ends, ends[1:], *(bound.tolist() for bound in ir.row_bounds())
        )
    ]


def minimal_nodes_edges():
    """Donor baseband + one frontend + one UE."""
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=0.0),
        Node(2, NodeKind.UE, (50.0, 0.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(1, 2, EdgeKind.WIRELESS, pathloss_db=80.0, los=True),
    ]
    return nodes, edges


@pytest.fixture
def minimal_graph():
    nodes, edges = minimal_nodes_edges()
    return build_graph(nodes, edges)


def two_unit_graph():
    """Two units whose frontends interfere at each other's UEs."""
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=0.0),
        Node(10, NodeKind.MT_DU, (200.0, 0.0, 10.0), unit_id=1),
        Node(11, NodeKind.FRONTEND, (200.0, 0.0, 10.0), unit_id=1, sector_azimuth_deg=180.0),
        Node(20, NodeKind.UE, (80.0, 10.0, 1.5)),
        Node(21, NodeKind.UE, (120.0, -10.0, 1.5)),
    ]
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(10, 11, EdgeKind.WIRED),
        Edge(1, 10, EdgeKind.WIRELESS, pathloss_db=95.0, los=True),
        Edge(1, 20, EdgeKind.WIRELESS, pathloss_db=85.0, los=True),
        Edge(1, 21, EdgeKind.WIRELESS, pathloss_db=95.0, los=True),
        Edge(11, 20, EdgeKind.WIRELESS, pathloss_db=96.0, los=True),
        Edge(11, 21, EdgeKind.WIRELESS, pathloss_db=84.0, los=True),
    ]
    return build_graph(nodes, edges)


def two_unit_instance(table=None, demand=20.0, levels=(0.0, 6300.0)):
    g = two_unit_graph()
    comms = (Commodity(0, 0, 20, demand), Commodity(1, 0, 21, demand))
    return ProblemInstance(
        graph=g,
        commodities=comms,
        radio=RadioParams(),
        capacity_table=table if table is not None else coarse_table(),
        power_mode=DiscretePower(levels),
    )


def random_small_instance(
    rng: np.random.Generator,
    table: CapacityTable | None = None,
    max_units: int = 3,
    max_ues: int = 3,
    levels: tuple[float, ...] = (0.0, 6300.0),
    demand_range: tuple[float, float] = (1.0, 10.0),
) -> ProblemInstance:
    """Random connected instance small enough for exhaustive enumeration."""
    n_units = int(rng.integers(1, max_units + 1))
    n_ues = int(rng.integers(1, max_ues + 1))
    side = 400.0
    donor_unit = int(rng.integers(0, n_units))

    nodes: list[Node] = []
    basebands: list[int] = []
    frontends: list[int] = []
    nid = 0
    unit_pos = rng.uniform(0.0, side, size=(n_units, 2))
    for u in range(n_units):
        kind = NodeKind.DONOR_DU if u == donor_unit else NodeKind.MT_DU
        pos = (float(unit_pos[u][0]), float(unit_pos[u][1]), 10.0)
        nodes.append(Node(nid, kind, pos, unit_id=u))
        basebands.append(nid)
        nid += 1
        nodes.append(Node(nid, NodeKind.FRONTEND, pos, unit_id=u))
        frontends.append(nid)
        nid += 1

    ues: list[int] = []
    for _ in range(n_ues):
        p = rng.uniform(0.0, side, size=2)
        nodes.append(Node(nid, NodeKind.UE, (float(p[0]), float(p[1]), 1.5)))
        ues.append(nid)
        nid += 1

    edges = [Edge(basebands[u], frontends[u], EdgeKind.WIRED) for u in range(n_units)]
    for u, f in enumerate(frontends):
        for ue in ues:
            if rng.random() < 0.85:
                edges.append(
                    Edge(f, ue, EdgeKind.WIRELESS, round(float(rng.uniform(70, 100)), 6),
                         bool(rng.random() < 0.5))
                )
        for v in range(n_units):
            if v != u and v != donor_unit and rng.random() < 0.8:
                edges.append(
                    Edge(f, basebands[v], EdgeKind.WIRELESS, round(float(rng.uniform(70, 95)), 6), True)
                )
    for ue in ues:
        if not any(e.dst == ue for e in edges if e.kind is EdgeKind.WIRELESS):
            f = frontends[int(rng.integers(0, n_units))]
            edges.append(Edge(f, ue, EdgeKind.WIRELESS, round(float(rng.uniform(70, 100)), 6), True))

    graph = build_graph(nodes, edges)
    commodities = tuple(
        Commodity(i, basebands[donor_unit], ue, float(rng.uniform(*demand_range)))
        for i, ue in enumerate(ues)
    )
    return ProblemInstance(
        graph=graph,
        commodities=commodities,
        radio=RadioParams(),
        capacity_table=table if table is not None else coarse_table(),
        power_mode=DiscretePower(levels),
    )


def two_step_table(c_low: float = 100.0, c_high: float = 300.0) -> CapacityTable:
    """Two-step ladder: c_low from 0 dB, c_high from 10 dB."""
    return CapacityTable(
        entries=(
            McsEntry(0, 0.0, c_low),
            McsEntry(1, 10.0, c_high),
        )
    )
