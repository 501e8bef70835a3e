import json
import math

import numpy as np
import pytest

from iabtopo.errors import (
    DisconnectedUe,
    DuplicateId,
    IllegalEdgeEndpoints,
    MissingDonor,
    OrphanFrontend,
    ParseError,
)
from iabtopo.graph import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    build_graph,
    load_graph,
    save_graph,
    validate_tree,
)

from conftest import minimal_nodes_edges, two_unit_graph


def test_minimal_topology_builds(minimal_graph):
    assert len(minimal_graph.nodes) == 3
    assert minimal_graph.donor.id == 0
    assert [n.id for n in minimal_graph.ues] == [2]


def test_ue_to_frontend_direction_rejected():
    nodes, edges = minimal_nodes_edges()
    edges.append(Edge(2, 1, EdgeKind.WIRELESS, pathloss_db=80.0, los=True))
    with pytest.raises(IllegalEdgeEndpoints):
        build_graph(nodes, edges)


def test_duplicate_node_id_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes.append(Node(7, NodeKind.UE, (1.0, 1.0, 1.5)))
    nodes.append(Node(7, NodeKind.UE, (2.0, 2.0, 1.5)))
    with pytest.raises(DuplicateId):
        build_graph(nodes, edges)


def test_missing_donor_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes[0] = Node(0, NodeKind.MT_DU, (0.0, 0.0, 10.0), unit_id=0)
    with pytest.raises(MissingDonor):
        build_graph(nodes, edges)


def test_two_donors_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes.append(Node(5, NodeKind.DONOR_DU, (9.0, 9.0, 10.0), unit_id=1))
    nodes.append(Node(6, NodeKind.FRONTEND, (9.0, 9.0, 10.0), unit_id=1))
    edges.append(Edge(5, 6, EdgeKind.WIRED))
    with pytest.raises(MissingDonor):
        build_graph(nodes, edges)


def test_frontend_without_baseband_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes.append(Node(5, NodeKind.FRONTEND, (1.0, 1.0, 10.0), unit_id=9))
    with pytest.raises(OrphanFrontend):
        build_graph(nodes, edges)


def test_unit_with_four_frontends_rejected():
    nodes, edges = minimal_nodes_edges()
    for i in range(3):
        nodes.append(Node(10 + i, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0))
        edges.append(Edge(0, 10 + i, EdgeKind.WIRED))
    with pytest.raises(OrphanFrontend):
        build_graph(nodes, edges)


def test_disconnected_ue_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes.append(Node(9, NodeKind.UE, (500.0, 500.0, 1.5)))
    with pytest.raises(DisconnectedUe):
        build_graph(nodes, edges)


def test_wireless_within_unit_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes[0] = Node(0, NodeKind.MT_DU, (0.0, 0.0, 10.0), unit_id=0)
    nodes.append(Node(5, NodeKind.DONOR_DU, (9.0, 9.0, 10.0), unit_id=1))
    nodes.append(Node(6, NodeKind.FRONTEND, (9.0, 9.0, 10.0), unit_id=1))
    edges.append(Edge(5, 6, EdgeKind.WIRED))
    edges.append(Edge(6, 0, EdgeKind.WIRELESS, pathloss_db=90.0, los=True))
    # frontend 1 -> its own unit's baseband 0 is illegal
    edges.append(Edge(1, 0, EdgeKind.WIRELESS, pathloss_db=10.0, los=True))
    with pytest.raises(IllegalEdgeEndpoints):
        build_graph(nodes, edges)


def test_wired_crossing_units_rejected():
    nodes, edges = minimal_nodes_edges()
    nodes.append(Node(5, NodeKind.MT_DU, (9.0, 9.0, 10.0), unit_id=1))
    nodes.append(Node(6, NodeKind.FRONTEND, (9.0, 9.0, 10.0), unit_id=1))
    edges.append(Edge(5, 6, EdgeKind.WIRED))
    edges.append(Edge(5, 1, EdgeKind.WIRED))  # unit 1 baseband to unit 0 frontend
    edges.append(Edge(6, 0, EdgeKind.WIRELESS, pathloss_db=90.0, los=True))
    with pytest.raises(IllegalEdgeEndpoints):
        build_graph(nodes, edges)


def test_wireless_edge_requires_pathloss():
    with pytest.raises(ValueError):
        Edge(1, 2, EdgeKind.WIRELESS)


@pytest.mark.parametrize("pathloss", [math.nan, math.inf, -math.inf, -1.0])
def test_wireless_edge_requires_a_finite_non_negative_pathloss(pathloss):
    with pytest.raises(ValueError, match="finite pathloss_db"):
        Edge(1, 2, EdgeKind.WIRELESS, pathloss_db=pathloss, los=True)


@pytest.mark.parametrize("pathloss", [math.nan, math.inf])
def test_graph_file_with_a_non_finite_pathloss_is_a_parse_error(tmp_path, minimal_graph, pathloss):
    path = tmp_path / "g.json"
    save_graph(minimal_graph, path)
    payload = json.loads(path.read_text())
    payload["edges"][1]["pathloss_db"] = pathloss
    path.write_text(json.dumps(payload))  # the bare token NaN or Infinity
    with pytest.raises(ParseError, match="finite pathloss_db"):
        load_graph(path)


def test_endpoint_rule_over_random_soups():
    # Any edge soup build_graph accepts satisfies the wireless endpoint
    # rule; soups mix legal and illegal edges at random.
    rng = np.random.default_rng(11)
    accepted = rejected = 0
    for _ in range(300):
        # Node structure is fixed (valid); edges are the random soup.
        nodes = [
            Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
            Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
            Node(2, NodeKind.MT_DU, (100.0, 0.0, 10.0), unit_id=1),
            Node(3, NodeKind.FRONTEND, (100.0, 0.0, 10.0), unit_id=1),
            Node(4, NodeKind.UE, (50.0, 0.0, 1.5)),
        ]
        edges = [Edge(0, 1, EdgeKind.WIRED), Edge(2, 3, EdgeKind.WIRED)]
        seen = {(0, 1), (2, 3)}
        for _ in range(int(rng.integers(1, 7))):
            a, b = (int(x) for x in rng.integers(0, 5, size=2))
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            kind = EdgeKind.WIRELESS if rng.random() < 0.8 else EdgeKind.WIRED
            pl = float(rng.uniform(50, 120)) if kind is EdgeKind.WIRELESS else None
            los = True if kind is EdgeKind.WIRELESS else None
            edges.append(Edge(a, b, kind, pl, los))
        try:
            g = build_graph(nodes, edges)
        except Exception:
            rejected += 1
            continue
        accepted += 1
        for e in g.wireless_edges:
            assert g.node(e.src).kind is NodeKind.FRONTEND
            assert g.node(e.dst).kind in (NodeKind.UE, NodeKind.MT_DU)
            if g.node(e.dst).kind is NodeKind.MT_DU:
                assert g.node(e.dst).unit_id != g.node(e.src).unit_id
    assert accepted > 5
    assert rejected > 10


# -- tree validation -----------------------------------------------------------


def test_validate_tree_accepts_donor_frontend_ue_path(minimal_graph):
    report = validate_tree(minimal_graph, [(0, 1), (1, 2)], required_ues=[2])
    assert report.ok
    assert report.reached == {0, 1, 2}


def test_validate_tree_flags_double_parent():
    g = two_unit_graph()
    chosen = [(0, 1), (1, 20), (10, 11), (11, 20), (1, 10)]
    report = validate_tree(g, chosen)
    assert not report.ok
    assert any(v.rule == "InDegree" and v.location == (20,) for v in report.violations)


def test_validate_tree_flags_cycle():
    g = two_unit_graph()
    # A cycle between the two units' frontends/basebands, detached from the donor.
    nodes = list(g.nodes) + [
        Node(30, NodeKind.MT_DU, (400.0, 0.0, 10.0), unit_id=2),
        Node(31, NodeKind.FRONTEND, (400.0, 0.0, 10.0), unit_id=2),
    ]
    edges = list(g.edges) + [
        Edge(30, 31, EdgeKind.WIRED),
        Edge(31, 10, EdgeKind.WIRELESS, pathloss_db=90.0, los=True),
        Edge(11, 30, EdgeKind.WIRELESS, pathloss_db=90.0, los=True),
    ]
    g2 = build_graph(nodes, edges)
    chosen = [(31, 10), (10, 11), (11, 30), (30, 31)]
    report = validate_tree(g2, chosen)
    assert not report.ok
    assert any(v.rule == "Cycle" for v in report.violations)


def test_tree_edge_count_matches_reached_nodes():
    g = two_unit_graph()
    chosen = [(0, 1), (1, 10), (10, 11), (11, 21), (1, 20)]
    report = validate_tree(g, chosen, required_ues=[20, 21])
    assert report.ok
    reached_edges = [e for e in chosen if e[1] in report.reached and e[0] in report.reached]
    assert len(reached_edges) == len(report.reached) - 1


# -- serialization ---------------------------------------------------------------


def test_round_trip_minimal(tmp_path, minimal_graph):
    path = tmp_path / "g.json"
    save_graph(minimal_graph, path)
    assert load_graph(path) == minimal_graph


def test_parse_error_on_missing_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [{"id": 0, "unit_id": 0, "pos": [0,0,0]}], "edges": []}')
    with pytest.raises(ParseError):
        load_graph(path)


def test_parse_error_on_wireless_edge_without_pathloss(tmp_path, minimal_graph):
    path = tmp_path / "g.json"
    save_graph(minimal_graph, path)
    import json

    payload = json.loads(path.read_text())
    payload["edges"][1]["pathloss_db"] = None
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_graph(path)


def test_round_trip_randomized_structural_equality(tmp_path):
    rng = np.random.default_rng(5)
    from conftest import random_small_instance

    for trial in range(10):
        g = random_small_instance(rng).graph
        path = tmp_path / f"g{trial}.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2 == g
        for n in g.nodes:
            assert g2.in_edges(n.id) == g.in_edges(n.id)
            assert g2.out_edges(n.id) == g.out_edges(n.id)
