import math

import numpy as np
import pytest

from iabtopo.channel import (
    RadioParams,
    in_main_lobe,
    interference_coefficients,
    link_budgets,
    link_signal,
    los_probability,
    o2i_loss,
    pathloss_umi,
    signal_coefficient,
)
from iabtopo.errors import OutOfModelRange
from iabtopo.graph import Edge, EdgeKind, Node, NodeKind, build_graph

from conftest import random_small_instance, two_unit_graph


def _interference(edge, powers_mw, graph, params):
    return link_budgets(graph, [edge], params)(powers_mw)[edge.key][1]


def _d2d(d3d, h_bs, h_ut):
    return math.sqrt(d3d**2 - (h_bs - h_ut) ** 2)


def test_pathloss_monotone_in_distance():
    a = pathloss_umi(3.6, 50.0, 50.7, 10.0, 1.5, los=True)
    b = pathloss_umi(3.6, 200.0, 200.2, 10.0, 1.5, los=True)
    assert b > a


def test_pathloss_monotone_in_frequency():
    lo = pathloss_umi(3.6, 100.0, 100.4, 10.0, 1.5, los=True)
    hi = pathloss_umi(7.0, 100.0, 100.4, 10.0, 1.5, los=True)
    assert hi > lo
    lo_n = pathloss_umi(3.6, 100.0, 100.4, 10.0, 1.5, los=False)
    hi_n = pathloss_umi(7.0, 100.0, 100.4, 10.0, 1.5, los=False)
    assert hi_n > lo_n


def test_pathloss_los_value_against_independent_transcription():
    # Independent transcription of the street-canyon median LOS fit,
    # below the breakpoint: 32.4 + 21 log10(d3) + 20 log10(f).
    f, d3d, h_bs, h_ut = 3.6, 100.0, 10.0, 1.5
    d2d = _d2d(d3d, h_bs, h_ut)
    d_bp = 4 * (h_bs - 1) * (h_ut - 1) * f * 1e9 / 299792458.0
    assert d2d <= d_bp
    expected = 32.4 + 21 * math.log10(d3d) + 20 * math.log10(f)
    assert pathloss_umi(f, d2d, d3d, h_bs, h_ut, los=True) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(85.52605001534575, abs=1e-9)


def test_pathloss_nlos_is_max_of_fits():
    f, d3d, h_bs, h_ut = 3.6, 100.0, 10.0, 1.5
    d2d = _d2d(d3d, h_bs, h_ut)
    nlos_fit = 35.3 * math.log10(d3d) + 22.4 + 21.3 * math.log10(f) - 0.3 * (h_ut - 1.5)
    los = pathloss_umi(f, d2d, d3d, h_bs, h_ut, los=True)
    assert pathloss_umi(f, d2d, d3d, h_bs, h_ut, los=False) == pytest.approx(
        max(los, nlos_fit), abs=1e-12
    )


def test_pathloss_beyond_breakpoint_uses_far_fit():
    f, h_bs, h_ut = 3.6, 10.0, 1.5
    d_bp = 4 * (h_bs - 1) * (h_ut - 1) * f * 1e9 / 299792458.0
    d2d = d_bp * 2
    d3d = math.sqrt(d2d**2 + (h_bs - h_ut) ** 2)
    expected = (
        32.4 + 40 * math.log10(d3d) + 20 * math.log10(f)
        - 9.5 * math.log10(d_bp**2 + (h_bs - h_ut) ** 2)
    )
    assert pathloss_umi(f, d2d, d3d, h_bs, h_ut, los=True) == pytest.approx(expected, abs=1e-12)


def test_pathloss_rejects_out_of_range():
    with pytest.raises(OutOfModelRange):
        pathloss_umi(0.3, 100.0, 100.0, 10.0, 1.5, True)
    with pytest.raises(OutOfModelRange):
        pathloss_umi(3.6, -5.0, 100.0, 10.0, 1.5, True)


def test_o2i_loss_grows_with_frequency():
    assert o2i_loss(7.0) > o2i_loss(3.6)


def test_o2i_median_against_independent_transcription():
    # 5 - 10 log10(0.7*10^-(23+0.3f)/10 + 0.3*10^-(5+4f)/10) plus half the
    # mean indoor depth (25/3 m) at 0.5 dB/m.
    f = 3.6
    tw = 5 - 10 * math.log10(
        0.7 * 10 ** (-(23 + 0.3 * f) / 10) + 0.3 * 10 ** (-(5 + 4 * f) / 10)
    )
    expected = tw + 0.5 * 25.0 / 3.0
    assert o2i_loss(f) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(31.256537976300695, abs=1e-9)


def test_los_probability_shape():
    assert los_probability(10.0) == 1.0
    assert 0 < los_probability(200.0) < los_probability(50.0) < 1.0


# -- signal --------------------------------------------------------------------


def test_link_signal_identity():
    assert link_signal(1.0, 0.0, 0.0, 0.0) == 1.0


def test_link_signal_worked_example():
    assert link_signal(1000.0, 24.0, 0.0, 100.0) == pytest.approx(2.5118864315095798e-05)


def test_link_signal_linear_in_power():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = float(rng.uniform(0.1, 6300))
        g_tx, g_rx, pl = rng.uniform(-5, 25), rng.uniform(-20, 5), rng.uniform(40, 120)
        assert link_signal(2 * p, g_tx, g_rx, pl) == pytest.approx(
            2 * link_signal(p, g_tx, g_rx, pl), rel=1e-12
        )


def test_interference_zero_when_everyone_silent():
    g = two_unit_graph()
    edge = g.edge(1, 20)
    assert _interference(edge, {1: 6300.0, 11: 0.0}, g, RadioParams()) == 0.0


def test_interferer_matching_serving_link_gives_equal_power():
    # One interferer whose every parameter equals the serving link's.
    nodes = [
        Node(0, NodeKind.DONOR_DU, (0.0, 0.0, 10.0), unit_id=0),
        Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0),
        Node(2, NodeKind.MT_DU, (100.0, 0.0, 10.0), unit_id=1),
        Node(3, NodeKind.FRONTEND, (100.0, 0.0, 10.0), unit_id=1),
        Node(4, NodeKind.UE, (50.0, 0.0, 1.5)),
    ]
    radio = RadioParams(g_rx_main_dbi=0.0, g_rx_side_dbi=0.0)
    edges = [
        Edge(0, 1, EdgeKind.WIRED),
        Edge(2, 3, EdgeKind.WIRED),
        Edge(1, 4, EdgeKind.WIRELESS, pathloss_db=90.0, los=True),
        Edge(3, 4, EdgeKind.WIRELESS, pathloss_db=90.0, los=True),
    ]
    g = build_graph(nodes, edges)
    serving = g.edge(1, 4)
    s, i = link_budgets(g, [serving], radio)({1: 1000.0, 3: 1000.0})[serving.key]
    assert s == signal_coefficient(g, serving, radio) * 1000.0
    assert i == pytest.approx(s, rel=1e-12)


def test_interference_sums_three_terms():
    g = two_unit_graph()
    nodes = list(g.nodes) + [
        Node(30, NodeKind.MT_DU, (100.0, 150.0, 10.0), unit_id=2),
        Node(31, NodeKind.FRONTEND, (100.0, 150.0, 10.0), unit_id=2),
        Node(40, NodeKind.MT_DU, (-80.0, -60.0, 10.0), unit_id=3),
        Node(41, NodeKind.FRONTEND, (-80.0, -60.0, 10.0), unit_id=3),
    ]
    edges = list(g.edges) + [
        Edge(30, 31, EdgeKind.WIRED),
        Edge(40, 41, EdgeKind.WIRED),
        Edge(31, 20, EdgeKind.WIRELESS, pathloss_db=92.0, los=True),
        Edge(31, 10, EdgeKind.WIRELESS, pathloss_db=97.0, los=True),
        Edge(41, 20, EdgeKind.WIRELESS, pathloss_db=101.0, los=False),
        Edge(41, 10, EdgeKind.WIRELESS, pathloss_db=99.0, los=True),
    ]
    g3 = build_graph(nodes, edges)
    radio = RadioParams()
    victim = g3.edge(1, 20)
    powers = {1: 6300.0, 11: 2000.0, 31: 1000.0, 41: 500.0}
    total = _interference(victim, powers, g3, radio)
    by_hand = 0.0
    for rid, pl in ((11, 96.0), (31, 92.0), (41, 101.0)):
        tx = g3.node(rid)
        gain = radio.g_tx_main_dbi if in_main_lobe(tx, g3.node(20)) else radio.g_tx_side_dbi
        by_hand += link_signal(powers[rid], gain, radio.g_rx_side_dbi, pl)
    assert total == pytest.approx(by_hand, rel=1e-12)


def test_interference_superposition():
    g = two_unit_graph()
    radio = RadioParams()
    victim = g.edge(1, 20)
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = float(rng.uniform(0, 6300))
        base = _interference(victim, {11: p}, g, radio)
        assert _interference(victim, {11: 2 * p}, g, radio) == pytest.approx(
            2 * base, rel=1e-12, abs=1e-30
        )


def test_link_budgets_equal_a_hand_loop_bit_for_bit():
    # Noise first, then interferers in id order, silent ones skipped: the
    # same float operations in the same order give the same bits.
    rng = np.random.default_rng(77)
    for k in range(10):
        g = random_small_instance(rng).graph
        radio = RadioParams()
        if k % 2:  # half the instances add a noise floor
            radio = RadioParams(noise_mw=float(10 ** rng.uniform(-7.0, -4.0)))
        budgets = link_budgets(g, g.wireless_edges, radio)
        frontends = [n.id for n in g.frontends]
        for _ in range(5):
            powers = {
                f: float(rng.choice([0.0, rng.uniform(1.0, 6300.0)])) for f in frontends
            }
            got = budgets(powers)
            assert set(got) == {e.key for e in g.wireless_edges}
            for e in g.wireless_edges:
                interference = radio.noise_mw
                for fid, coeff in sorted(interference_coefficients(g, e, radio).items()):
                    if powers[fid] > 0:
                        interference += coeff * powers[fid]
                signal = signal_coefficient(g, e, radio) * powers[e.src]
                assert got[e.key] == (signal, interference)


def test_main_lobe_selection():
    f = Node(1, NodeKind.FRONTEND, (0.0, 0.0, 10.0), unit_id=0, sector_azimuth_deg=0.0)
    ahead = Node(2, NodeKind.UE, (100.0, 10.0, 1.5))
    behind = Node(3, NodeKind.UE, (-100.0, 10.0, 1.5))
    assert in_main_lobe(f, ahead)
    assert not in_main_lobe(f, behind)
