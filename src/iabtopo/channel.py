"""Pathloss synthesis and link signal/interference arithmetic.

Median urban-microcell street-canyon pathloss and the high-loss
outdoor-to-indoor penetration model follow TR 38.901; no fading or
shadowing terms.  Signal and interference are linear in transmit power
(mW), with antenna gains selected by a two-level main/side lobe rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import OutOfModelRange
from .graph import Edge, EdgeKey, EdgeKind, MeasurementGraph, Node, NodeKind

_C = 299792458.0  # m/s

# Main lobe covers +/- this many degrees around the sector azimuth.
MAIN_LOBE_HALF_WIDTH_DEG = 60.0

# Mean indoor penetration depth: min of two U(0, 25) m draws, in expectation.
DEFAULT_INDOOR_DEPTH_M = 25.0 / 3.0


@dataclass(frozen=True)
class RadioParams:
    """Antenna, power and carrier configuration shared by all frontends."""

    g_tx_main_dbi: float = 24.0
    g_tx_side_dbi: float = -2.0
    g_rx_main_dbi: float = 0.0
    g_rx_side_dbi: float = -17.85
    p_max_mw: float = 6300.0
    carrier_ghz: float = 3.6
    bandwidth_mhz: float = 100.0
    mimo_layers: int = 4
    noise_mw: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite")
        for name in ("p_max_mw", "carrier_ghz", "bandwidth_mhz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mimo_layers < 1:
            raise ValueError("mimo_layers must be >= 1")
        if self.g_tx_main_dbi < self.g_tx_side_dbi:
            raise ValueError("tx main-lobe gain below side-lobe gain")
        if self.g_rx_main_dbi < self.g_rx_side_dbi:
            raise ValueError("rx main-lobe gain below side-lobe gain")
        if self.noise_mw < 0:
            raise ValueError("noise_mw must be >= 0")


# -- pathloss ------------------------------------------------------------


def pathloss_umi(
    carrier_ghz: float,
    d2d_m: float,
    d3d_m: float,
    h_bs_m: float,
    h_ut_m: float,
    los: bool,
) -> float:
    """Median UMi street-canyon pathloss in dB.

    NLOS takes the max of the LOS value and the NLOS fit, per the
    standard's definition.
    """
    if not 0.5 <= carrier_ghz <= 100.0:
        raise OutOfModelRange(f"carrier {carrier_ghz} GHz outside [0.5, 100]")
    if d2d_m <= 0 or d3d_m <= 0:
        raise OutOfModelRange("distances must be positive")

    # Breakpoint with 1 m effective environment height.
    d_bp = 4.0 * (h_bs_m - 1.0) * (h_ut_m - 1.0) * carrier_ghz * 1e9 / _C
    pl1 = 32.4 + 21.0 * math.log10(d3d_m) + 20.0 * math.log10(carrier_ghz)
    pl2 = (
        32.4
        + 40.0 * math.log10(d3d_m)
        + 20.0 * math.log10(carrier_ghz)
        - 9.5 * math.log10(d_bp**2 + (h_bs_m - h_ut_m) ** 2)
    )
    pl_los = pl1 if d2d_m <= d_bp else pl2
    if los:
        return pl_los
    pl_nlos = (
        35.3 * math.log10(d3d_m)
        + 22.4
        + 21.3 * math.log10(carrier_ghz)
        - 0.3 * (h_ut_m - 1.5)
    )
    return max(pl_los, pl_nlos)


def o2i_loss(carrier_ghz: float, indoor_depth_m: float = DEFAULT_INDOOR_DEPTH_M) -> float:
    """Median high-loss building penetration in dB (concrete walls).

    Applied additively to indoor UE links only; outdoor links get 0.
    """
    if not 0.5 <= carrier_ghz <= 100.0:
        raise OutOfModelRange(f"carrier {carrier_ghz} GHz outside [0.5, 100]")
    l_glass = 23.0 + 0.3 * carrier_ghz
    l_concrete = 5.0 + 4.0 * carrier_ghz
    pl_tw = 5.0 - 10.0 * math.log10(
        0.7 * 10.0 ** (-l_glass / 10.0) + 0.3 * 10.0 ** (-l_concrete / 10.0)
    )
    return pl_tw + 0.5 * indoor_depth_m


def los_probability(d2d_m: float) -> float:
    """Outdoor UMi line-of-sight probability."""
    if d2d_m <= 18.0:
        return 1.0
    return 18.0 / d2d_m + math.exp(-d2d_m / 36.0) * (1.0 - 18.0 / d2d_m)


# -- gains ---------------------------------------------------------------


def _bearing_deg(src: Node, dst: Node) -> float:
    return math.degrees(math.atan2(dst.pos[1] - src.pos[1], dst.pos[0] - src.pos[0]))


def in_main_lobe(frontend: Node, target: Node) -> bool:
    """True when the target sits within the frontend's sector main lobe."""
    if frontend.sector_azimuth_deg is None:
        return True  # undirected frontend: treat as omni main lobe
    delta = (_bearing_deg(frontend, target) - frontend.sector_azimuth_deg + 180.0) % 360.0 - 180.0
    return abs(delta) <= MAIN_LOBE_HALF_WIDTH_DEG


def tx_gain_dbi(frontend: Node, target: Node, params: RadioParams) -> float:
    if in_main_lobe(frontend, target):
        return params.g_tx_main_dbi
    return params.g_tx_side_dbi


def serving_gains_dbi(graph: MeasurementGraph, edge: Edge, params: RadioParams) -> tuple[float, float]:
    """(tx, rx) gain for the edge's own transmission.

    The receiver points its main lobe at its serving frontend.
    """
    src = graph.node(edge.src)
    dst = graph.node(edge.dst)
    return tx_gain_dbi(src, dst, params), params.g_rx_main_dbi


# -- signal / interference ------------------------------------------------


def link_signal(p_tx_mw: float, g_tx_dbi: float, g_rx_dbi: float, pathloss_db: float) -> float:
    """Received power in mW; pathloss stored as positive attenuation."""
    if p_tx_mw < 0:
        raise ValueError("p_tx_mw must be >= 0")
    if pathloss_db < 0:
        raise ValueError("pathloss_db must be >= 0")
    return p_tx_mw * 10.0 ** (g_tx_dbi / 10.0) * 10.0 ** (g_rx_dbi / 10.0) * 10.0 ** (-pathloss_db / 10.0)


def signal_coefficient(graph: MeasurementGraph, edge: Edge, params: RadioParams) -> float:
    """Received mW per transmitted mW on the edge's own link."""
    g_tx, g_rx = serving_gains_dbi(graph, edge, params)
    return link_signal(1.0, g_tx, g_rx, edge.pathloss_db)


def interference_coefficients(
    graph: MeasurementGraph, edge: Edge, params: RadioParams
) -> dict[int, float]:
    """Per-interferer received mW per transmitted mW at the edge's receiver.

    Interferers are every frontend other than the serving one; pairs with
    no measured pathloss toward the receiver contribute nothing (below
    sensitivity).  The victim listens with its side lobe.
    """
    victim = graph.node(edge.dst)
    coeffs: dict[int, float] = {}
    for other in graph.in_edges(edge.dst):
        if other.kind is not EdgeKind.WIRELESS or other.src == edge.src:
            continue
        interferer = graph.node(other.src)
        if interferer.kind is not NodeKind.FRONTEND:
            continue
        g_tx = tx_gain_dbi(interferer, victim, params)
        coeffs[other.src] = link_signal(1.0, g_tx, params.g_rx_side_dbi, other.pathloss_db)
    return coeffs


def link_budgets(graph: MeasurementGraph, edges: Iterable[Edge], params: RadioParams):
    """Function from transmit powers (mW by frontend id) to each edge's budget.

    A budget is ``(signal_mw, interference_mw)``.  Every given edge's
    coefficients are computed here once; a call only multiplies and sums
    them: noise first, then interferers in id order, silent ones skipped.
    """
    gains = [
        (e.key, signal_coefficient(graph, e, params), interference_coefficients(graph, e, params))
        for e in edges
    ]

    def budgets(powers_mw: Mapping[int, float]) -> dict[EdgeKey, tuple[float, float]]:
        out: dict[EdgeKey, tuple[float, float]] = {}
        for key, s_coeff, interferers in gains:
            interference = params.noise_mw
            for fid, coeff in interferers.items():
                p = powers_mw.get(fid, 0.0)
                if p > 0:
                    interference += coeff * p
            out[key] = (s_coeff * powers_mw.get(key[0], 0.0), interference)
        return out

    return budgets
