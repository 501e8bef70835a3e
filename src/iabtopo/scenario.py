"""Synthetic scenario generation: placement, hourly UE density, graph assembly.

Units land uniformly at random in the area (or at configured positions),
each exposing one to three sector frontends; UEs are drawn at the hourly
density p(t) * l * lambda_gnb and flagged indoor with the configured
ratio.  Wireless candidate edges exist wherever the synthesized pathloss
stays under a coupling cutoff.  All randomness is keyed by (seed, hour).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import RadioParams, los_probability, o2i_loss, pathloss_umi
from .energy import PowerModelParams
from .errors import BadRange, DuplicateHour, EmptyScenario, MissingHour, ParseError
from .graph import Commodity, Edge, EdgeKind, MeasurementGraph, Node, NodeKind, build_graph, read_json

_SECTOR_AZIMUTHS = (0.0, 120.0, 240.0)


@dataclass(frozen=True)
class LoadProfile:
    """Normalized weekly cell load, one sample per hour, values in (0, 1]."""

    hours: tuple[int, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.hours) != len(set(self.hours)):
            raise DuplicateHour("profile repeats an hour")
        for h, v in zip(self.hours, self.p):
            if not 0 < v <= 1:
                raise BadRange(f"hour {h}: load {v} outside (0, 1]")

    def at(self, hour: int) -> float:
        try:
            return self.p[self.hours.index(hour)]
        except ValueError:
            raise MissingHour(f"hour {hour} not in profile") from None


def load_profile_csv(path) -> LoadProfile:
    hours: list[int] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["hour", "p"]:
            raise ParseError(f"{path}: expected header 'hour,p', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                hours.append(int(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return LoadProfile(hours=tuple(hours), p=tuple(values))


@dataclass(frozen=True)
class ScenarioConfig:
    area_km2: float = 0.25
    lambda_gnb: float = 20.0  # units per km^2
    sectors_per_unit: int = 3
    l_ue_per_gnb: float = 10.0
    r_indoor: float = 0.8
    seed: int = 0
    donor_rule: str | int = "centroid"
    coupling_cutoff_db: float = 160.0
    gnb_height_m: float = 10.0
    ue_height_m: float = 1.5
    demand_mbps: float = 0.0
    radio: RadioParams = field(default_factory=RadioParams)
    power_model: PowerModelParams = field(default_factory=PowerModelParams)
    unit_positions: tuple[tuple[float, float], ...] | None = None
    ue_positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.area_km2 <= 0:
            raise ValueError("area must be positive")
        if not 0 <= self.r_indoor <= 1:
            raise ValueError("indoor ratio outside [0, 1]")
        if not 1 <= self.sectors_per_unit <= 3:
            raise ValueError("sectors_per_unit must be 1..3")
        if not 0 <= self.demand_mbps < math.inf:
            raise ValueError("demand_mbps must be finite and >= 0")


def ue_density(profile: LoadProfile, hour: int, config: ScenarioConfig) -> float:
    """UE/km^2 at the given hour: p(t) * l * lambda_gnb."""
    return profile.at(hour) * config.l_ue_per_gnb * config.lambda_gnb


def generate(
    config: ScenarioConfig, profile: LoadProfile, hour: int
) -> tuple[MeasurementGraph, tuple[Commodity, ...]]:
    """Build the hour's measurement graph and one commodity per UE."""
    rng = np.random.default_rng([config.seed, hour])
    side_m = math.sqrt(config.area_km2) * 1000.0

    if config.unit_positions is not None:
        unit_xy = [tuple(map(float, p)) for p in config.unit_positions]
    else:
        n_units = int(config.lambda_gnb * config.area_km2 + 0.5)
        unit_xy = [tuple(rng.uniform(0.0, side_m, size=2)) for _ in range(n_units)]
    if not unit_xy:
        raise EmptyScenario("scenario has no units")

    if config.ue_positions is not None:
        ue_xy = [tuple(map(float, p)) for p in config.ue_positions]
    else:
        density = ue_density(profile, hour, config)
        n_ues = int(density * config.area_km2 + 0.5)
        ue_xy = [tuple(rng.uniform(0.0, side_m, size=2)) for _ in range(n_ues)]
    indoor_flags = [bool(rng.random() < config.r_indoor) for _ in ue_xy]

    if config.donor_rule == "centroid":
        cx = cy = side_m / 2.0
        donor_unit = min(
            range(len(unit_xy)),
            key=lambda i: (unit_xy[i][0] - cx) ** 2 + (unit_xy[i][1] - cy) ** 2,
        )
    else:
        donor_unit = int(config.donor_rule)
        if not 0 <= donor_unit < len(unit_xy):
            raise ValueError(f"donor unit index {donor_unit} out of range")

    nodes: list[Node] = []
    next_id = 0
    baseband_ids: list[int] = []
    frontend_ids: dict[int, list[int]] = {}
    for u, (x, y) in enumerate(unit_xy):
        kind = NodeKind.DONOR_DU if u == donor_unit else NodeKind.MT_DU
        nodes.append(Node(next_id, kind, (x, y, config.gnb_height_m), unit_id=u))
        baseband_ids.append(next_id)
        next_id += 1
        frontend_ids[u] = []
        for s in range(config.sectors_per_unit):
            nodes.append(
                Node(
                    next_id,
                    NodeKind.FRONTEND,
                    (x, y, config.gnb_height_m),
                    unit_id=u,
                    sector_azimuth_deg=_SECTOR_AZIMUTHS[s],
                )
            )
            frontend_ids[u].append(next_id)
            next_id += 1

    ue_ids: list[int] = []
    for (x, y), indoor in zip(ue_xy, indoor_flags):
        nodes.append(Node(next_id, NodeKind.UE, (x, y, config.ue_height_m), indoor=indoor))
        ue_ids.append(next_id)
        next_id += 1

    edges: list[Edge] = [
        Edge(baseband_ids[u], fid, EdgeKind.WIRED)
        for u in range(len(unit_xy))
        for fid in frontend_ids[u]
    ]

    carrier = config.radio.carrier_ghz
    node_by_id = {n.id: n for n in nodes}

    def synth_edge(frontend: int, target: int, los: bool, extra_db: float) -> Edge | None:
        a, b = node_by_id[frontend].pos, node_by_id[target].pos
        d2d = max(math.hypot(a[0] - b[0], a[1] - b[1]), 1.0)
        d3d = max(math.dist(a, b), 1.0)
        pl = pathloss_umi(carrier, d2d, d3d, a[2], b[2], los) + extra_db
        if pl > config.coupling_cutoff_db:
            return None
        return Edge(frontend, target, EdgeKind.WIRELESS, round(pl, 6), los)

    # One LOS draw per (unit, target) pair: colocated sector frontends share it.
    for u in range(len(unit_xy)):
        bb = node_by_id[baseband_ids[u]]
        for ue, indoor in zip(ue_ids, indoor_flags):
            d2d = math.hypot(
                bb.pos[0] - node_by_id[ue].pos[0], bb.pos[1] - node_by_id[ue].pos[1]
            )
            los = False if indoor else bool(rng.random() < los_probability(max(d2d, 1.0)))
            extra = o2i_loss(carrier) if indoor else 0.0
            for fid in frontend_ids[u]:
                edge = synth_edge(fid, ue, los, extra)
                if edge is not None:
                    edges.append(edge)
        for v in range(len(unit_xy)):
            if v == u or v == donor_unit:
                continue  # backhaul terminates at relay basebands only
            d2d = math.hypot(
                bb.pos[0] - unit_xy[v][0], bb.pos[1] - unit_xy[v][1]
            )
            los = bool(rng.random() < los_probability(max(d2d, 1.0)))
            for fid in frontend_ids[u]:
                edge = synth_edge(fid, baseband_ids[v], los, 0.0)
                if edge is not None:
                    edges.append(edge)

    graph = build_graph(nodes, edges)
    donor_id = baseband_ids[donor_unit]
    commodities = tuple(
        Commodity(i, donor_id, ue, config.demand_mbps) for i, ue in enumerate(ue_ids)
    )
    return graph, commodities


# -- config file I/O -----------------------------------------------------------


def config_to_json(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(config), fh, indent=2)
        fh.write("\n")


def config_from_json(path) -> ScenarioConfig:
    try:
        kwargs = dict(read_json(path))
        if "radio" in kwargs:
            kwargs["radio"] = RadioParams(**kwargs["radio"])
        if "power_model" in kwargs:
            kwargs["power_model"] = PowerModelParams(**kwargs["power_model"])
        for key in ("unit_positions", "ue_positions"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(tuple(map(float, p)) for p in kwargs[key])
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError, KeyError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
