import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from iabtopo.channel import RadioParams
from iabtopo.energy import PowerModelParams
from iabtopo.errors import BadRange, DuplicateHour, EmptyScenario, MissingHour, ParseError
from iabtopo.graph import Commodity, NodeKind, save_graph
from iabtopo.scenario import (
    LoadProfile,
    ScenarioConfig,
    config_from_json,
    config_to_json,
    generate,
    load_profile_csv,
    ue_density,
)


def _write_profile(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "p"])
        writer.writerows(rows)


def _flat_profile(p=0.5):
    return LoadProfile(hours=tuple(range(168)), p=tuple([p] * 168))


def test_profile_csv_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    _write_profile(path, [(h, 0.25 + h / 400) for h in range(168)])
    profile = load_profile_csv(path)
    assert len(profile.hours) == 168
    assert profile.at(0) == pytest.approx(0.25)


def test_profile_rejects_zero_load(tmp_path):
    path = tmp_path / "p.csv"
    _write_profile(path, [(0, 0.0)])
    with pytest.raises(BadRange):
        load_profile_csv(path)


def test_profile_rejects_overload(tmp_path):
    path = tmp_path / "p.csv"
    _write_profile(path, [(0, 1.2)])
    with pytest.raises(BadRange):
        load_profile_csv(path)


def test_profile_rejects_duplicate_hour(tmp_path):
    path = tmp_path / "p.csv"
    _write_profile(path, [(0, 0.5), (0, 0.6)])
    with pytest.raises(DuplicateHour):
        load_profile_csv(path)


def test_missing_hour():
    profile = LoadProfile(hours=(0, 1), p=(0.5, 0.6))
    with pytest.raises(MissingHour):
        profile.at(7)


def test_density_product():
    cfg = ScenarioConfig(lambda_gnb=18.0, l_ue_per_gnb=10.0)
    profile = _flat_profile(0.5)
    assert ue_density(profile, 3, cfg) == pytest.approx(90.0)


def test_density_linear_in_load():
    cfg = ScenarioConfig(lambda_gnb=18.0, l_ue_per_gnb=10.0)
    lo = ue_density(_flat_profile(0.25), 0, cfg)
    hi = ue_density(_flat_profile(0.5), 0, cfg)
    assert hi == pytest.approx(2 * lo)


def test_peak_density_stays_in_reported_band():
    # At full load, density = l * lambda stays within 0..900 for
    # lambda <= 90 with l = 10.
    cfg = ScenarioConfig(lambda_gnb=90.0, l_ue_per_gnb=10.0)
    assert ue_density(_flat_profile(1.0), 0, cfg) <= 900.0


def test_generation_deterministic(tmp_path):
    cfg = ScenarioConfig(area_km2=0.16, lambda_gnb=25.0, sectors_per_unit=2, seed=13)
    profile = _flat_profile(0.6)
    g1, c1 = generate(cfg, profile, 9)
    g2, c2 = generate(cfg, profile, 9)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g1, a)
    save_graph(g2, b)
    assert a.read_text() == b.read_text()
    assert c1 == c2
    g3, _ = generate(cfg, profile, 10)  # different hour, different draw
    assert g3 != g1


def test_generated_graph_is_valid_and_shaped():
    cfg = ScenarioConfig(area_km2=0.2, lambda_gnb=25.0, sectors_per_unit=3, seed=5)
    profile = _flat_profile(0.8)
    g, comms = generate(cfg, profile, 12)
    donors = [n for n in g.nodes if n.kind is NodeKind.DONOR_DU]
    assert len(donors) == 1
    assert len(comms) == len(g.ues)
    for c in comms:
        assert c.source == donors[0].id
    azimuths = {n.sector_azimuth_deg for n in g.frontends}
    assert azimuths == {0.0, 120.0, 240.0}
    # backhaul edges never terminate at the donor
    for e in g.wireless_edges:
        assert e.dst != donors[0].id


def test_ue_count_scales_with_load():
    cfg = ScenarioConfig(area_km2=0.25, lambda_gnb=20.0, l_ue_per_gnb=8.0)
    lo_profile, hi_profile = _flat_profile(0.4), _flat_profile(0.8)
    lo_counts, hi_counts = [], []
    for seed in range(100):
        c = ScenarioConfig(**{**vars(cfg), "seed": seed})
        lo_counts.append(len(generate(c, lo_profile, 0)[0].ues))
        hi_counts.append(len(generate(c, hi_profile, 0)[0].ues))
    assert np.mean(hi_counts) == pytest.approx(2 * np.mean(lo_counts), rel=0.1)


def test_indoor_fraction_near_configured_ratio():
    cfg = ScenarioConfig(
        area_km2=1.0, lambda_gnb=10.0, l_ue_per_gnb=15.0, r_indoor=0.8, seed=42,
        coupling_cutoff_db=250.0,
    )
    profile = _flat_profile(1.0)
    indoor = total = 0
    for hour in range(7):
        g, _ = generate(cfg, profile, hour)
        indoor += sum(1 for n in g.ues if n.indoor)
        total += len(g.ues)
    assert total >= 1000
    assert indoor / total == pytest.approx(0.8, abs=0.03)


def test_outdoor_edges_carry_plain_pathloss():
    # Outdoor UE: edge weight is exactly the street-canyon value with no
    # penetration term; indoor adds o2i on top (and forces NLOS).
    import math

    from iabtopo.channel import o2i_loss, pathloss_umi

    cfg = ScenarioConfig(area_km2=0.2, lambda_gnb=25.0, seed=3, coupling_cutoff_db=250.0)
    g, _ = generate(cfg, _flat_profile(0.9), 0)
    carrier = cfg.radio.carrier_ghz
    checked_out = checked_in = 0
    for e in g.wireless_edges:
        dst = g.node(e.dst)
        if dst.kind is not NodeKind.UE:
            continue
        src = g.node(e.src)
        d2d = max(math.hypot(src.pos[0] - dst.pos[0], src.pos[1] - dst.pos[1]), 1.0)
        d3d = max(math.dist(src.pos, dst.pos), 1.0)
        base = pathloss_umi(carrier, d2d, d3d, src.pos[2], dst.pos[2], e.los)
        extra = o2i_loss(carrier) if dst.indoor else 0.0
        assert e.pathloss_db == pytest.approx(base + extra, abs=1e-5)
        if dst.indoor:
            checked_in += 1
        else:
            checked_out += 1
    assert checked_out > 0 and checked_in > 0


def test_indoor_ues_never_los():
    cfg = ScenarioConfig(area_km2=0.2, lambda_gnb=25.0, seed=3, coupling_cutoff_db=250.0)
    g, _ = generate(cfg, _flat_profile(0.9), 0)
    indoor_ids = {n.id for n in g.ues if n.indoor}
    saw_indoor_edge = False
    for e in g.wireless_edges:
        if e.dst in indoor_ids:
            saw_indoor_edge = True
            assert e.los is False
    assert saw_indoor_edge


def test_zero_units_rejected():
    cfg = ScenarioConfig(area_km2=0.01, lambda_gnb=1.0)
    with pytest.raises(EmptyScenario):
        generate(cfg, _flat_profile(0.5), 0)


def test_zero_ues_is_legal():
    cfg = ScenarioConfig(area_km2=0.25, lambda_gnb=20.0, l_ue_per_gnb=0.1, seed=1)
    g, comms = generate(cfg, _flat_profile(0.01), 0)
    assert comms == ()
    assert len(g.ues) == 0


def test_position_overrides():
    cfg = ScenarioConfig(
        area_km2=0.25,
        lambda_gnb=20.0,
        sectors_per_unit=1,
        unit_positions=((100.0, 100.0), (300.0, 300.0)),
        ue_positions=((150.0, 150.0),),
        donor_rule=1,
    )
    g, comms = generate(cfg, _flat_profile(0.5), 0)
    assert len(g.basebands) == 2
    assert g.donor.unit_id == 1
    assert len(g.ues) == 1


def test_config_json_round_trip(tmp_path):
    cfg = ScenarioConfig(area_km2=0.3, lambda_gnb=15.0, seed=77, donor_rule=0)
    path = tmp_path / "cfg.json"
    config_to_json(cfg, path)
    assert config_from_json(path) == cfg

    # The writer reproduces the demo file byte for byte.
    demo = Path(__file__).resolve().parent.parent / "demo" / "scenario_config.json"
    config_to_json(config_from_json(demo), path)
    assert path.read_bytes() == demo.read_bytes()

    placed = ScenarioConfig(
        unit_positions=((0.0, 0.0), (120.5, 80.25)), ue_positions=((60.0, 40.0),)
    )
    config_to_json(placed, path)
    assert config_from_json(path) == placed


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        config_from_json(path)


@pytest.mark.parametrize("demand", [-1.0, math.nan, math.inf])
def test_demand_must_be_finite_and_non_negative(tmp_path, demand):
    with pytest.raises(ValueError, match="finite and >= 0"):
        Commodity(0, 0, 1, demand)
    with pytest.raises(ValueError, match="finite and >= 0"):
        ScenarioConfig(demand_mbps=demand)
    path = tmp_path / "cfg.json"
    config_to_json(ScenarioConfig(), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "demand_mbps": demand}))
    with pytest.raises(ParseError, match="demand_mbps"):
        config_from_json(path)


@pytest.mark.parametrize(
    "name, value",
    [("p_active_unit_w", -5.0), ("p0_w", math.nan), ("delta_p", math.inf), ("n_trx", -1)],
)
def test_power_model_constants_must_be_finite_and_non_negative(tmp_path, name, value):
    # A negative adder or a NaN constant would leave the proven power
    # bound below what the model reaches, or NaN.
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        PowerModelParams(**{name: value})
    path = tmp_path / "cfg.json"
    config_to_json(ScenarioConfig(), path)
    raw = json.loads(path.read_text())
    raw["power_model"][name] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match=name):
        config_from_json(path)


@pytest.mark.parametrize(
    "name, value",
    [
        ("p_max_mw", math.nan), ("p_max_mw", math.inf), ("noise_mw", math.nan),
        ("noise_mw", math.inf), ("bandwidth_mhz", 0.0), ("bandwidth_mhz", -100.0),
        ("carrier_ghz", -3.6), ("mimo_layers", 0), ("g_tx_main_dbi", math.nan),
    ],
)
def test_radio_params_must_be_finite_and_possible(tmp_path, name, value):
    # NaN noise made every link's interference NaN, which the ladders read
    # as the top level: the two-unit instance solved as at zero noise.
    with pytest.raises(ValueError, match=name):
        RadioParams(**{name: value})
    path = tmp_path / "cfg.json"
    config_to_json(ScenarioConfig(), path)
    raw = json.loads(path.read_text())
    raw["radio"][name] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match=name):
        config_from_json(path)
