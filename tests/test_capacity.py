import numpy as np
import pytest

from iabtopo.capacity import (
    CapacityTable,
    McsEntry,
    Ts38306Params,
    capacity_from_sinr,
    default_table,
    load_table,
    ts38306_rate,
)
from iabtopo.errors import NonMonotoneTable, ParseError

TOP_MBPS = 1226.925063
BOTTOM_MBPS = 51.76899
BOTTOM_ONSET_DB = -4.92462311557789


def test_rate_zero_at_full_overhead():
    with pytest.raises(ValueError):
        Ts38306Params(overhead=1.0)
    params = Ts38306Params(overhead=0.999999999)
    assert ts38306_rate(params) == pytest.approx(0.0, abs=1e-3)


def test_rate_linear_in_layers():
    base = ts38306_rate(Ts38306Params(mimo_layers=2))
    assert ts38306_rate(Ts38306Params(mimo_layers=4)) == pytest.approx(2 * base, rel=1e-12)


def test_rate_defaults_land_on_ladder_plateau():
    # Calibrated overhead folds duplexing and control; 5% agreement with
    # the measured top step is the contract.
    rate = ts38306_rate(Ts38306Params())
    assert abs(rate - TOP_MBPS) / TOP_MBPS < 0.05


def test_rate_formula_arithmetic():
    params = Ts38306Params(
        num_carriers=1, modulation_order=8, scaling_factor=1.0, mimo_layers=4,
        max_code_rate=948 / 1024, n_prb=273, symbol_duration_us=1000 / 28, overhead=0.14,
    )
    expected = 1e-6 * 8 * 4 * (948 / 1024) * 273 * 12 / (1000 / 28 * 1e-6) * 0.86
    assert ts38306_rate(params) == pytest.approx(expected, rel=1e-12)


def test_default_table_endpoints():
    table = default_table(100, 4)
    assert table.max_capacity_mbps == TOP_MBPS
    assert table.entries[0].capacity_mbps == BOTTOM_MBPS
    assert table.entries[0].sinr_threshold_db == pytest.approx(BOTTOM_ONSET_DB, abs=1e-9)


def test_default_table_scaling():
    table = default_table(400, 2)
    assert table.max_capacity_mbps == pytest.approx(TOP_MBPS * 4 * 0.5, rel=1e-12)
    assert table.thresholds_db == default_table(100, 4).thresholds_db


def test_non_monotone_table_rejected():
    with pytest.raises(NonMonotoneTable):
        CapacityTable(
            entries=(
                McsEntry(0, 0.0, 10.0),
                McsEntry(1, 5.0, 20.0),
                McsEntry(2, 3.0, 30.0),
            )
        )


def test_load_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "index,sinr_threshold_db,capacity_mbps\n0,-5.0,10.0\n1,5.0,20.0\n"
    )
    table = load_table(path)
    assert len(table.entries) == 2
    assert table.entries[1].threshold_linear == pytest.approx(10 ** 0.5)


def test_load_table_rejects_bad_rows(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n0,1,2\n")
    with pytest.raises(ParseError):
        load_table(bad_header)
    bad_cell = tmp_path / "c.csv"
    bad_cell.write_text("index,sinr_threshold_db,capacity_mbps\n0,x,2\n")
    with pytest.raises(ParseError):
        load_table(bad_cell)


@pytest.mark.parametrize(
    "threshold, capacity",
    [(float("nan"), 20.0), (float("inf"), 20.0), (5.0, float("nan")), (5.0, float("inf"))],
)
def test_non_finite_ladder_entries_rejected(tmp_path, threshold, capacity):
    # NaN fails every order comparison, so the monotonicity checks alone let it in.
    entries = (McsEntry(0, 0.0, 10.0), McsEntry(1, threshold, capacity))
    with pytest.raises(NonMonotoneTable, match="index 1"):
        CapacityTable(entries=entries)
    path = tmp_path / "t.csv"
    path.write_text(
        f"index,sinr_threshold_db,capacity_mbps\n0,0.0,10.0\n1,{threshold},{capacity}\n"
    )
    with pytest.raises(NonMonotoneTable, match="index 1"):
        load_table(path)


# -- lookups --------------------------------------------------------------------


def test_zero_interference_grants_top():
    table = default_table()
    level, cap = capacity_from_sinr(table, 1e-12, 0.0)
    assert cap == TOP_MBPS
    assert level == table.entries[-1].index


def test_low_sinr_grants_nothing():
    table = default_table()
    s = 10 ** (-10 / 10)  # SINR -10 dB
    level, cap = capacity_from_sinr(table, s, 1.0)
    assert (level, cap) == (None, 0.0)


def test_zero_signal_grants_nothing():
    assert capacity_from_sinr(default_table(), 0.0, 0.0) == (None, 0.0)


def test_threshold_is_inclusive():
    table = default_table()
    for entry in table.entries:
        level, cap = capacity_from_sinr(table, entry.threshold_linear * 1.0, 1.0)
        assert level == entry.index
        assert cap == entry.capacity_mbps


def test_lookup_monotone_in_signal_and_interference():
    table = default_table()
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = float(rng.uniform(0, 5))
        i = float(rng.uniform(1e-3, 2))
        _, c = capacity_from_sinr(table, s, i)
        _, c_up = capacity_from_sinr(table, s * 1.5, i)
        _, c_down = capacity_from_sinr(table, s, i * 1.5)
        assert c_up >= c
        assert c_down <= c


def test_equivalence_property_on_threshold_grid():
    # capacity(S, I) >= C_i iff S >= th_i * I, straddling every threshold.
    table = default_table()
    for entry in table.entries:
        for factor in (0.5, 0.999999, 1.0, 1.000001, 2.0):
            s = entry.threshold_linear * factor
            _, c = capacity_from_sinr(table, s, 1.0)
            assert (c >= entry.capacity_mbps) == (s >= entry.threshold_linear)


def test_lookup_is_exact_around_every_step():
    # Exactly at a step onset the step is granted; anywhere before it the
    # previous value holds.
    table = default_table()
    th = table.thresholds_db
    caps = table.capacities_mbps
    probes = [(th[0] - 1.0, 0.0)]
    for i in range(len(th)):
        probes.append((th[i], caps[i]))
        upper = th[i + 1] if i + 1 < len(th) else th[i] + 2.0
        probes.append(((th[i] + upper) / 2, caps[i]))
    for x, want in probes:
        _, c = capacity_from_sinr(table, 10 ** (x / 10), 1.0)
        assert c == want
