import pytest

from iabtopo.energy import (
    PowerModelParams,
    energy_efficiency,
    frontend_power,
    network_power,
    total_power,
)
from iabtopo.errors import InconsistentSolution, PowerOutOfRange, ZeroPower
from iabtopo.problem import NetworkSolution, SolveStatus

from conftest import two_unit_graph


def _solution(powers, activations, airtimes):
    return NetworkSolution(
        problem="energy",
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        chosen_edges=(),
        flows={},
        airtimes=airtimes,
        powers_mw=powers,
        activations=activations,
        capacities_mbps={},
        per_ue_mbps={},
    )


def test_sleep_branch():
    params = PowerModelParams()
    assert frontend_power(params, 0.0, 0.0) == params.n_trx * params.p_sleep_w


def test_micro_cell_worked_example():
    params = PowerModelParams(n_trx=2, p0_w=56.0, delta_p=2.6, p_sleep_w=39.0, p_max_w=6.3)
    assert frontend_power(params, 6.3, 1.0) == pytest.approx(128.38)


def test_idle_amplifier_draws_baseline_only():
    params = PowerModelParams()
    assert frontend_power(params, 3.0, 0.0) == params.n_trx * params.p0_w


def test_power_bounds_checked():
    params = PowerModelParams()
    with pytest.raises(PowerOutOfRange):
        frontend_power(params, 7.0, 0.5)
    with pytest.raises(PowerOutOfRange):
        frontend_power(params, 1.0, 1.5)


def test_monotone_in_power_and_airtime():
    params = PowerModelParams()
    base = frontend_power(params, 1.0, 0.5)
    assert frontend_power(params, 2.0, 0.5) >= base
    assert frontend_power(params, 1.0, 0.9) >= base


def test_total_power_all_sleeping():
    params = PowerModelParams()
    sol = _solution({1: 0.0, 11: 0.0}, {1: 0, 11: 0}, {})
    report = total_power(sol, params)
    assert report.total_w == pytest.approx(2 * params.n_trx * params.p_sleep_w)
    assert report.active_count == 0
    assert report.total_w == pytest.approx(sum(report.per_frontend_w.values()))


def test_total_power_matches_frontend_power():
    params = PowerModelParams()
    sol = _solution(
        {1: 6300.0, 11: 0.0},
        {1: 1, 11: 0},
        {(1, 20): 0.3, (1, 21): 0.2},
    )
    report = total_power(sol, params)
    expected_active = frontend_power(params, 6.3, 0.5)
    expected = expected_active + params.n_trx * params.p_sleep_w
    assert report.total_w == pytest.approx(expected, rel=1e-12)


def test_total_power_rejects_sleeping_transmitter():
    sol = _solution({1: 100.0}, {1: 0}, {})
    with pytest.raises(InconsistentSolution):
        total_power(sol, PowerModelParams())


def test_per_unit_adder_counts_active_units():
    g = two_unit_graph()
    params = PowerModelParams(p_active_unit_w=10.0)
    sol = _solution({1: 6300.0, 11: 0.0}, {1: 1, 11: 0}, {})
    with_adder = total_power(sol, params, g)
    without = total_power(sol, PowerModelParams(), g)
    assert with_adder.total_w == pytest.approx(without.total_w + 10.0)


def test_network_power_reads_plain_mappings():
    # total_power is network_power on a solution's own powers, activations
    # and airtimes.
    g = two_unit_graph()
    params = PowerModelParams(p_active_unit_w=10.0)
    powers, activations = {1: 6300.0, 11: 0.0}, {1: 1, 11: 0}
    airtimes = {(1, 20): 0.3, (1, 21): 0.2}
    report = network_power(powers, activations, airtimes, params, g)
    assert report == total_power(_solution(powers, activations, airtimes), params, g)
    expected = frontend_power(params, 6.3, 0.5) + params.n_trx * params.p_sleep_w + 10.0
    assert report.total_w == pytest.approx(expected, rel=1e-12)


def test_energy_efficiency():
    assert energy_efficiency(0.0, 100.0) == 0.0
    assert energy_efficiency(5.0, 100.0) == pytest.approx(0.05)
    assert energy_efficiency(10.0, 100.0) == pytest.approx(2 * energy_efficiency(5.0, 100.0))
    with pytest.raises(ZeroPower):
        energy_efficiency(5.0, 0.0)
