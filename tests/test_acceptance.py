"""Acceptance suite: one test per headline criterion, each printing a
PASS line with the checked values (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import pytest

from oesnn.cli import main as cli_main
from oesnn.config import build_scenario, load_scenario
from oesnn.linkbudget import (
    ReceiverlessPhotodiode,
    implied_photon_count,
    link_source_energy,
    photons_for_reliability,
    receiverless_optical_energy,
    snspd_reset_energy,
)
from oesnn.membench import (
    DEFAULT_ASSUMPTIONS,
    GOAL_TABLE,
    SystemAssumptions,
    lifetime_updates,
    max_update_energy,
    targets,
)
from oesnn.netgen import validate_path_model
from oesnn.platforms import (
    SUPERCONDUCTING_4K,
    carnot_specific_power,
    cmos_max_time_constant,
    fluxon_budget,
    max_average_spike_rate,
    power_density_spike_limit,
    sc_max_time_constant,
    squid_from_critical_current,
    wall_power,
)
from oesnn.quantities import ENERGY, Quantity, photon_energy
from oesnn.scaling import achievable_path_length, required_degree, required_planes
from oesnn.simulator import run

import numpy as np


def _ok(number, message):
    print(f"ACCEPTANCE {number:>2} PASS - {message}")


def test_criterion_01_single_photon_link_chain():
    n_ph = photons_for_reliability(0.99, 0.7)
    assert n_ph == pytest.approx(6.579, abs=1e-3)
    assert math.ceil(n_ph) == 7
    energy = (7 * photon_energy(1.5e-6)).value
    assert energy == pytest.approx(0.927e-18, rel=1e-3)
    assert abs(energy - 0.9e-18) / 0.9e-18 <= 0.05
    _ok(1, f"photons(0.99, 0.7) = {n_ph:.3f} (ceil 7), 7-photon energy {energy:.3e} J")


def test_criterion_02_receiverless_energy_and_photons():
    pd = ReceiverlessPhotodiode()  # 1 fF, 0.8 V, quantum-limited responsivity
    energy = receiverless_optical_energy(pd, 1.0, 1.5e-6).value
    photons = implied_photon_count(pd, 1.5e-6)
    assert abs(energy - 0.7e-15) / 0.7e-15 <= 0.15
    assert abs(photons - 5000) / 5000 <= 0.05
    _ok(2, f"charging energy {energy:.3e} J, {photons:.0f} photons")


def test_criterion_03_reset_energy_and_wall_floor():
    reset = snspd_reset_energy(100e-9, 10e-6)
    assert reset.value == 5e-18
    wall = wall_power(Quantity(reset.value, ENERGY), SUPERCONDUCTING_4K.specific_power)
    assert wall.value >= 1e-15
    _ok(3, f"reset energy {reset.value:.3e} J, wall energy {wall.value:.3e} J >= 1 fJ")


def test_criterion_04_squid_sizing_and_fluxon_budget():
    s = squid_from_critical_current(300e-6)
    assert s.w_sq.value == pytest.approx(2.19e-6, rel=0.02)
    assert s.e_sq.value == pytest.approx(1.24e-18, rel=0.02)
    budget = fluxon_budget(100e-18, 300e-6)
    assert budget == pytest.approx(161, abs=1)
    assert abs(budget - 170) / 170 <= 0.10
    _ok(4, f"w_sq {s.w_sq.value:.3e} m, E_sq {s.e_sq.value:.3e} J, budget {budget:.1f} fluxons")


def test_criterion_05_degree_model_anchors():
    assert required_degree(1e6, 3) == pytest.approx(199.7, rel=0.01)
    assert required_degree(1e8, 2) > 1e5
    assert required_degree(1e8, 3) > 1e3
    path = achievable_path_length(1e6, 100)
    assert path == pytest.approx(3.37, abs=5e-3)
    assert abs(path - 3.5) / 3.5 <= 0.05
    _ok(
        5,
        f"degree(1e6, 3) = {required_degree(1e6, 3):.1f}, degree(1e8, 2) = "
        f"{required_degree(1e8, 2):.3g}, path(1e6, 100) = {path:.2f}",
    )


def test_criterion_06_plane_counts():
    thin = required_planes(1e6, 2.5, w_sy=10e-6)
    assert 0.9 <= thin.p_e <= 1.3
    wide = required_planes(1e6, 2.5, w_sy=30e-6)
    assert 8 <= wide.p_e <= 11
    photonic = required_planes(1e6, 2.5, w_wg=2e-6)
    assert 4.5 <= photonic.p_p <= 7
    _ok(
        6,
        f"p_e(10 um) = {thin.p_e:.2f}, p_e(30 um) = {wide.p_e:.2f}, "
        f"p_p(2 um) = {photonic.p_p:.2f}",
    )


def test_criterion_07_memory_targets():
    updates = lifetime_updates(SystemAssumptions(lifetime=1e9, mean_rate=10e3, fanin=1000))
    assert updates == pytest.approx(3.16e11, rel=1e-3)
    assert 1e11 <= updates < 1e12
    energy = max_update_energy(SystemAssumptions(fanin=1000, e_opt=100e-15)).value
    assert energy == pytest.approx(3.16e-12, rel=1e-3)
    t = targets(DEFAULT_ASSUMPTIONS)
    assert t.update_time == GOAL_TABLE["update_time"] == 100e-9
    assert t.update_energy == pytest.approx(GOAL_TABLE["update_energy"], rel=0.06)
    assert 10 ** math.floor(math.log10(t.endurance)) == GOAL_TABLE["endurance"]
    assert t.precision_bits == GOAL_TABLE["precision_bits"] == (4, 8)
    _ok(7, f"lifetime updates {updates:.3g}, max update energy {energy:.3g} J, goal table regenerated")


def test_criterion_08_empirical_path_length_oracle():
    start = time.monotonic()
    rows = validate_path_model([2000], [16], seeds=10, base_seed=0)
    elapsed = time.monotonic() - start
    row = rows[0]
    assert row["rel_error"] <= 0.15
    # Pinned anchor for this configuration; the measurement must sit
    # within the same tolerance of it.
    assert abs(row["empirical_mean"] - 2.76) / 2.76 <= 0.15
    assert elapsed < 60
    _ok(
        8,
        f"BFS mean {row['empirical_mean']:.3f} vs prediction {row['predicted']:.3f} "
        f"(rel {row['rel_error']:.3f}) in {elapsed:.1f} s",
    )


def test_criterion_09_bernoulli_link_statistics():
    start = time.monotonic()
    graph, config = build_scenario(load_scenario("poisson-link"))
    _, ledger, report = run(graph, config)
    elapsed = time.monotonic() - start
    trials = 100_000
    assert report.detections[0] + report.misses[0] == trials
    assert report.suppressed[0] == 0
    fraction = report.detections[0] / trials
    p = 1 - math.exp(-config.link.n_ph * config.link.receiver.eta_d)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(fraction - 0.99) <= 3 * sigma
    assert elapsed < 10
    _ok(9, f"detected fraction {fraction:.5f} vs 0.99 (3 sigma = {3 * sigma:.2e}) in {elapsed:.1f} s")


def test_criterion_10_ledger_exactness_and_reproducibility(tmp_path, capsys):
    start = time.monotonic()
    graph, config = build_scenario(load_scenario("ledger-fanout"))
    _, ledger, _ = run(graph, config)
    expected = 1000 * 10 * (7 * photon_energy(1.5e-6).value / 0.01)
    assert expected == pytest.approx(0.927e-12, rel=1e-3)
    assert abs(ledger.source_optical - expected) / expected <= 1e-9
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", "ledger-fanout", "--out", str(a)]) == 0
    assert cli_main(["simulate", "--config", "ledger-fanout", "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "spikes.csv").read_bytes() == (b / "spikes.csv").read_bytes()
    assert (a / "ledger.json").read_bytes() == (b / "ledger.json").read_bytes()
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _ok(10, f"source optical {ledger.source_optical:.6e} J exact, reruns byte-identical, {elapsed:.1f} s")


def test_criterion_11_time_constants():
    cmos = cmos_max_time_constant(10e-6).value
    assert cmos == pytest.approx(5.0, rel=0.01)
    sc = sc_max_time_constant(30e-6).value
    assert sc == pytest.approx(324.0, rel=0.01)
    grid = np.logspace(-6, -3, 20)
    above = [float(w) for w in grid if w > 10e-6]
    assert above, "grid must reach above 10 um"
    for w in above:
        assert sc_max_time_constant(w).value > cmos_max_time_constant(w).value
    _ok(11, f"cmos(10 um) = {cmos:.2f} s, sc(30 um) = {sc:.1f} s, sc dominates {len(above)} grid widths")


def test_criterion_12_cooling_and_power_density():
    assert carnot_specific_power(300, 4.0) == pytest.approx(74.0, abs=0.1)
    assert carnot_specific_power(300, 4.2) == pytest.approx(70.4, abs=0.1)
    sc_event = link_source_energy(7, 1.5e-6, 1e-4).value
    f_sc = power_density_spike_limit(30e-6, sc_event, 1e4).value
    assert 0.6e9 <= f_sc <= 1.6e9
    semi_event = receiverless_optical_energy(ReceiverlessPhotodiode(), 1e-3).value
    f_semi = power_density_spike_limit(10e-6, semi_event, 1e7).value
    assert 0.6e9 <= f_semi <= 1.6e9
    _ok(
        12,
        f"carnot 74.0 / 70.4 W/W; density-limited rates {f_sc / 1e9:.2f} GHz (sc), "
        f"{f_semi / 1e9:.2f} GHz (semi)",
    )


def test_criterion_13_budget_rate_point():
    rate = max_average_spike_rate(10e6, 1e10, 1e3, 1e-15 / 1e-5).value
    assert rate == pytest.approx(10e3, rel=1e-9)
    _ok(13, f"10 MW budget at eta = 1e-5 supports {rate:.3g} Hz mean rate")
