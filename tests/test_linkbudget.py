import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oesnn.errors import DimensionError, DomainError, InfeasibleError
from oesnn.linkbudget import (
    POISSON_MEAN_MAX,
    OpticalLink,
    ReceiverlessPhotodiode,
    SnspdReceiver,
    implied_photon_count,
    link_detection_probability,
    link_source_energy,
    miss_probability,
    photodiode_static_power,
    photons_for_reliability,
    receiverless_optical_energy,
    snspd_reset_energy,
    source_energy_per_spike,
    static_dominance_frequency,
    transmitter_power,
)
from oesnn.quantities import ENERGY, POWER, Quantity, TIME


class TestMissProbability:
    def test_no_photons_certain_miss(self):
        assert miss_probability(0, 0.7) == 1.0

    def test_one_percent_point(self):
        # ~7 photons at 70% efficiency leave a 1% miss probability
        assert miss_probability(6.579, 0.7) == pytest.approx(0.01, rel=2e-4)

    def test_perfect_efficiency(self):
        assert miss_probability(4.605, 1.0) == pytest.approx(0.01, rel=2e-4)
        assert miss_probability(math.log(100), 1.0) == pytest.approx(0.01, rel=1e-12)

    def test_negative_photons_rejected(self):
        with pytest.raises(DomainError):
            miss_probability(-1, 0.7)

    @given(
        n=st.floats(min_value=0.01, max_value=50),
        eta=st.floats(min_value=0.01, max_value=1.0),
        bump=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_strictly_decreasing(self, n, eta, bump):
        assert miss_probability(n + bump, eta) < miss_probability(n, eta)
        if eta + 1e-3 <= 1.0:
            assert miss_probability(n, eta + 1e-3) < miss_probability(n, eta)


class TestPhotonsForReliability:
    def test_headline_point(self):
        n = photons_for_reliability(0.99, 0.7)
        assert n == pytest.approx(6.579, abs=1e-3)
        assert math.ceil(n) == 7

    def test_zero_reliability(self):
        assert photons_for_reliability(0.0, 0.3) == 0.0

    def test_unit_efficiency(self):
        assert photons_for_reliability(0.99, 1.0) == pytest.approx(math.log(100), rel=1e-12)

    def test_certainty_infeasible(self):
        with pytest.raises(InfeasibleError):
            photons_for_reliability(1.0, 0.7)

    @given(
        p=st.floats(min_value=0.0, max_value=0.999),
        eta=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_roundtrip_with_miss_probability(self, p, eta):
        n = photons_for_reliability(p, eta)
        assert miss_probability(n, eta) == pytest.approx(1.0 - p, rel=1e-9, abs=1e-12)


class TestLinkSourceEnergy:
    def test_lossless(self):
        e = link_source_energy(7, 1.5e-6, 1.0)
        assert e.dim == ENERGY
        assert e.value == pytest.approx(9.270080666695e-19, rel=1e-12)
        assert e.value == pytest.approx(0.9e-18, rel=0.05)

    def test_one_percent_link(self):
        e = link_source_energy(7, 1.5e-6, 0.01)
        assert e.value == pytest.approx(9.270080666695e-17, rel=1e-12)
        assert e.value == pytest.approx(100e-18, rel=0.1)

    def test_inverse_in_eta(self):
        assert link_source_energy(7, 1.5e-6, 0.5).value == pytest.approx(
            2 * link_source_energy(7, 1.5e-6, 1.0).value, rel=1e-12
        )

    def test_bad_eta(self):
        with pytest.raises(DomainError):
            link_source_energy(7, 1.5e-6, 0.0)


class TestSnspdResetEnergy:
    def test_headline_point(self):
        assert snspd_reset_energy(100e-9, 10e-6).value == 5e-18

    def test_zero_inductance(self):
        assert snspd_reset_energy(0.0, 123e-6).value == 0.0

    def test_linear_in_inductance(self):
        assert snspd_reset_energy(200e-9, 10e-6).value == pytest.approx(1e-17, rel=1e-12)

    @given(l=st.floats(min_value=1e-12, max_value=1e-3), i=st.floats(min_value=1e-9, max_value=1e-2))
    def test_invariant_under_l4_i_half(self, l, i):
        assert snspd_reset_energy(4 * l, i / 2).value == pytest.approx(
            snspd_reset_energy(l, i).value, rel=1e-12
        )

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            snspd_reset_energy(Quantity(1.0, TIME), 10e-6)


class TestReceiverlessEnergy:
    def test_quantum_limited_defaults(self):
        pd = ReceiverlessPhotodiode()
        e = receiverless_optical_energy(pd, 1.0)
        assert e.value == pytest.approx(6.612490583104015e-16, rel=1e-12)
        assert e.value == pytest.approx(0.7e-15, rel=0.15)
        photons = implied_photon_count(pd)
        assert photons == pytest.approx(4993.2, rel=1e-4)
        assert photons == pytest.approx(5000, rel=0.05)

    def test_unit_responsivity(self):
        pd = ReceiverlessPhotodiode(responsivity=1.0)
        assert receiverless_optical_energy(pd, 1.0).value == pytest.approx(0.8e-15, rel=1e-12)

    def test_half_eta_doubles(self):
        pd = ReceiverlessPhotodiode()
        assert receiverless_optical_energy(pd, 0.5).value == pytest.approx(
            2 * receiverless_optical_energy(pd, 1.0).value, rel=1e-12
        )


class TestStaticPower:
    def test_nanoamp(self):
        pd = ReceiverlessPhotodiode(v_bias=1.0, i_leak=1e-9)
        p = photodiode_static_power(pd)
        assert p.dim == POWER
        assert p.value == pytest.approx(1e-9, rel=1e-12)

    def test_zero_leakage(self):
        assert photodiode_static_power(ReceiverlessPhotodiode(i_leak=0.0)).value == 0.0

    def test_avalanche_regime(self):
        pd = ReceiverlessPhotodiode(v_bias=1.5, i_leak=1e-6)
        assert photodiode_static_power(pd).value == pytest.approx(1.5e-6, rel=1e-12)


class TestStaticDominance:
    def test_crossover_near_ten_khz(self):
        pd = ReceiverlessPhotodiode()
        link = OpticalLink(eta=0.01, receiver=pd)
        f = static_dominance_frequency(pd, link)
        assert f.value == pytest.approx(15.12e3, rel=1e-3)
        # same order as the 10 kHz regime boundary
        assert 1e3 < f.value < 1e5

    def test_zero_leakage_zero_crossover(self):
        pd = ReceiverlessPhotodiode(i_leak=0.0)
        link = OpticalLink(eta=0.01, receiver=pd)
        assert static_dominance_frequency(pd, link).value == 0.0

    def test_linear_in_leakage(self):
        base = ReceiverlessPhotodiode(i_leak=1e-9)
        doubled = ReceiverlessPhotodiode(i_leak=2e-9)
        link = OpticalLink(eta=0.01, receiver=base)
        link2 = OpticalLink(eta=0.01, receiver=doubled)
        assert static_dominance_frequency(doubled, link2).value == pytest.approx(
            2 * static_dominance_frequency(base, link).value, rel=1e-12
        )


class TestTransmitterPower:
    def test_megahertz_point(self):
        pd = ReceiverlessPhotodiode()
        e_rx = receiverless_optical_energy(pd, 1.0)
        p = transmitter_power(1000, e_rx, 1e6, 1.0)
        assert p.value == pytest.approx(0.6612490583104015e-6, rel=1e-12)

    def test_linear_in_rate(self):
        pd = ReceiverlessPhotodiode()
        e_rx = receiverless_optical_energy(pd, 1.0)
        assert transmitter_power(1000, e_rx, 1e9, 1.0).value == pytest.approx(
            1e3 * transmitter_power(1000, e_rx, 1e6, 1.0).value, rel=1e-12
        )

    def test_zero_fanout(self):
        assert transmitter_power(0, Quantity(1e-15, ENERGY), 1e6, 1.0).value == 0.0


def test_receiver_energy_scales_as_inverse_eta_loglog():
    pd = ReceiverlessPhotodiode()
    etas = np.logspace(-4, 0, 9)
    semi = [receiverless_optical_energy(pd, e).value for e in etas]
    snspd = [link_source_energy(7, 1.5e-6, e).value for e in etas]
    for values in (semi, snspd):
        slope = np.polyfit(np.log(etas), np.log(values), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-9)


def test_superconducting_source_energy_three_orders_below_semiconductor():
    n_ph = photons_for_reliability(0.99, 0.7)
    for eta in (1.0, 0.1, 0.01):
        sc = link_source_energy(n_ph, 1.5e-6, eta).value
        semi = receiverless_optical_energy(ReceiverlessPhotodiode(), eta).value
        assert 300 <= semi / sc <= 3000


class TestLinkModel:
    def test_invariants(self):
        with pytest.raises(DomainError):
            OpticalLink(eta=0.0)
        with pytest.raises(DomainError):
            OpticalLink(n_ph=-1.0)
        with pytest.raises(DomainError):
            SnspdReceiver(eta_d=0.0)
        with pytest.raises(DomainError):
            ReceiverlessPhotodiode(c_tot=0.0)

    def test_default_dead_time_from_count_rate(self):
        assert SnspdReceiver().reset_time == pytest.approx(50e-9, rel=1e-12)
        assert SnspdReceiver(max_count_rate=1e9).reset_time == pytest.approx(1e-9, rel=1e-12)

    def test_stochastic_defaults(self):
        assert OpticalLink(n_ph=7.0).stochastic is True
        assert OpticalLink(receiver=ReceiverlessPhotodiode()).stochastic is False

    def test_source_energy_dispatch(self):
        sc_link = OpticalLink(eta=0.01, n_ph=7.0)
        assert source_energy_per_spike(sc_link).value == pytest.approx(9.270080666695e-17, rel=1e-12)
        pd_link = OpticalLink(eta=0.01, receiver=ReceiverlessPhotodiode())
        assert source_energy_per_spike(pd_link).value == pytest.approx(6.612490583104015e-14, rel=1e-12)

    def test_detection_probability_models(self):
        sc_link = OpticalLink(n_ph=4.605, receiver=SnspdReceiver(eta_d=1.0))
        assert link_detection_probability(sc_link) == pytest.approx(0.99, rel=1e-3)
        det = OpticalLink(n_ph=7.0, stochastic=False)
        assert link_detection_probability(det) == 1.0
        # Photodiode threshold statistics: mean photons at the exact
        # requirement put detection near one half.
        pd = ReceiverlessPhotodiode()
        need = implied_photon_count(pd)
        pd_link = OpticalLink(receiver=pd, n_ph=need, stochastic=True)
        assert link_detection_probability(pd_link) == pytest.approx(0.5, abs=0.02)
        # Well above the requirement detection is near-certain.
        rich = OpticalLink(receiver=pd, n_ph=need * 1.2, stochastic=True)
        assert link_detection_probability(rich) > 0.999


def _full_poisson_tail(mean: float, need: int) -> float:
    """P(Poisson(mean) >= need) from every log-space CDF term below ``need``, as the detection
    probability of a stochastic photodiode was summed before its loop was bounded."""
    log_mean, log_cdf = math.log(mean), -math.inf
    for k in range(need):
        log_term = -mean + k * log_mean - math.lgamma(k + 1)
        log_cdf = max(log_cdf, log_term) + math.log1p(math.exp(-abs(log_cdf - log_term)))
    return max(0.0, -math.expm1(log_cdf))


class TestPhotodiodeDetectionWindow:
    # Charging thresholds of 5 to 49,933 photons, and means from far below the threshold to far above it.
    # From 4,994 photons up, the window cuts the sum on the right (0.01), on both sides (0.5 to 1.1), or
    # ends it at once (2.0, 10.0).
    @pytest.mark.parametrize("c_tot", [1e-18, 1e-17, 1e-16, 1e-15, 1e-14])
    def test_window_matches_the_full_sum(self, c_tot):
        pd = ReceiverlessPhotodiode(c_tot=c_tot)
        need = math.ceil(implied_photon_count(pd))
        for share in (0.01, 0.5, 0.9, 0.97, 1.0, 1.03, 1.1, 2.0, 10.0):
            link = OpticalLink(receiver=pd, n_ph=need * share, eta=1.0, stochastic=True)
            assert link_detection_probability(link).hex() == _full_poisson_tail(need * share, need).hex(), share

    def test_picofarad_threshold_is_fast(self):
        # 4,993,208 photons charge 1 pF; the full sum takes seconds and gives this value.
        pd = ReceiverlessPhotodiode(c_tot=1e-12)
        link = OpticalLink(receiver=pd, n_ph=implied_photon_count(pd), eta=1.0, stochastic=True)
        start = time.perf_counter()
        probability = link_detection_probability(link)
        assert time.perf_counter() - start < 0.2
        assert probability.hex() == "0x1.ffecf2b7e24d5p-2"


class TestPoissonMeanBound:
    def test_stochastic_photodiode_photons_bounded(self):
        pd = ReceiverlessPhotodiode()
        OpticalLink(n_ph=POISSON_MEAN_MAX, receiver=pd, stochastic=True)
        np.random.default_rng(0).poisson(POISSON_MEAN_MAX)  # the largest mean still draws
        with pytest.raises(DomainError, match="n_ph: a stochastic photodiode link takes at most"):
            OpticalLink(n_ph=math.nextafter(POISSON_MEAN_MAX, math.inf), receiver=pd, stochastic=True)
        with pytest.raises(DomainError, match="got 1e[+]30"):
            OpticalLink(n_ph=1e30, receiver=pd, stochastic=True)
        # Deterministic photodiodes and single-photon detectors draw no Poisson count.
        OpticalLink(n_ph=1e30, receiver=pd, stochastic=False)
        OpticalLink(n_ph=1e30, receiver=SnspdReceiver(), stochastic=True)
