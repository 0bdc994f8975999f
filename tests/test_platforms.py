import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oesnn.errors import DomainError
from oesnn.platforms import (
    PROFILES,
    SEMICONDUCTOR_300K,
    SUPERCONDUCTING_4K,
    CmosTimeConstantSpec,
    PlatformProfile,
    ScTimeConstantSpec,
    carnot_specific_power,
    cmos_max_time_constant,
    dpi_time_constant,
    fluxon_budget,
    max_average_spike_rate,
    meander_inductance,
    parallel_resistance,
    power_density_spike_limit,
    sc_max_time_constant,
    squid_from_critical_current,
    wall_power,
)
from oesnn.quantities import ENERGY, FLUX_QUANTUM, POWER, Quantity


class TestCarnot:
    def test_four_kelvin(self):
        assert carnot_specific_power(300, 4.0) == pytest.approx(74.0, abs=1e-9)

    def test_liquid_helium(self):
        assert carnot_specific_power(300, 4.2) == pytest.approx(70.43, abs=0.01)

    def test_no_gradient(self):
        assert carnot_specific_power(300, 300) == 0.0

    def test_ordering_violation(self):
        with pytest.raises(DomainError):
            carnot_specific_power(4.0, 300)


class TestWallPower:
    def test_energy_inflation(self):
        w = wall_power(Quantity(1e-18, ENERGY), SUPERCONDUCTING_4K.specific_power)
        assert w.dim == ENERGY
        assert w.value == pytest.approx(1e-15, rel=1e-12)

    def test_identity_for_room_temperature(self):
        assert wall_power(3.0, SEMICONDUCTOR_300K.specific_power).value == 3.0

    def test_linearity(self):
        assert wall_power(Quantity(5e-18, ENERGY), SUPERCONDUCTING_4K.specific_power).value == pytest.approx(
            5e-15, rel=1e-12
        )

    def test_power_dimension_default(self):
        assert wall_power(2.0, SUPERCONDUCTING_4K.specific_power).dim == POWER


class TestProfiles:
    def test_builtins_registered(self):
        assert set(PROFILES) == {"superconducting-4K", "semiconductor-300K"}
        assert SUPERCONDUCTING_4K.specific_power == 1000.0
        assert SEMICONDUCTOR_300K.specific_power == 1.0

    def test_specific_power_floor_enforced(self):
        with pytest.raises(DomainError):
            PlatformProfile(
                name="x",
                kind="superconducting",
                specific_power=10.0,  # below the ~70 W/W floor at 4.2 K
                t_hot=300.0,
                t_cold=4.2,
                power_density_limit=1e4,
            )

    def test_builtin_profiles_respect_floor(self):
        for profile in PROFILES.values():
            assert profile.specific_power >= carnot_specific_power(profile.t_hot, profile.t_cold)


class TestBudgetRate:
    def test_unit_efficiency_point(self):
        f = max_average_spike_rate(10e6, 1e10, 1e3, 1e-15)
        assert f.value == pytest.approx(1e9, rel=1e-12)

    def test_one_percent_point(self):
        assert max_average_spike_rate(10e6, 1e10, 1e3, 100e-15).value == pytest.approx(1e7, rel=1e-12)

    def test_inverse_in_population(self):
        assert max_average_spike_rate(10e6, 2e10, 1e3, 1e-15).value == pytest.approx(0.5e9, rel=1e-12)

    @given(
        scale=st.floats(min_value=0.1, max_value=10),
        which=st.sampled_from(["n", "k", "e"]),
    )
    def test_homogeneous_degree_minus_one(self, scale, which):
        base = max_average_spike_rate(10e6, 1e8, 1e3, 1e-15).value
        args = {"n": 1e8, "k": 1e3, "e": 1e-15}
        args[which] *= scale
        scaled = max_average_spike_rate(10e6, args["n"], args["k"], args["e"]).value
        assert scaled == pytest.approx(base / scale, rel=1e-9)


class TestPowerDensityLimit:
    def test_superconducting_point(self):
        e = 7 * 1.3242972380992857e-19 / 1e-4  # 7-photon link at eta = 1e-4
        f = power_density_spike_limit(30e-6, e, 1e4)
        assert f.value == pytest.approx(0.971e9, rel=1e-3)
        assert 0.6e9 <= f.value <= 1.6e9

    def test_semiconductor_point(self):
        e = 6.612490583104015e-16 / 1e-3  # receiverless link at eta = 1e-3
        f = power_density_spike_limit(10e-6, e, 1e7)
        assert f.value == pytest.approx(1.512e9, rel=1e-3)
        assert 0.6e9 <= f.value <= 1.6e9

    def test_quadratic_in_width(self):
        assert power_density_spike_limit(60e-6, 1e-15, 1e4).value == pytest.approx(
            4 * power_density_spike_limit(30e-6, 1e-15, 1e4).value, rel=1e-12
        )


class TestSquid:
    def test_headline_sizing(self):
        s = squid_from_critical_current(300e-6)
        assert s.w_sq.value == pytest.approx(2.194e-6, rel=1e-3)
        assert s.w_sq.value == pytest.approx(2.2e-6, rel=0.02)
        assert s.e_sq.value == pytest.approx(1.2407e-18, rel=1e-3)
        assert s.e_sq.value == pytest.approx(1.2e-18, rel=0.05)

    def test_scaling_with_current(self):
        base = squid_from_critical_current(300e-6)
        doubled = squid_from_critical_current(600e-6)
        assert doubled.w_sq.value == pytest.approx(base.w_sq.value / 2, rel=1e-12)
        assert doubled.e_sq.value == pytest.approx(2 * base.e_sq.value, rel=1e-12)

    def test_half_current(self):
        assert squid_from_critical_current(150e-6).w_sq.value == pytest.approx(4.39e-6, rel=1e-2)

    @given(i_c=st.floats(min_value=1e-6, max_value=1e-2))
    def test_design_criterion_holds(self, i_c):
        s = squid_from_critical_current(i_c)
        assert 2 * s.l_sq.value * s.i_c.value == pytest.approx(FLUX_QUANTUM.value, rel=1e-9)


class TestFluxonBudget:
    def test_hundred_attojoule_budget(self):
        n = fluxon_budget(100e-18, 300e-6)
        assert n == pytest.approx(161.2, abs=0.5)
        assert n == pytest.approx(170, rel=0.1)

    def test_zero_budget(self):
        assert fluxon_budget(0.0, 300e-6) == 0.0

    def test_two_fluxons_per_pair_energy(self):
        e_sq = squid_from_critical_current(300e-6).e_sq.value
        assert fluxon_budget(e_sq, 300e-6) == pytest.approx(2.0, rel=1e-9)


class TestTimeConstants:
    def test_dpi_seconds_scale(self):
        assert dpi_time_constant(2e-12, 25e-3, 1.0, 10e-15).value == pytest.approx(5.0, rel=1e-9)

    def test_dpi_linear_in_capacitance(self):
        assert dpi_time_constant(4e-12, 25e-3, 1.0, 10e-15).value == pytest.approx(10.0, rel=1e-9)

    def test_cmos_one_micron(self):
        assert cmos_max_time_constant(1e-6).value == pytest.approx(50e-3, rel=1e-9)

    def test_cmos_ten_micron(self):
        assert cmos_max_time_constant(10e-6).value == pytest.approx(5.0, rel=1e-9)

    def test_sc_thirty_micron(self):
        assert meander_inductance(30e-6).value == pytest.approx(7.2e-6, rel=1e-9)
        assert parallel_resistance(30e-6).value == pytest.approx(22.2e-9, rel=2e-3)
        assert sc_max_time_constant(30e-6).value == pytest.approx(324.0, rel=1e-9)

    def test_sc_fourth_power(self):
        assert sc_max_time_constant(3e-6).value == pytest.approx(32.4e-3, rel=1e-9)

    def test_crossover_location(self):
        # Quadratic CMOS vs quartic superconducting scaling cross between
        # 10 um and 13 um with the default parameters.
        low, high = 10e-6, 12.74e-6
        assert cmos_max_time_constant(low).value > sc_max_time_constant(low).value
        assert cmos_max_time_constant(high).value < sc_max_time_constant(high).value

    def test_sc_exceeds_cmos_on_grid_above_ten_micron(self):
        grid = np.logspace(-6, -3, 20)
        above = grid[grid > 10e-6]
        assert above.size >= 8
        for w in above:
            assert sc_max_time_constant(float(w)).value > cmos_max_time_constant(float(w)).value

    @pytest.mark.parametrize("model", [cmos_max_time_constant, sc_max_time_constant])
    @pytest.mark.parametrize("w", [1e150, 2.8453629175014606e153, 1e-200])
    def test_footprint_out_of_float_range_is_domain_error(self, model, w):
        # Widths where a model's value overflows to inf or underflows to 0 (or a division by 0).
        with pytest.raises(DomainError, match="out of float range"):
            model(w)

    def test_kappa_range_enforced(self):
        with pytest.raises(DomainError):
            CmosTimeConstantSpec(kappa=2.5)
        with pytest.raises(DomainError):
            ScTimeConstantSpec(w_wire=0.0)
