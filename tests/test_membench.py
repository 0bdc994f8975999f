import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oesnn.errors import ConfigError, DomainError
from oesnn.membench import (
    DEFAULT_ASSUMPTIONS,
    GOAL_TABLE,
    MemoryTechSpec,
    SystemAssumptions,
    lifetime_updates,
    load_technologies,
    max_update_energy,
    score_technology,
    targets,
)


class TestLifetimeUpdates:
    def test_default_point(self):
        n = lifetime_updates(SystemAssumptions(lifetime=1e9, mean_rate=10e3, fanin=1000))
        assert n == pytest.approx(3.162e11, rel=1e-3)
        assert 1e11 <= n < 1e12  # order of magnitude

    def test_zero_rate(self):
        # mean_rate must stay positive; approach zero instead
        tiny = lifetime_updates(SystemAssumptions(mean_rate=1e-9))
        assert tiny == pytest.approx(1e-9 * 1e9 / math.sqrt(1000), rel=1e-12)

    def test_sqrt_fanin(self):
        base = lifetime_updates(SystemAssumptions(fanin=1000))
        assert lifetime_updates(SystemAssumptions(fanin=4000)) == pytest.approx(base / 2, rel=1e-12)


class TestMaxUpdateEnergy:
    def test_default_point(self):
        e = max_update_energy(SystemAssumptions(fanin=1000, e_opt=100e-15))
        assert e.value == pytest.approx(3.162e-12, rel=1e-3)
        assert e.value == pytest.approx(3e-12, rel=0.1)

    def test_unit_fanin(self):
        assert max_update_energy(SystemAssumptions(fanin=1, e_opt=5e-15)).value == pytest.approx(
            5e-15, rel=1e-12
        )

    def test_scales_with_eopt(self):
        assert max_update_energy(SystemAssumptions(e_opt=200e-15)).value == pytest.approx(
            2 * max_update_energy(SystemAssumptions(e_opt=100e-15)).value, rel=1e-12
        )


class TestTargets:
    def test_goal_table_regenerates_under_defaults(self):
        t = targets(DEFAULT_ASSUMPTIONS)
        # Speed goal is exact; energy and endurance goals are the
        # round-number forms of the computed values.
        assert t.update_time == GOAL_TABLE["update_time"] == 100e-9
        assert t.update_energy == pytest.approx(GOAL_TABLE["update_energy"], rel=0.06)
        assert 10 ** math.floor(math.log10(t.endurance)) == GOAL_TABLE["endurance"]
        assert t.precision_bits == GOAL_TABLE["precision_bits"] == (4, 8)

    def test_exact_values(self):
        t = targets(DEFAULT_ASSUMPTIONS)
        assert t.endurance == pytest.approx(3.1622776601683795e11, rel=1e-12)
        assert t.update_energy == pytest.approx(3.1622776601683794e-12, rel=1e-12)


class TestScoring:
    def test_loop_memory_all_pass(self):
        tech = MemoryTechSpec(
            name="loop", endurance=1e15, update_energy=1.2e-18, update_time=1e-9, precision_bits=10
        )
        report = score_technology(tech)
        assert report.verdict == "pass"
        assert all(m.verdict == "pass" for m in report.metrics)
        precision = [m for m in report.metrics if m.metric == "precision_bits"][0]
        assert precision.note  # advisory: above the desired range

    def test_slow_update_fails_speed(self):
        tech = MemoryTechSpec(
            name="slow", endurance=1e15, update_energy=1e-15, update_time=50e-6, precision_bits=6
        )
        report = score_technology(tech)
        speed = [m for m in report.metrics if m.metric == "update_time"][0]
        assert speed.verdict == "fail"
        assert report.verdict == "fail"

    def test_boundary_values_pass(self):
        t = targets(DEFAULT_ASSUMPTIONS)
        tech = MemoryTechSpec(
            name="boundary",
            endurance=t.endurance,
            update_energy=t.update_energy,
            update_time=t.update_time,
            precision_bits=4,
        )
        report = score_technology(tech)
        assert report.verdict == "pass"
        for m in report.metrics:
            assert m.margin == pytest.approx(1.0, rel=1e-12)

    def test_null_fields_score_unknown(self):
        tech = MemoryTechSpec(name="sparse", update_energy=1e-15)
        report = score_technology(tech)
        by_name = {m.metric: m for m in report.metrics}
        assert by_name["endurance"].verdict == "unknown"
        assert by_name["update_time"].verdict == "unknown"
        assert by_name["update_energy"].verdict == "pass"
        assert report.verdict == "unknown"

    @given(
        endurance=st.floats(min_value=1e6, max_value=1e20),
        energy=st.floats(min_value=1e-20, max_value=1e-9),
        time=st.floats(min_value=1e-12, max_value=1e-3),
    )
    def test_margin_pass_equivalence(self, endurance, energy, time):
        tech = MemoryTechSpec(
            name="x", endurance=endurance, update_energy=energy, update_time=time, precision_bits=5
        )
        report = score_technology(tech)
        for m in report.metrics:
            assert m.margin is not None and m.margin >= 0
            if m.comparison == "at_least":
                assert (m.verdict == "pass") == (m.margin >= 1)
            elif m.comparison == "at_most":
                assert (m.verdict == "pass") == (m.margin <= 1)


class TestBundledTable:
    def test_loads_and_scores(self):
        techs = load_technologies()
        names = {t.name for t in techs}
        assert {"loop-memory", "mjj", "memristor", "floating-gate"} <= names
        by_name = {t.name: t for t in techs}
        assert score_technology(by_name["loop-memory"]).verdict == "pass"
        # Entries with missing numbers must never score as a clean pass.
        assert score_technology(by_name["memristor"]).verdict == "unknown"
        assert score_technology(by_name["mjj"]).verdict == "unknown"

    def test_unknown_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"name": "x", "speed": 1}]')
        with pytest.raises(ConfigError):
            load_technologies(bad)


def test_assumption_validation():
    with pytest.raises(DomainError):
        SystemAssumptions(mean_rate=20e6, max_rate=10e6)
    with pytest.raises(DomainError):
        SystemAssumptions(lifetime=-1)
