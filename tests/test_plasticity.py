import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oesnn.errors import DomainError
from oesnn.plasticity import MemoryColumns, StdpParams, loop_write_energy, stdp_delta
from oesnn.quantities import CONSTANTS
from reference_memory import AnalogMemory, LoopMemory, apply_stdp, weight_to_fluxon_rate

PARAMS = StdpParams(a_plus=2.5, a_minus=2.5, tau_plus=1e-3, tau_minus=1e-3)


class TestCells:
    def test_loop_bounds(self):
        cell = LoopMemory(level=1023, bits=10)
        assert cell.max_level == 1023
        assert cell.weight == 1.0
        with pytest.raises(DomainError):
            LoopMemory(level=1024, bits=10)
        with pytest.raises(DomainError):
            LoopMemory(level=0, bits=11)

    def test_analog_bounds(self):
        assert AnalogMemory(value=0.25).weight == 0.25
        with pytest.raises(DomainError):
            AnalogMemory(value=1.5)


class TestStdpRule:
    def test_zero_dt_is_potentiation(self):
        assert stdp_delta(1.0, 1.0, PARAMS) == PARAMS.a_plus

    def test_sign_by_ordering(self):
        assert stdp_delta(0.0, 1e-4, PARAMS) > 0
        assert stdp_delta(1e-4, 0.0, PARAMS) < 0

    def test_exponential_decay_at_tau(self):
        assert stdp_delta(0.0, PARAMS.tau_plus, PARAMS) == pytest.approx(
            PARAMS.a_plus / math.e, rel=1e-12
        )

    def test_one_level_at_tau(self):
        cell = LoopMemory(level=100, bits=10)
        new, applied = apply_stdp(0.0, PARAMS.tau_plus, cell, PARAMS)
        # 2.5/e rounds to one level
        assert applied == 1.0
        assert new.level == 101
        assert new.write_count == 1


class TestLoopUpdates:
    """The fixed cases run on a reference cell and on the program's one-edge memory columns."""

    def test_clamp_at_max_level_no_write(self):
        cell = LoopMemory(level=1023, bits=10)
        columns = _columns([cell])
        new, applied = apply_stdp(0.0, 0.0, cell, PARAMS)
        assert new.level == 1023
        assert applied == 0.0
        assert new.write_count == 0
        assert columns.write(0, 0.0, 0.0, PARAMS, None) == 0.0
        assert columns.level[0] == 1023 and columns.writes[0] == 0

    def test_clamp_at_zero(self):
        cell = LoopMemory(level=0, bits=10)
        columns = _columns([cell])
        new, applied = apply_stdp(1e-4, 0.0, cell, PARAMS)
        assert new.level == 0 and applied == 0.0 and new.write_count == 0
        assert columns.write(0, 1e-4, 0.0, PARAMS, None) == 0.0
        assert columns.level[0] == 0 and columns.writes[0] == 0

    def test_partial_clamp_counts_one_write(self):
        cell = LoopMemory(level=1022, bits=10)
        columns = _columns([cell])
        new, applied = apply_stdp(0.0, 0.0, cell, PARAMS)  # raw +2.5 -> +2, clamped to +1
        assert new.level == 1023
        assert applied == 1.0
        assert new.write_count == 1
        assert columns.write(0, 0.0, 0.0, PARAMS, None) == 1.0
        assert columns.level[0] == 1023 and columns.weight[0] == 1.0 and columns.writes[0] == 1

    @given(
        level=st.integers(min_value=0, max_value=1023),
        dt=st.floats(min_value=-5e-3, max_value=5e-3),
    )
    def test_levels_stay_representable(self, level, dt):
        cell = LoopMemory(level=level, bits=10)
        new, _ = apply_stdp(0.0, dt, cell, PARAMS)
        assert 0 <= new.level <= new.max_level


class TestAnalogUpdates:
    """The fixed cases run on a reference cell and on the program's one-edge memory columns."""

    def test_noiseless_update(self):
        params = StdpParams(a_plus=0.1, a_minus=0.1)
        cell = AnalogMemory(value=0.5)
        columns = _columns([cell])
        new, applied = apply_stdp(0.0, 0.0, cell, params)
        assert new.value == pytest.approx(0.6, rel=1e-12)
        assert applied == pytest.approx(0.1, rel=1e-12)
        assert new.write_count == 1
        assert columns.write(0, 0.0, 0.0, params, None) == pytest.approx(0.1, rel=1e-12)
        assert columns.weight[0] == pytest.approx(0.6, rel=1e-12) and columns.writes[0] == 1

    def test_noise_requires_rng(self):
        cell = AnalogMemory(value=0.5, write_noise_std=0.01)
        with pytest.raises(DomainError):
            apply_stdp(0.0, 0.0, cell, PARAMS)

    def test_noisy_update_deterministic_with_seed(self):
        cell = AnalogMemory(value=0.5, write_noise_std=0.01)
        a, _ = apply_stdp(0.0, 5e-3, cell, PARAMS, np.random.default_rng(1))
        b, _ = apply_stdp(0.0, 5e-3, cell, PARAMS, np.random.default_rng(1))
        assert a.value == b.value

    def test_endurance_freeze(self):
        params = StdpParams(a_plus=0.1, a_minus=0.1, on_exhaustion="freeze")
        cell = AnalogMemory(value=0.5, endurance=1)
        columns = _columns([cell])
        cell, _ = apply_stdp(0.0, 0.0, cell, params)
        assert cell.write_count == 1 and not cell.degraded
        cell, applied = apply_stdp(0.0, 0.0, cell, params)
        assert cell.degraded and applied == 0.0
        frozen_value = cell.value
        cell, applied = apply_stdp(0.0, 0.0, cell, params)
        assert cell.value == frozen_value and applied == 0.0
        columns.write(0, 0.0, 0.0, params, None)
        assert columns.writes[0] == 1 and not columns.degraded[0]
        assert columns.write(0, 0.0, 0.0, params, None) == 0.0 and columns.degraded[0]
        assert columns.write(0, 0.0, 0.0, params, None) == 0.0
        assert columns.weight[0] == frozen_value and columns.writes[0] == 1

    def test_endurance_fault(self):
        params = StdpParams(a_plus=0.1, a_minus=0.1, on_exhaustion="fault")
        cell = AnalogMemory(value=0.5, endurance=1)
        columns = _columns([cell])
        cell, _ = apply_stdp(0.0, 0.0, cell, params)
        with pytest.raises(DomainError):
            apply_stdp(0.0, 0.0, cell, params)
        columns.write(0, 0.0, 0.0, params, None)
        with pytest.raises(DomainError, match="endurance exhausted"):
            columns.write(0, 0.0, 0.0, params, None)

    @given(
        value=st.floats(min_value=0.0, max_value=1.0),
        dt=st.floats(min_value=-5e-3, max_value=5e-3),
        noise=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_analog_stays_in_unit_interval(self, value, dt, noise, seed):
        cell = AnalogMemory(value=value, write_noise_std=noise)
        params = StdpParams(a_plus=0.3, a_minus=0.3)
        new, _ = apply_stdp(0.0, dt, cell, params, np.random.default_rng(seed))
        assert 0.0 <= new.value <= 1.0


class TestFluxonRate:
    def test_zero_level(self):
        assert weight_to_fluxon_rate(LoopMemory(level=0, bits=10), 161) == 0

    def test_max_level(self):
        assert weight_to_fluxon_rate(LoopMemory(level=1023, bits=10), 161) == 161

    def test_mid_level(self):
        assert weight_to_fluxon_rate(LoopMemory(level=512, bits=10), 161) == 81

    def test_analog_rejected(self):
        with pytest.raises(DomainError):
            weight_to_fluxon_rate(AnalogMemory(value=0.5), 161)

    @given(level=st.integers(min_value=0, max_value=1023), m=st.integers(min_value=0, max_value=500))
    def test_range(self, level, m):
        rate = weight_to_fluxon_rate(LoopMemory(level=level, bits=10), m)
        assert 0 <= rate <= m


def test_loop_write_energy_is_fluxon_cost():
    assert loop_write_energy(3, 300e-6) == pytest.approx(
        3 * 300e-6 * CONSTANTS.phi0, rel=1e-12
    )
    assert loop_write_energy(-3, 300e-6) == loop_write_energy(3, 300e-6)


def _columns(cells) -> MemoryColumns:
    """Memory columns holding ``cells``, one parameter group per distinct parameter set."""
    groups: dict = {}
    for cell in cells:
        if isinstance(cell, LoopMemory):
            groups.setdefault((cell.max_level, 0.0, math.inf), len(groups))
        else:
            groups.setdefault((0, cell.write_noise_std, cell.endurance), len(groups))
    keys = [
        (c.max_level, 0.0, math.inf) if isinstance(c, LoopMemory) else (0, c.write_noise_std, c.endurance)
        for c in cells
    ]
    return MemoryColumns(
        level=np.array([c.level if isinstance(c, LoopMemory) else -1 for c in cells], dtype=np.int64),
        weight=np.array([c.weight for c in cells]),
        writes=np.array([c.write_count for c in cells], dtype=np.int64),
        degraded=np.array([c.degraded for c in cells]),
        group=np.array([groups[k] for k in keys], dtype=np.intp),
        groups=list(groups),
    )


_LOOP_CELLS = st.integers(min_value=1, max_value=10).flatmap(
    lambda bits: st.builds(
        LoopMemory,
        level=st.sampled_from([0, 2**bits - 1]) | st.integers(min_value=0, max_value=2**bits - 1),
        bits=st.just(bits),
    )
)
_ANALOG_CELLS = st.builds(
    AnalogMemory,
    value=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    write_noise_std=st.sampled_from([0.0, 0.01, 0.3]),
    endurance=st.sampled_from([math.inf]) | st.integers(min_value=1, max_value=4),
)
_PAIRINGS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.floats(min_value=-3e-6, max_value=3e-6)),
    max_size=30,
)


class TestMemoryColumns:
    """``MemoryColumns.write`` against a chain of ``apply_stdp`` calls on the same cells."""

    @given(
        cells=st.lists(_LOOP_CELLS | _ANALOG_CELLS, min_size=1, max_size=4),
        pairings=_PAIRINGS,
        a_plus=st.sampled_from([0.05, 0.4, 3.0]),
        a_minus=st.sampled_from([0.06, 0.5, 2.0]),
        on_exhaustion=st.sampled_from(["freeze", "fault"]),
        write_energy=st.sampled_from([None, 2e-15]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(  # a noisy write clamped at 1 uses up endurance, and changes nothing
        cells=[AnalogMemory(value=1.0, write_noise_std=0.01, endurance=2)],
        pairings=[(0, 0.0), (0, 0.0), (0, 0.0)],
        a_plus=0.4,
        a_minus=0.5,
        on_exhaustion="freeze",
        write_energy=None,
        seed=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_writes_match_apply_stdp(self, cells, pairings, a_plus, a_minus, on_exhaustion, write_energy, seed):
        params = StdpParams(
            a_plus=a_plus, a_minus=a_minus, tau_plus=1e-6, tau_minus=1e-6,
            on_exhaustion=on_exhaustion, write_energy=write_energy,
        )
        columns = _columns(cells)
        rng_cells, rng_columns = np.random.default_rng(seed), np.random.default_rng(seed)
        for pick, dt in pairings:
            e = pick % len(cells)
            try:
                cells[e], applied = apply_stdp(0.0, dt, cells[e], params, rng_cells)
            except DomainError:
                with pytest.raises(DomainError, match="endurance exhausted"):
                    columns.write(e, 0.0, dt, params, rng_columns)
                break
            assert columns.write(e, 0.0, dt, params, rng_columns) == applied
        assert columns.weight.tolist() == [c.weight for c in cells]
        assert columns.level.tolist() == [c.level if isinstance(c, LoopMemory) else -1 for c in cells]
        assert columns.writes.tolist() == [c.write_count for c in cells]
        assert columns.degraded.tolist() == [c.degraded for c in cells]
        assert rng_columns.bit_generator.state == rng_cells.bit_generator.state

    def test_clamped_noisy_write_wears_but_changes_nothing(self):
        params = StdpParams(a_plus=0.4, a_minus=0.5, tau_plus=1e-6, tau_minus=1e-6)
        columns = _columns([AnalogMemory(value=1.0, write_noise_std=0.01, endurance=1)])
        rng = np.random.default_rng(3)
        assert columns.write(0, 0.0, 0.0, params, rng) == 0.0  # no write for the report
        assert columns.writes[0] == 1 and columns.weight[0] == 1.0
        assert columns.write(0, 0.0, 0.0, params, rng) == 0.0
        assert columns.degraded[0]
