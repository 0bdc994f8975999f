"""Platform-wide power, cooling, power-density, and device-sizing models.

Two hardware families are described by :class:`PlatformProfile`: a
superconducting platform operated at liquid-helium temperature behind a
refrigeration multiplier, and a room-temperature semiconductor platform.
Power-density checks use on-chip (cold) dissipation; power-budget checks
use cooling-inflated wall energy, because refrigeration work is expended
at room temperature rather than on the chip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, bounded, check_bounds
from .quantities import (
    CAPACITANCE,
    CURRENT,
    DIMENSIONLESS,
    ENERGY,
    FLUX_QUANTUM,
    FREQUENCY,
    INDUCTANCE,
    LENGTH,
    POWER,
    POWER_DENSITY,
    RESISTANCE,
    TEMPERATURE,
    TIME,
    VACUUM_PERMEABILITY,
    VOLTAGE,
    Quantity,
    si_value,
)


def carnot_specific_power(t_hot, t_cold) -> float:
    """Thermodynamic floor on refrigeration work per watt removed.

    (T_hot - T_cold)/T_cold watts must be spent at T_hot for every watt of
    heat lifted from T_cold.
    """
    th = si_value(t_hot, TEMPERATURE, "t_hot")
    tc = si_value(t_cold, TEMPERATURE, "t_cold")
    if not th >= tc > 0:
        raise DomainError(f"need t_hot >= t_cold > 0, got {th} K and {tc} K")
    return (th - tc) / tc


@dataclass(frozen=True)
class PlatformProfile:
    """Shared constants for one hardware platform."""

    name: str
    kind: Literal["superconducting", "semiconductor"]
    specific_power: float = bounded(ge=1)  # refrigeration W per W of cold dissipation (1 = none)
    t_hot: float  # K
    t_cold: float = bounded(gt=0)  # K
    power_density_limit: float = bounded(gt=0)  # W/m^2

    def __post_init__(self):
        check_bounds(self)
        if not self.t_hot > self.t_cold:
            raise DomainError("need t_hot > t_cold")
        floor = carnot_specific_power(self.t_hot, self.t_cold)
        if self.specific_power < floor:
            raise DomainError(
                f"specific_power {self.specific_power} beats the thermodynamic floor {floor:.1f}"
            )


SUPERCONDUCTING_4K = PlatformProfile(
    name="superconducting-4K",
    kind="superconducting",
    specific_power=1000.0,  # conservative laboratory-scale figure; Carnot floor is ~70
    t_hot=300.0,
    t_cold=4.2,
    power_density_limit=1e4,  # 1 W/cm^2, liquid-helium heat removal
)

SEMICONDUCTOR_300K = PlatformProfile(
    name="semiconductor-300K",
    kind="semiconductor",
    specific_power=1.0,
    t_hot=330.0,  # heatsink headroom above ambient; multiplier stays 1
    t_cold=300.0,
    power_density_limit=1e7,  # 1 kW/cm^2 theoretical ceiling
)

PROFILES: dict[str, PlatformProfile] = {
    SUPERCONDUCTING_4K.name: SUPERCONDUCTING_4K,
    SEMICONDUCTOR_300K.name: SEMICONDUCTOR_300K,
}


def wall_power(cold, profile: PlatformProfile) -> Quantity:
    """Room-temperature power (or energy) needed to sustain cold dissipation.

    Accepts a power or an energy quantity and scales it by the profile's
    specific power; the semiconductor profile is the identity.
    """
    if isinstance(cold, Quantity) and cold.dim == ENERGY:
        value = cold.value
        dim = ENERGY
    else:
        value = si_value(cold, POWER, "cold")
        dim = POWER
    if value < 0:
        raise DomainError("cold dissipation must be non-negative")
    return Quantity(value * profile.specific_power, dim)


def _quotient(num: float, den: float, what: str) -> float:
    """``num / den``, the ``what``, unless the divisor underflowed to 0 or the quotient overflowed."""
    if den == 0 or num / den == math.inf:
        raise DomainError(f"the {what} is out of float range")
    return num / den


def max_average_spike_rate(power_budget, n_neurons, fanout, e_per_synapse_event) -> Quantity:
    """Spike rate a power budget supports: P / (N_neurons * fanout * E)."""
    p = si_value(power_budget, POWER, "power_budget")
    n = si_value(n_neurons, DIMENSIONLESS, "n_neurons")
    k = si_value(fanout, DIMENSIONLESS, "fanout")
    e = si_value(e_per_synapse_event, ENERGY, "e_per_synapse_event")
    if min(p, n, k, e) <= 0:
        raise DomainError("all arguments must be positive")
    return Quantity(_quotient(p, n * k * e, "spike rate"), FREQUENCY)


def power_density_spike_limit(w_sy, e_on_chip_per_event, density_limit) -> Quantity:
    """Spike rate at which one synapse hits the areal heat-removal ceiling.

    Uses on-chip (cold, uninflated) energy per synapse event over the
    synapse footprint w_sy^2.
    """
    w = si_value(w_sy, LENGTH, "w_sy")
    e = si_value(e_on_chip_per_event, ENERGY, "e_on_chip_per_event")
    d = si_value(density_limit, POWER_DENSITY, "density_limit")
    if min(w, e, d) <= 0:
        raise DomainError("all arguments must be positive")
    return Quantity(d * w * w / e, FREQUENCY)


@dataclass(frozen=True)
class SquidSpec:
    """A two-junction interference loop sized from its junction current.

    Construction enforces the design criterion 2*L*I_c = Phi_0 to 1e-6
    relative.
    """

    i_c: Quantity  # junction critical current
    l_sq: Quantity  # loop inductance
    w_sq: Quantity  # washer inner dimension
    e_sq: Quantity  # energy to produce two fluxons

    def __post_init__(self):
        for q, dim, name in (
            (self.i_c, CURRENT, "i_c"),
            (self.l_sq, INDUCTANCE, "l_sq"),
            (self.w_sq, LENGTH, "w_sq"),
            (self.e_sq, ENERGY, "e_sq"),
        ):
            if q.dim != dim or q.value <= 0:
                raise DomainError(f"{name} must be a positive {dim} quantity")
        ratio = 2.0 * self.l_sq.value * self.i_c.value / FLUX_QUANTUM.value
        if abs(ratio - 1.0) > 1e-6:
            raise DomainError(f"2*L*I_c/Phi_0 must equal 1, got {ratio}")


def squid_from_critical_current(i_c) -> SquidSpec:
    """Size the flux-receiving loop from its junction critical current.

    E_sq = 2*I_c*Phi_0 (two fluxons), L = Phi_0/(2*I_c) from the design
    criterion, and w_sq = L/(1.25*mu_0) for a washer inductor, exposing the
    area/energy trade-off.
    """
    current = si_value(i_c, CURRENT, "i_c")
    if current <= 0:
        raise DomainError(f"i_c must be positive, got {current}")
    ic = Quantity(current, CURRENT)
    e_sq = 2.0 * ic * FLUX_QUANTUM
    l_sq = FLUX_QUANTUM / (2.0 * ic)
    w_sq = l_sq / (1.25 * VACUUM_PERMEABILITY)
    return SquidSpec(i_c=ic, l_sq=l_sq, w_sq=w_sq, e_sq=e_sq)


def fluxon_budget(e_budget, i_c) -> float:
    """Fluxons producible per synapse event within an energy budget.

    One fluxon costs I_c*Phi_0 (half of E_sq).
    """
    e = si_value(e_budget, ENERGY, "e_budget")
    current = si_value(i_c, CURRENT, "i_c")
    if e < 0 or current <= 0:
        raise DomainError("e_budget must be >= 0 and i_c > 0")
    return _quotient(e, current * FLUX_QUANTUM.value, "fluxon budget")


@dataclass(frozen=True)
class CmosTimeConstantSpec:
    """Subthreshold leaky-integrator parameters for a CMOS synapse."""

    c_density: float = bounded(20e-15 / 1e-12, gt=0)  # F/m^2: high-k MIM capacitor, 20 fF/um^2
    v_th: float = bounded(25e-3, gt=0)  # thermal voltage, V
    kappa: float = bounded(1.0, gt=0, le=2)  # subthreshold slope factor
    i_tau: float = bounded(10e-15, gt=0)  # leak current, A

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class ScTimeConstantSpec:
    """Inductor/resistor fabrication parameters for a superconducting synapse."""

    l_square: float = bounded(160e-12, gt=0)  # H per square (high-kinetic-inductance film)
    r_s: float = bounded(1e-3, gt=0)  # sheet resistance, ohm per square (thick normal metal at 4 K)
    w_wire: float = bounded(100e-9, gt=0)  # minimum wire width, m
    w_gap: float = bounded(100e-9, gt=0)  # minimum gap, m

    def __post_init__(self):
        check_bounds(self)


CMOS_TIME_CONSTANT_DEFAULTS = CmosTimeConstantSpec()
SC_TIME_CONSTANT_DEFAULTS = ScTimeConstantSpec()


def _footprint_model(value: float, w: float, what: str) -> float:
    """``value``, the ``what`` of a ``w`` footprint, unless it left float range (0 or inf)."""
    if not 0 < value < math.inf:
        raise DomainError(f"the {what} of a {w!r} m footprint is out of float range")
    return value


def dpi_time_constant(c_si, v_th, kappa, i_tau) -> Quantity:
    """Leaky-integrator time constant of the differential-pair circuit.

    tau = C_si * V_th / (kappa * I_tau).
    """
    c = si_value(c_si, CAPACITANCE, "c_si")
    v = si_value(v_th, VOLTAGE, "v_th")
    k = si_value(kappa, DIMENSIONLESS, "kappa")
    i = si_value(i_tau, CURRENT, "i_tau")
    if min(c, v, k, i) <= 0:
        raise DomainError("all arguments must be positive")
    return Quantity(c * v / (k * i), TIME)


def cmos_max_time_constant(w_sy, spec: CmosTimeConstantSpec = CMOS_TIME_CONSTANT_DEFAULTS) -> Quantity:
    """Largest CMOS time constant in a w_sy^2 footprint.

    The whole footprint can be devoted to the capacitor (separate MIM
    layer), so C = c_density * w_sy^2.
    """
    w = si_value(w_sy, LENGTH, "w_sy")
    if w <= 0:
        raise DomainError("w_sy must be positive")
    c = spec.c_density * w * w
    return Quantity(_footprint_model(c * spec.v_th / (spec.kappa * spec.i_tau), w, "CMOS time constant"), TIME)


def meander_inductance(w_sy, spec: ScTimeConstantSpec = SC_TIME_CONSTANT_DEFAULTS) -> Quantity:
    """Maximum inductance of a meander filling a w_sy^2 footprint."""
    w = si_value(w_sy, LENGTH, "w_sy")
    if w <= 0:
        raise DomainError("w_sy must be positive")
    value = w * w * spec.l_square / (spec.w_wire * (spec.w_wire + spec.w_gap))
    return Quantity(_footprint_model(value, w, "meander inductance"), INDUCTANCE)


def parallel_resistance(w_sy, spec: ScTimeConstantSpec = SC_TIME_CONSTANT_DEFAULTS) -> Quantity:
    """Smallest nonzero resistance fabricable in a w_sy^2 footprint."""
    w = si_value(w_sy, LENGTH, "w_sy")
    if w <= 0:
        raise DomainError("w_sy must be positive")
    value = spec.r_s * spec.w_gap * (spec.w_wire + spec.w_gap) / (w * w)
    return Quantity(_footprint_model(value, w, "parallel resistance"), RESISTANCE)


def sc_max_time_constant(w_sy, spec: ScTimeConstantSpec = SC_TIME_CONSTANT_DEFAULTS) -> Quantity:
    """Largest L/r time constant in a w_sy^2 footprint; scales as w_sy^4."""
    w = si_value(w_sy, LENGTH, "w_sy")
    tau = meander_inductance(w, spec).value / parallel_resistance(w, spec).value
    return Quantity(_footprint_model(tau, w, "superconducting time constant"), TIME)
