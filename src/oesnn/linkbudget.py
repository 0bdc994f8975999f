"""Optical receiver and transmitter energy/power models.

Covers both receiver families: current-biased superconducting nanowire
single-photon detectors (a few Poisson photons per spike, detected with
:func:`detection_probability`) and receiverless photodiodes that charge a
logic gate directly (thousands of photons per spike: a stochastic run draws
their Poisson count).  All energies here are per spike per synapse; cooling
inflation is applied separately by the platform layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleError, bounded, check_bounds
from .quantities import (
    CURRENT,
    DIMENSIONLESS,
    ENERGY,
    FREQUENCY,
    INDUCTANCE,
    POWER,
    Quantity,
    photon_energy,
    quantum_limited_responsivity,
    si_value,
)

DEFAULT_WAVELENGTH = 1.5e-6  # m
# Largest mean NumPy's Poisson sampler takes: a stochastic photodiode link draws Poisson(n_ph).
POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


@dataclass(frozen=True)
class SnspdReceiver:
    """Superconducting nanowire single-photon detector parameters.

    ``reset_time`` is the non-paralyzable dead time after a detection.  It
    is an independent parameter (the nanowire recovery resistance is not
    modeled); when omitted it defaults to 1/max_count_rate.
    """

    eta_d: float = bounded(0.7, gt=0, le=1)  # detection efficiency
    l_spd: float = bounded(100e-9, gt=0)  # kinetic inductance, H
    i_spd: float = bounded(10e-6, gt=0)  # bias current, A
    max_count_rate: float = bounded(20e6, gt=0)  # Hz (high-yield WSi/MoSi class; NbN reaches 1e9)
    reset_time: float | None = bounded(None, ge=0)  # s

    def __post_init__(self):
        check_bounds(self)
        if self.reset_time is None:
            object.__setattr__(self, "reset_time", 1.0 / self.max_count_rate)


@dataclass(frozen=True)
class ReceiverlessPhotodiode:
    """Photodiode charging a CMOS gate directly (no amplifier)."""

    c_tot: float = bounded(1e-15, gt=0)  # photodiode + gate + wiring capacitance, F
    v_swing: float = bounded(0.8, gt=0)  # switching voltage, V
    responsivity: float | None = bounded(None, gt=0)  # A/W; default q*lambda/(h*c) at the link wavelength
    i_leak: float = bounded(1e-9, ge=0)  # dark/leakage current, A
    v_bias: float = bounded(1.0, gt=0)  # V

    def __post_init__(self):
        check_bounds(self)

    def responsivity_at(self, wavelength) -> float:
        if self.responsivity is not None:
            return self.responsivity
        return quantum_limited_responsivity(wavelength).value


ReceiverModel = SnspdReceiver | ReceiverlessPhotodiode


@dataclass(frozen=True)
class OpticalLink:
    """One transmitter-to-synapse optical link.

    ``eta`` is the end-to-end energy efficiency (transmitter inefficiency
    and all optical losses); ``n_ph`` is the mean photon number arriving at
    the receiver per spike.  For photodiode receivers ``n_ph`` may be left
    unset, in which case the photon count implied by the charging
    requirement is used.
    """

    wavelength: float = bounded(DEFAULT_WAVELENGTH, gt=0)
    eta: float = bounded(1.0, gt=0, le=1)
    n_ph: float | None = bounded(None, ge=0)
    receiver: ReceiverModel = SnspdReceiver()
    stochastic: bool | None = None  # default: True for SNSPD, False for photodiode

    def __post_init__(self):
        check_bounds(self)
        if self.stochastic is None:
            object.__setattr__(self, "stochastic", isinstance(self.receiver, SnspdReceiver))
        if self.stochastic and isinstance(self.receiver, ReceiverlessPhotodiode):
            photons = self.mean_photons()
            if photons > POISSON_MEAN_MAX:
                raise DomainError(
                    f"n_ph: a stochastic photodiode link takes at most {POISSON_MEAN_MAX:.6g} photons, "
                    f"got {photons:.6g}"
                )

    def mean_photons(self) -> float:
        if self.n_ph is not None:
            return self.n_ph
        if isinstance(self.receiver, ReceiverlessPhotodiode):
            return implied_photon_count(self.receiver, self.wavelength)
        raise DomainError("n_ph must be set for single-photon-detector links")


def _mean_detected(n_ph, eta_d) -> float:
    """``n_ph * eta_d``: the mean detected photons of ``n_ph`` >= 0 photons at an efficiency ``eta_d`` in [0, 1]."""
    n = si_value(n_ph, DIMENSIONLESS, "n_ph")
    e = si_value(eta_d, DIMENSIONLESS, "eta_d")
    if n < 0:
        raise DomainError(f"n_ph must be non-negative, got {n}")
    if not 0.0 <= e <= 1.0:
        raise DomainError(f"eta_d must lie in [0, 1], got {e}")
    return n * e


def miss_probability(n_ph, eta_d) -> float:
    """Probability that a spike delivers zero detected photons.

    Poisson photon statistics with mean ``n_ph`` thinned by detection
    efficiency ``eta_d`` give exp(-n_ph * eta_d).
    """
    return math.exp(-_mean_detected(n_ph, eta_d))


def detection_probability(n_ph, eta_d) -> float:
    """Complement of :func:`miss_probability`."""
    return -math.expm1(-_mean_detected(n_ph, eta_d))


def photons_for_reliability(p_detect, eta_d) -> float:
    """Mean photon number needed to detect a fraction ``p_detect`` of spikes.

    Real-valued inverse of :func:`miss_probability`; callers may ceil.
    """
    p = si_value(p_detect, DIMENSIONLESS, "p_detect")
    e = si_value(eta_d, DIMENSIONLESS, "eta_d")
    if not 0.0 <= p < 1.0:
        if p == 1.0:
            raise InfeasibleError("perfect detection needs unbounded photon number")
        raise DomainError(f"p_detect must lie in [0, 1), got {p}")
    if not 0.0 < e <= 1.0:
        raise DomainError(f"eta_d must lie in (0, 1], got {e}")
    return -math.log1p(-p) / e


def link_source_energy(n_ph, wavelength, eta) -> Quantity:
    """Optical energy the source must emit per spike: n_ph * h*nu / eta."""
    n = si_value(n_ph, DIMENSIONLESS, "n_ph")
    e = si_value(eta, DIMENSIONLESS, "eta")
    if n < 0:
        raise DomainError(f"n_ph must be non-negative, got {n}")
    if e <= 0:
        raise DomainError(f"eta must be positive, got {e}")
    return n * photon_energy(wavelength) / e


def snspd_reset_energy(l_spd, i_spd) -> Quantity:
    """Electrical energy dissipated per detection: L*I^2/2."""
    inductance = si_value(l_spd, INDUCTANCE, "l_spd")
    current = si_value(i_spd, CURRENT, "i_spd")
    if inductance < 0 or current < 0:
        raise DomainError("l_spd and i_spd must be non-negative")
    return Quantity(0.5 * inductance * current * current, ENERGY)


def receiverless_optical_energy(pd: ReceiverlessPhotodiode, eta, wavelength=DEFAULT_WAVELENGTH) -> Quantity:
    """Source optical energy to charge the receiver: C_tot*V/(eta*R)."""
    e = si_value(eta, DIMENSIONLESS, "eta")
    if e <= 0:
        raise DomainError(f"eta must be positive, got {e}")
    r = pd.responsivity_at(wavelength)
    return Quantity(pd.c_tot * pd.v_swing / (e * r), ENERGY)


def implied_photon_count(pd: ReceiverlessPhotodiode, wavelength=DEFAULT_WAVELENGTH) -> float:
    """Photons that must arrive at the photodiode per spike: C*V/(R*h*nu)."""
    r = pd.responsivity_at(wavelength)
    return pd.c_tot * pd.v_swing / (r * photon_energy(wavelength).value)


def photodiode_static_power(pd: ReceiverlessPhotodiode) -> Quantity:
    """Static dissipation of one biased photodiode: V_bias * I_leak."""
    return Quantity(pd.v_bias * pd.i_leak, POWER)


def static_dominance_frequency(pd: ReceiverlessPhotodiode, link: OpticalLink) -> Quantity:
    """Spike rate below which static leakage outweighs dynamic link energy.

    Returns f* with static power = f* * per-spike source energy; spiking
    slower than f* is static-dominated.
    """
    dynamic = receiverless_optical_energy(pd, link.eta, link.wavelength).value
    if dynamic <= 0:
        raise InfeasibleError("per-spike link energy must be positive")
    return Quantity(photodiode_static_power(pd).value / dynamic, FREQUENCY)


def transmitter_power(fanout, per_synapse_receiver_energy, spike_rate, eta) -> Quantity:
    """Optical output power a transmitter needs to sustain ``spike_rate``.

    Every spike must deliver the receiver energy to each of ``fanout``
    downstream synapses within one inter-spike interval.
    """
    k = si_value(fanout, DIMENSIONLESS, "fanout")
    energy = si_value(per_synapse_receiver_energy, ENERGY, "per_synapse_receiver_energy")
    rate = si_value(spike_rate, FREQUENCY, "spike_rate")
    e = si_value(eta, DIMENSIONLESS, "eta")
    if k < 0 or energy < 0 or rate < 0:
        raise DomainError("fanout, energy and spike_rate must be non-negative")
    if e <= 0:
        raise DomainError(f"eta must be positive, got {e}")
    return Quantity(k * energy * rate / e, POWER)


def source_energy_per_spike(link: OpticalLink) -> Quantity:
    """Per-spike source optical energy for either receiver family."""
    if isinstance(link.receiver, SnspdReceiver):
        return link_source_energy(link.mean_photons(), link.wavelength, link.eta)
    return receiverless_optical_energy(link.receiver, link.eta, link.wavelength)

