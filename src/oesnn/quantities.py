"""Unit-tagged scalars and fundamental constants.

All values are stored in SI base units.  A :class:`Quantity` pairs a float
with a dimension expressed as integer exponents over (metre, kilogram,
second, ampere, kelvin).  Multiplication and division compose dimensions;
the models add and compare bare SI floats.  Only the closed set of
dimensions the models actually use gets a readable unit label;
intermediate products print as raw exponent strings.

Convention used package-wide: functions accept either a ``Quantity`` or a
bare number (interpreted as SI), return a ``Quantity`` when the result
carries units, and return a plain ``float`` when it is dimensionless
(probabilities, counts, ratios).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, DomainError

# Exponents over (m, kg, s, A, K).
Dim = tuple[int, int, int, int, int]

DIMENSIONLESS: Dim = (0, 0, 0, 0, 0)
LENGTH: Dim = (1, 0, 0, 0, 0)
AREA: Dim = (2, 0, 0, 0, 0)
TIME: Dim = (0, 0, 1, 0, 0)
FREQUENCY: Dim = (0, 0, -1, 0, 0)
VELOCITY: Dim = (1, 0, -1, 0, 0)
CURRENT: Dim = (0, 0, 0, 1, 0)
TEMPERATURE: Dim = (0, 0, 0, 0, 1)
CHARGE: Dim = (0, 0, 1, 1, 0)
ENERGY: Dim = (2, 1, -2, 0, 0)
POWER: Dim = (2, 1, -3, 0, 0)
VOLTAGE: Dim = (2, 1, -3, -1, 0)
CAPACITANCE: Dim = (-2, -1, 4, 2, 0)
INDUCTANCE: Dim = (2, 1, -2, -2, 0)
RESISTANCE: Dim = (2, 1, -3, -2, 0)
MAGNETIC_FLUX: Dim = (2, 1, -2, -1, 0)
RESPONSIVITY: Dim = (-2, -1, 3, 1, 0)  # A/W
AREAL_CAPACITANCE: Dim = (-4, -1, 4, 2, 0)  # F/m^2
POWER_DENSITY: Dim = (0, 1, -3, 0, 0)  # W/m^2
PERMEABILITY: Dim = (1, 1, -2, -2, 0)  # H/m
ACTION: Dim = (2, 1, -1, 0, 0)  # J*s

_UNIT_LABELS: dict[Dim, str] = {
    DIMENSIONLESS: "-",
    LENGTH: "m",
    AREA: "m^2",
    TIME: "s",
    FREQUENCY: "Hz",
    VELOCITY: "m/s",
    CURRENT: "A",
    TEMPERATURE: "K",
    CHARGE: "C",
    ENERGY: "J",
    POWER: "W",
    VOLTAGE: "V",
    CAPACITANCE: "F",
    INDUCTANCE: "H",
    RESISTANCE: "ohm",
    MAGNETIC_FLUX: "Wb",
    RESPONSIVITY: "A/W",
    AREAL_CAPACITANCE: "F/m^2",
    POWER_DENSITY: "W/m^2",
    PERMEABILITY: "H/m",
    ACTION: "J*s",
}

_BASE = ("m", "kg", "s", "A", "K")


def _compose(a: Dim, b: Dim, sign: int) -> Dim:
    return (
        a[0] + sign * b[0],
        a[1] + sign * b[1],
        a[2] + sign * b[2],
        a[3] + sign * b[3],
        a[4] + sign * b[4],
    )


def unit_label(dim: Dim) -> str:
    """Readable unit for a dimension; raw exponents for unnamed ones."""
    label = _UNIT_LABELS.get(dim)
    if label is not None:
        return label
    parts = [f"{b}^{e}" for b, e in zip(_BASE, dim) if e != 0]
    return "*".join(parts) if parts else "-"


@dataclass(frozen=True, slots=True)
class Quantity:
    """A float with an SI dimension attached."""

    value: float
    dim: Dim = DIMENSIONLESS

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not (isinstance(self.dim, tuple) and len(self.dim) == 5):
            raise DimensionError(f"dimension must be a 5-tuple of exponents, got {self.dim!r}")

    @property
    def unit(self) -> str:
        return unit_label(self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, _compose(self.dim, other.dim, +1))
        if isinstance(other, (int, float)):
            return Quantity(self.value * other, self.dim)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            if other.value == 0.0:
                raise DomainError("division by a zero-valued quantity")
            return Quantity(self.value / other.value, _compose(self.dim, other.dim, -1))
        if isinstance(other, (int, float)):
            return Quantity(self.value / other, self.dim)
        return NotImplemented

    def __repr__(self):
        return f"Quantity({self.value!r}, {self.unit!r})"


def as_quantity(x, dim: Dim, name: str = "value") -> Quantity:
    """Coerce ``x`` to a ``Quantity`` of dimension ``dim``.

    Bare numbers are taken as SI values; a ``Quantity`` of any other
    dimension is rejected.
    """
    if isinstance(x, Quantity):
        if x.dim != dim:
            raise DimensionError(f"{name} must have unit {unit_label(dim)}, got {x.unit}")
        return x
    if isinstance(x, (int, float)):
        return Quantity(float(x), dim)
    raise DimensionError(f"{name} must be a number or Quantity, got {type(x).__name__}")


def si_value(x, dim: Dim, name: str = "value") -> float:
    """Like :func:`as_quantity` but returns the bare SI float."""
    return as_quantity(x, dim, name).value


@dataclass(frozen=True)
class Constants:
    """Pinned CODATA 2018 values (SI)."""

    h: float = 6.62607015e-34  # Planck constant, J*s (exact)
    c: float = 299_792_458.0  # speed of light, m/s (exact)
    q: float = 1.602176634e-19  # elementary charge, C (exact)
    mu0: float = 1.25663706212e-6  # vacuum permeability, H/m
    euler_gamma: float = 0.5772156649015329

    @property
    def phi0(self) -> float:
        """Flux quantum h/(2q), Wb."""
        return self.h / (2 * self.q)


CONSTANTS = Constants()

PLANCK = Quantity(CONSTANTS.h, ACTION)
LIGHT_SPEED = Quantity(CONSTANTS.c, VELOCITY)
ELEMENTARY_CHARGE = Quantity(CONSTANTS.q, CHARGE)
FLUX_QUANTUM = Quantity(CONSTANTS.phi0, MAGNETIC_FLUX)
VACUUM_PERMEABILITY = Quantity(CONSTANTS.mu0, PERMEABILITY)
EULER_GAMMA = CONSTANTS.euler_gamma


def photon_energy(wavelength) -> Quantity:
    """Energy of one photon at the given wavelength: h*c/lambda."""
    lam = as_quantity(wavelength, LENGTH, "wavelength")
    if lam.value <= 0:
        raise DomainError(f"wavelength must be positive, got {lam.value}")
    return PLANCK * LIGHT_SPEED / lam


def quantum_limited_responsivity(wavelength) -> Quantity:
    """Photodiode responsivity at unit quantum efficiency: q*lambda/(h*c)."""
    lam = as_quantity(wavelength, LENGTH, "wavelength")
    if lam.value <= 0:
        raise DomainError(f"wavelength must be positive, got {lam.value}")
    return ELEMENTARY_CHARGE * lam / (PLANCK * LIGHT_SPEED)
