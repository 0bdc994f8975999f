import pytest
from hypothesis import given
from hypothesis import strategies as st

from oesnn.errors import DimensionError, DomainError
from oesnn.quantities import (
    CONSTANTS,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    POWER,
    TIME,
    Quantity,
    as_quantity,
    photon_energy,
    quantum_limited_responsivity,
    si_value,
    unit_label,
)

_NAMED_DIMS = [DIMENSIONLESS, LENGTH, TIME, ENERGY, POWER]


def test_constants_pinned():
    assert CONSTANTS.h == 6.62607015e-34
    assert CONSTANTS.c == 299_792_458.0
    assert CONSTANTS.q == 1.602176634e-19
    assert CONSTANTS.phi0 == pytest.approx(2.0678338484619295e-15, rel=1e-12)
    assert CONSTANTS.phi0 == pytest.approx(CONSTANTS.h / (2 * CONSTANTS.q), rel=1e-9)
    assert CONSTANTS.euler_gamma == pytest.approx(0.5772156649015329, abs=0)


def test_multiplication_composes_dimensions():
    p = Quantity(3.0, POWER) * Quantity(2.0, TIME)
    assert p.dim == ENERGY
    assert p.value == 6.0
    assert (Quantity(6.0, ENERGY) / Quantity(2.0, TIME)).dim == POWER


def test_division_by_zero_quantity_rejected():
    with pytest.raises(DomainError):
        Quantity(1.0, ENERGY) / Quantity(0.0, TIME)


def test_unit_labels():
    assert Quantity(1.0, ENERGY).unit == "J"
    assert unit_label((3, 1, -2, 0, 0)) == "m^3*kg^1*s^-2"


def test_as_quantity_coercion_and_rejection():
    q = as_quantity(2.5, ENERGY)
    assert q.value == 2.5 and q.dim == ENERGY
    with pytest.raises(DimensionError):
        as_quantity(Quantity(1.0, TIME), ENERGY)
    assert si_value(Quantity(1.0, TIME), TIME) == 1.0


@given(
    a=st.floats(min_value=1e-12, max_value=1e12),
    b=st.floats(min_value=1e-12, max_value=1e12),
    da=st.sampled_from(_NAMED_DIMS),
    db=st.sampled_from(_NAMED_DIMS),
)
def test_product_quotient_roundtrip(a, b, da, db):
    qa, qb = Quantity(a, da), Quantity(b, db)
    back = (qa * qb) / qb
    assert back.dim == qa.dim
    assert back.value == pytest.approx(a, rel=1e-12)


def test_photon_energy_examples():
    # h*c/lambda with the pinned constants
    assert photon_energy(1.5e-6).value == pytest.approx(1.3242972380992857e-19, rel=1e-12)
    assert (7 * photon_energy(1.5e-6)).value == pytest.approx(0.9e-18, rel=0.05)
    assert photon_energy(3.0e-6).value == pytest.approx(photon_energy(1.5e-6).value / 2, rel=1e-12)
    with pytest.raises(DomainError):
        photon_energy(0.0)


def test_responsivity_examples():
    assert quantum_limited_responsivity(1.5e-6).value == pytest.approx(1.2098315906023818, rel=1e-12)
    assert quantum_limited_responsivity(1.24e-6).value == pytest.approx(1.0, rel=2e-4)
    assert quantum_limited_responsivity(1e-12).value == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(DomainError):
        quantum_limited_responsivity(-1.0)


@given(lam=st.floats(min_value=1e-7, max_value=1e-5))
def test_one_electron_per_photon(lam):
    product = photon_energy(lam) * quantum_limited_responsivity(lam)
    assert product.value == pytest.approx(CONSTANTS.q, rel=1e-9)
    assert product.unit == "C"
