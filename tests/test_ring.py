import pytest
from hypothesis import given, strategies as st

from chaincodes.ring import (
    MismatchedRing,
    NotAUnit,
    RElem,
    RingSpec,
    is_prime,
)

Z9 = RingSpec(3, 2)
Z4 = RingSpec(2, 2)
Z25 = RingSpec(5, 2)

SPECS = [Z4, Z9, Z25, RingSpec(3, 3), RingSpec(7, 1)]


def test_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(4, 2)
    with pytest.raises(ValueError):
        RingSpec(1, 2)
    with pytest.raises(ValueError):
        RingSpec(3, 0)
    with pytest.raises(ValueError):
        RingSpec(2, 64)  # 2^64 overflows the fixed-width contract


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(45):
        assert is_prime(n) == (n in primes)


def test_add_mul_examples():
    assert (Z9.element(7) + Z9.element(5)).value == 3
    assert (Z9.element(8) * Z9.element(8)).value == 1
    assert (Z4.element(2) * Z4.element(2)).value == 0


def test_mismatched_ring():
    with pytest.raises(MismatchedRing):
        Z9.element(1) + Z4.element(1)


def test_is_unit_examples():
    assert Z9.is_unit(2)
    assert not Z9.is_unit(3)
    assert not Z9.is_unit(0)


def test_inverse_examples():
    assert Z9.inverse(2) == 5
    assert Z25.inverse(7) == 18
    with pytest.raises(NotAUnit):
        Z9.inverse(3)


def test_valuation_examples():
    assert Z9.valuation(6) == 1
    assert Z9.valuation(2) == 0
    assert Z9.valuation(0) == 2


spec_and_pair = st.sampled_from(SPECS).flatmap(
    lambda spec: st.tuples(
        st.just(spec),
        st.integers(0, spec.modulus - 1),
        st.integers(0, spec.modulus - 1),
    )
)


@given(spec_and_pair)
def test_unit_inverse_property(data):
    spec, a, _ = data
    x = spec.element(a)
    if spec.is_unit(a):
        assert (x * spec.element(spec.inverse(a))).value == 1


@given(spec_and_pair)
def test_unit_multiplicativity(data):
    spec, a, b = data
    x, y = spec.element(a), spec.element(b)
    assert spec.is_unit((x * y).value) == (spec.is_unit(a) and spec.is_unit(b))


@given(spec_and_pair)
def test_valuation_additivity(data):
    spec, a, b = data
    x, y = spec.element(a), spec.element(b)
    expected = min(spec.e, spec.valuation(a) + spec.valuation(b))
    assert spec.valuation((x * y).value) == expected
