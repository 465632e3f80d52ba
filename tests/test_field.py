"""Finite field arithmetic oracles."""

import pytest

from graphcodes.field import (
    FieldSpec,
    field_make,
)


def test_prime_field_arithmetic():
    F = field_make(7)
    assert F.add(3, 5) == 1
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.neg(0) == 0
    assert F.neg(2) == 5
    assert F.inv(3) == 5
    assert F.div(1, 3) == 5
    assert F.pow(3, 6) == 1


def test_gf8_is_characteristic_two():
    F = field_make(8)
    for a in F.elements():
        assert F.add(a, a) == 0
    # multiplicative group has order 7
    for a in range(1, 8):
        assert F.pow(a, 7) == 1


def test_gf9_inverse_roundtrip():
    F = field_make(9)
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1


def test_field_axioms_small():
    for q in (4, 5, 9):
        F = field_make(q)
        els = F.elements()
        assert len(els) == q
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els[:3]:
                    lhs = F.mul(a, F.add(b, c))
                    rhs = F.add(F.mul(a, b), F.mul(a, c))
                    assert lhs == rhs


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        field_make(6)
    with pytest.raises(ValueError):
        field_make(1)


def test_inverse_of_zero_rejected():
    F = field_make(5)
    with pytest.raises((ValueError, ZeroDivisionError)):
        F.inv(0)


def test_explicit_reduction_polynomial():
    # x^3 + x + 1 over GF(2): ascending lower coefficients of the monic modulus
    F = FieldSpec(8, reduction=[1, 1, 0])
    x = 2
    assert F.mul(F.mul(x, x), x) == F.add(x, 1)
