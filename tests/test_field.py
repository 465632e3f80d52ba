"""Finite field arithmetic oracles."""

import pytest

from graphcodes import field
from graphcodes.field import (
    FieldSpec,
    _poly_mul_mod,
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
    assert F.pow(3, -1) == 5 and F.pow(3, -2) == 4  # powers of the inverse
    assert repr(F) == "FieldSpec(q=7)"


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
        assert F.pow(a, -3) == F.inv(F.pow(a, 3))


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


def test_non_integer_order_rejected():
    # 8.0 and True hash like 8 and 1, so a built GF(8) must not answer for them
    field_make(8)
    field_make(2)
    for q in (8.0, True, "8", None):
        with pytest.raises(ValueError, match="not an integer"):
            field_make(q)
        with pytest.raises(ValueError, match="not an integer"):
            FieldSpec(q)


def test_inverse_of_zero_rejected():
    F = field_make(5)
    with pytest.raises((ValueError, ZeroDivisionError)):
        F.inv(0)


def test_explicit_reduction_polynomial():
    # x^3 + x + 1 over GF(2), the smallest irreducible cubic: ascending
    # lower coefficients of the monic modulus
    F = FieldSpec(8)
    assert F.reduction == [1, 1, 0]
    x = 2
    assert F.mul(F.mul(x, x), x) == F.add(x, 1)
    assert repr(F) == "FieldSpec(q=8, p=2, m=3, reduction=[1, 1, 0])"


def _digitwise(a, b, p, m):
    """a + b by base-p digits, each digit added mod p."""
    out = 0
    for i in range(m):
        out += ((a // p**i + b // p**i) % p) * p**i
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49])
def test_tables_match_polynomial_arithmetic(q):
    F = FieldSpec(q)
    p, m = F.p, F.m
    for a in range(q):
        neg = next(b for b in range(q) if _digitwise(a, b, p, m) == 0)
        assert F.neg(a) == neg
        if a:
            assert _poly_mul_mod(a, F.inv(a), p, m, F.reduction) == 1
        for b in range(q):
            assert F.add(a, b) == _digitwise(a, b, p, m)
            assert F.sub(a, b) == _digitwise(a, F.neg(b), p, m)
            assert F.mul(a, b) == _poly_mul_mod(a, b, p, m, F.reduction)


@pytest.mark.parametrize("q", [4, 8, 9, 27, 243, 256])
def test_tables_need_about_q_polynomial_products(q, monkeypatch):
    # the mul table comes from the powers of one primitive element,
    # not from a product per pair
    calls = [0]
    original = field._poly_mul_mod

    def counted(a, b, p, m, reduction):
        calls[0] += 1
        return original(a, b, p, m, reduction)

    monkeypatch.setattr(field, "_poly_mul_mod", counted)
    FieldSpec(q)
    assert q - 2 <= calls[0] <= 2 * q


def test_field_make_shares_one_field_per_q():
    assert field_make(8) is field_make(8)
    assert field_make(8) == FieldSpec(8)
    assert field_make(7) is not field_make(8)
