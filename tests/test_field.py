"""Finite field arithmetic oracles."""

import hashlib
import sys
import time
from array import array

import pytest

from graphcodes import field
from graphcodes.field import (
    MAX_TABLE_ORDER,
    FieldSpec,
    _factor_prime_power,
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
    assert F.pow(3, 6) == 1
    assert F.pow(3, -1) == 5 and F.pow(3, -2) == 4  # powers of the inverse
    assert repr(F) == "FieldSpec(q=7)"


def test_gf8_is_characteristic_two():
    F = field_make(8)
    for a in range(F.q):
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
        els = range(q)
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


@pytest.mark.parametrize("q, match", [
    (2**61 - 1, "not below 2\\^31"), (2**31, "not below 2\\^31"),
    (2**30, "2\\^30 is above 2\\^10"), (2**11, "2\\^11 is above 2\\^10")])
def test_an_order_too_large_to_build_is_refused_at_once(q, match):
    # no trial division to sqrt(q), no q x q table: refused before either
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        field_make(q)
    assert time.perf_counter() - t0 < 1


def test_the_largest_prime_order_builds():
    F = field_make(2**31 - 1)
    assert F.m == 1 and F.mul(2**30, 2) == 1


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


@pytest.mark.parametrize("q", [4, 8, 9, 27, 243, 256, 343, 361, 961])
def test_tables_need_about_q_polynomial_products(q, monkeypatch):
    # the mul table comes from the powers of one primitive element,
    # not from a product per pair, and only that element's cycle is
    # walked: 343, 361 and 961 have large smallest primitive elements
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


# sha256 of reduction, add, sub, mul, neg and inv, as little-endian
# 16-bit words, for every order q = p^m, m > 1, a field builds tables for
TABLE_SHA256 = {
    4: "b7d7757c2d1a5fe314828304d118cbb191aad6a60545ed1833f58380e58b04bb",
    8: "dba2379c9e4abb8063948d4a8006439a208d55a4ead30d98dde52da4e0ed7dc6",
    9: "1a974f0ed0b4670da3f07474f140cdfc8364250f9ab7c4c1054da49f551aad5d",
    16: "95d25cea117e63072a5a0b4a7cad4ad4625e9d72c8506a6681a60580e7068a42",
    25: "a92a0827bd5367802698459750c235505d69d619f94640e3ffc389a63375b2c3",
    27: "a52d984f032a121c3080e02b89892805a3dffdf49e2c5cc4a80d17f60355d0f5",
    32: "04ed1cebe0b9353f35874c8bada205df21a299d53399c5b8d36f4f8ee2a1aa5c",
    49: "df85deab93e938382d1bcf89d778717f45f71f255bddb346b0eed81e5c843a0b",
    64: "60d08128c364775e3b518fb6ecc7d205811149675087fa43156667959955f5ad",
    81: "b3e9fd868853ea382966e28017da9335acb1b6ac359049033d97eacc7f647be0",
    121: "8d513f3a51e83ae325222d433c2dac0cab7f0d333d7c6ffe1e572501614553c4",
    125: "fe4dbcaee7a546b57c5b4c96f86c7480e101861c4376610c1d0c4aa38d0d76fe",
    128: "30dbd61d39bc98807258584f5624967deca9fae00e43bc803401eb712d5620ec",
    169: "de15b60adf6e2e71ebcf8b91a4c1941dbe205878850065cfba0b1c98bb96c1ca",
    243: "e763f09ca1b983ae493fad4f22d856859ec9f223a9c4a4250fe3fd72527ca84a",
    256: "8153f0ca75131b40daa16d27e1cb63f14c2575cd2c6dffc3e644a0a5858d0b9e",
    289: "424daae8408d875184ff1d56b8d3518eae33e178deb96f0a773aad3dcbdcafc0",
    343: "53bfb60fcc9d9631a35c82b43f605de33577da2542148962f53acb0e9414c117",
    361: "98e0df7d53ca3468cc29717c94e834b675bf9fb0644c737b40f8ddb253f520fb",
    512: "75e3c9c44127c5c703652f038c01f442bc1a71be2a21c1ac73ede5047505ff16",
    529: "2524ae2d3cc30b285cce0c6abcec68cc7e7c338444081cd2cf3efd3538c8ea6b",
    625: "c9dd7f731d2e7312f41881c99ad9403d673f38339c39be5bab21bb5a51dbc899",
    729: "02cf63102eba044756c3dd9d3558b3c1b3adbcff900bab9020f11dedbedf227d",
    841: "9a198262216d1734d41095cbd573a8630f7f3511a59615df79501bbcfadcec04",
    961: "bca21a53da3f603e36ff5ebb697f7fc97c680ed4d2a5cd3e094e4ece6635b92c",
    1024: "3ed09ed6af7d1ea18a694cb6a9f48dfecf9699751652b9967781dcb45e2bedcc",
}


def _u16(xs):
    words = array("H", xs)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def test_every_table_field_is_pinned():
    orders = [q for q in range(4, MAX_TABLE_ORDER + 1)
              if (_factor_prime_power(q) or (q, 1))[1] > 1]
    assert orders == list(TABLE_SHA256)
    for q in orders:
        F = FieldSpec(q)
        h = hashlib.sha256(_u16(F.reduction))
        for table in (F._add, F._sub, F._mul):
            for row in table:
                h.update(_u16(row))
        h.update(_u16(F._neg))
        h.update(_u16(F._inv))
        assert h.hexdigest() == TABLE_SHA256[q], q


@pytest.mark.parametrize("p", [2, 3, 11, 2**31 - 1])
def test_poly_mul_mod_of_degree_one_is_the_product_mod_p(p):
    # a prime field has no reduction polynomial: m = 1, reduction []
    for a, b in ((0, 1), (1, p - 1), (p - 1, p - 1), (p // 2, p - 2)):
        assert _poly_mul_mod(a, b, p, 1, []) == a * b % p
