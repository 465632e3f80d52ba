"""Polynomial arithmetic and subresultant criteria."""

import random

import pytest

from graphcodes.field import field_make
from graphcodes.subres import (
    eta_I,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_gcd,
    poly_mul,
    poly_scale,
    poly_trim,
    principal_subresultant,
    sh_identity_check,
    sh_identity_sides,
    sigma_I,
    SubresultantFrame,
    sylvester_principal,
    vandermonde_det,
)
from graphcodes.matrix import det

F = field_make(13)


def test_poly_basics():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_deg([1, 2, 3]) == 2
    assert poly_deg([0]) == -1
    assert poly_add(F, [1, 2], [3, 4, 5]) == [4, 6, 5]
    assert poly_scale(F, 2, [1, 6]) == [2, 12]
    assert poly_mul(F, [1, 1], [12, 1]) == [12, 0, 1]  # (x+1)(x-1) = x^2-1
    assert poly_eval(F, [1, 0, 1], 5) == 26 % 13


def test_poly_from_roots():
    p = poly_from_roots(F, [2, 3])
    assert poly_eval(F, p, 2) == 0 and poly_eval(F, p, 3) == 0
    assert p[-1] == 1 and poly_deg(p) == 2


def test_divmod_and_gcd():
    rng = random.Random(4)
    for _ in range(30):
        p = poly_trim([rng.randrange(13) for _ in range(5)] + [1])
        q = poly_trim([rng.randrange(13) for _ in range(3)] + [1])
        quo, rem = poly_divmod(F, p, q)
        assert poly_deg(rem) < poly_deg(q)
        assert poly_add(F, poly_mul(F, quo, q), rem) == poly_trim(p)
        g = poly_gcd(F, p, q)
        _, r1 = poly_divmod(F, p, g)
        _, r2 = poly_divmod(F, q, g)
        assert poly_deg(r1) == -1 and poly_deg(r2) == -1


def test_sylvester_matrix_shape_and_resultant():
    p = [1, 0, 1]  # x^2 + 1
    q = [1, 1]     # x + 1
    S = sylvester_principal(F, p, q, 0)
    assert len(S) == 3 and all(len(r) == 3 for r in S)
    # res(x^2+1, x+1) = p(-1) = 2, up to sign
    assert det(F, S) in (2, 11)


def test_subresultant_gcd_criterion():
    # gcd degree 1: common root at 2
    p = poly_from_roots(F, [2, 5, 7])
    q = poly_from_roots(F, [2, 3])
    delta = poly_deg(poly_gcd(F, p, q))
    assert delta == 1
    assert principal_subresultant(F, p, q, 0) == 0
    assert principal_subresultant(F, p, q, 1) != 0
    # coprime pair: nonzero resultant
    a = poly_from_roots(F, [1, 2])
    b = poly_from_roots(F, [3, 4])
    assert principal_subresultant(F, a, b, 0) != 0


def test_subresultant_matches_euclid_randomized():
    rng = random.Random(6)
    for _ in range(60):
        p = poly_trim([rng.randrange(13) for _ in range(rng.randrange(1, 5))] + [1])
        q = poly_trim([rng.randrange(13) for _ in range(rng.randrange(1, 5))] + [1])
        delta = poly_deg(poly_gcd(F, p, q))
        for i in range(min(poly_deg(p), poly_deg(q)) + 1):
            d = principal_subresultant(F, p, q, i)
            if i < delta:
                assert d == 0
            if i == delta:
                assert d != 0


def test_sigma_singular_iff_gcd_exceeds_overlap():
    alphas = list(range(9))
    k = 3
    q = poly_from_roots(F, alphas[:k])
    for I in [(0, 3, 4), (3, 4, 5), (0, 1, 3)]:
        overlap = len(set(I) & set(range(k)))
        for roots in [(0, 4, 7), (1, 2, 5), (4, 5, 6)]:
            p = poly_from_roots(F, roots)
            g = poly_deg(poly_gcd(F, p, q))
            M = sigma_I(F, p, q, k, I)
            if g > overlap:
                assert det(F, M) == 0
    # an overlap-zero frame is singular for any p sharing a root with q
    p = poly_from_roots(F, [0, 4, 7])
    assert det(F, sigma_I(F, p, q, k, (3, 4, 5))) == 0


def test_anchored_identity_exact():
    alphas = list(range(9))
    k = 3
    for I in [(0, 3, 4), (3, 4, 5), (0, 1, 3), (0, 1, 2)]:
        for L in [(0, 1, 2), (2, 5, 7), (4, 6, 8)]:
            assert sh_identity_check(F, alphas, L, k, I)
            assert sh_identity_check(F, alphas, L, k, I, lead=5)


def test_anchored_identity_sign_is_constant_per_frame():
    # the basis reordering sign depends only on (k, I), not on L or lead
    alphas = list(range(9))
    k, I = 3, (0, 3, 4)
    signs = set()
    for L in [(0, 1, 2), (2, 5, 7), (4, 6, 8), (1, 3, 5)]:
        lhs, rhs = sh_identity_sides(F, alphas, L, k, I, lead=2)
        if lhs == 0:
            continue
        signs.add(1 if lhs == rhs else -1)
    assert len(signs) == 1


def test_eta_matrix_is_square():
    alphas = list(range(9))
    M = eta_I(F, alphas, (2, 5, 7), 3, (0, 3, 4))
    assert len(M) == len(M[0])


def test_vandermonde_det():
    assert vandermonde_det(F, [0, 1, 2]) == 2
    assert vandermonde_det(F, [5]) == 1


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        sylvester_principal(F, [1, 1], [1, 1], 2)
    with pytest.raises(ValueError):
        sigma_I(F, [1, 1], poly_from_roots(F, [0, 1, 2]), 3, (0, 3, 4))
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        poly_divmod(F, [1, 2], [0, 0])
    with pytest.raises(ValueError, match="polynomials must be nonzero"):
        sylvester_principal(F, [0], [1, 1], 0)
    with pytest.raises(ValueError, match="I must be distinct nonnegative integers"):
        SubresultantFrame(3, (0, 2, 2))
    with pytest.raises(ValueError, match=r"need \|L\| = \|I\|"):
        eta_I(F, list(range(9)), (2, 5), 3, (0, 3, 4))
    # alphas[8] repeats alphas[0]
    with pytest.raises(ValueError, match="repeated roots"):
        sh_identity_sides(F, list(range(8)) + [0], (0, 5, 8), 3, (0, 3, 4))


def test_subresultant_frame_rejects_negative_k():
    with pytest.raises(ValueError):
        SubresultantFrame(-1, [0])
    frame = SubresultantFrame(0, [2])
    assert (frame.V0, frame.V1, frame.V2) == ((), (2,), (0, 1))
