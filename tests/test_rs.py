"""Reed-Solomon bases and their graph codes."""

import random
from itertools import combinations
from math import comb

import pytest

from graphcodes.field import field_make
from graphcodes.jgc import certify_infosets
from graphcodes.matrix import rank
from graphcodes.rs import (
    ProductPolyCode,
    RSBasis,
    det_h,
    rs_jgc,
    vandermonde,
)
from graphcodes.subres import vandermonde_det

F7 = field_make(7)


def test_vandermonde_entries():
    V = vandermonde(F7, [0, 1, 2])
    assert V == [[1, 1, 1], [0, 1, 2], [0, 1, 4]]
    with pytest.raises(ValueError):
        vandermonde(F7, [1, 1])
    with pytest.raises(ValueError, match="evaluation points must be distinct"):
        RSBasis(F7, [1, 1], "monomial")


def test_three_forms_share_leading_row_space():
    F = field_make(13)
    alphas = list(range(7))
    k = 3
    mono = RSBasis(F, alphas, "monomial")
    tri = RSBasis(F, alphas, "triangular")
    blk = RSBasis(F, alphas, "block", k=k)
    for kk in range(1, 7):
        forms = [mono.rows[:kk], tri.rows[:kk]]
        if kk >= k:
            forms.append(blk.rows[:kk])
        for rows in forms[1:]:
            assert rank(F, forms[0] + rows) == kk


def test_triangular_form_is_upper_triangular():
    F = field_make(11)
    tri = RSBasis(F, list(range(6)), "triangular")
    for i in range(6):
        for j in range(i):
            assert tri.rows[i][j] == 0


def test_block_form_vanishes_on_anchor():
    F = field_make(11)
    k = 3
    blk = RSBasis(F, list(range(6)), "block", k=k)
    for i in range(k, 6):
        assert all(blk.rows[i][j] == 0 for j in range(k))
    with pytest.raises(ValueError):
        RSBasis(F, list(range(6)), "block")
    with pytest.raises(ValueError, match="unknown form 'newton'"):
        RSBasis(F, list(range(6)), "newton")


def test_det_h_monomial_rows_give_vandermonde():
    F = field_make(13)
    alphas = list(range(7))
    blk = RSBasis(F, alphas, "block", k=3)
    for L in combinations(range(7), 4):
        pts = [alphas[j] for j in L]
        assert det_h(blk, range(4), L) == vandermonde_det(F, pts)
    with pytest.raises(ValueError, match="equal size"):
        det_h(blk, range(3), (0, 1))


def test_det_h_block_triangular_row_equality():
    # rows {0..t-1} u {k..k+v-t-1} give equal minors in both reduced forms
    F = field_make(13)
    alphas = list(range(7))
    k, v = 3, 4
    tri = RSBasis(F, alphas, "triangular")
    blk = RSBasis(F, alphas, "block", k=k)
    for t in range(0, min(v, k) + 1):
        I = list(range(t)) + list(range(k, k + v - t))
        for L in combinations(range(7), v):
            assert det_h(tri, I, L) == det_h(blk, I, L)


def test_rs_jgc_certifies_every_anchor():
    for (n, v, k, t, q) in [(5, 2, 2, 1, 5), (6, 3, 2, 1, 7), (6, 4, 3, 2, 7)]:
        report = certify_infosets(rs_jgc(n, v, k, t, q))
        assert report["fail"] == [] and report["skipped"] == []
        assert len(report["pass"]) == comb(n, k)
    with pytest.raises(ValueError):
        rs_jgc(8, 3, 2, 1, 7)


def test_product_poly_anchor_bases():
    code = ProductPolyCode(5, 3, 8)
    assert len(code.rows) == comb(5, 3)
    assert all(len(row) == 3 * 2 + 1 for row in code.rows)
    for A in combinations(range(5), 3):
        assert code.anchor_basis_ok(A)


def test_product_poly_short_anchor_is_not_a_basis():
    # an anchor of two nodes has 3 rows f_L with |L & A| >= 2, not 7
    code = ProductPolyCode(5, 3, 8)
    assert len(code.basis_rows((0, 1))) == 3
    assert code.anchor_basis_ok((0, 1)) is False


def test_product_poly_gcd_precondition():
    # n-v+1 = 3 shares a factor with q-1 = 6
    with pytest.raises(ValueError):
        ProductPolyCode(5, 3, 7)
    # gcd(2, 3) = 1, but GF(4) has too few points for n = 5
    with pytest.raises(ValueError, match="need q >= n, got q=4, n=5"):
        ProductPolyCode(5, 4, 4)
