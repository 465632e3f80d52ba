"""Hamming graph codes and the Reed-Muller specialization."""

import itertools

import pytest

import reference
from graphcodes import jgc
from graphcodes.combinat import hamming_vertices
from graphcodes.field import field_make
from graphcodes.hgc import (
    certify_hgc_infosets,
    construct_hgc,
    rm_equivalent,
    rm_generator,
)
from graphcodes.jgc import dual as dual_hgc, unit_codeword as hgc_unit_codeword
from graphcodes.matrix import rank, tau
from reference import hamming_shell_index

F2 = field_make(2)

# running example: non-MDS [4,2] binary base code
EXAMPLE_BASE = [[1, 0, 1, 1], [0, 1, 0, 1]]


def test_example_dimension_and_blocks():
    code = construct_hgc(F2, EXAMPLE_BASE, 2, 1)
    assert code.length == 16
    assert code.dim == 12  # ball of radius 1 around the 4 anchor tuples


def test_tau_example_word():
    code = construct_hgc(F2, EXAMPLE_BASE, 2, 1)
    M = [[0, 0, 1, 0], [0, 1, 0, 1]]
    word = tau(F2, M, code.vertices)
    blocks = (word[:4], word[4:12], word[12:])
    assert blocks[0] == [0, 0, 0, 0]
    assert blocks[1] == [0, 0, 0, 0, 0, 1, 0, 0]
    assert blocks[2] == [0, 1, 0, 0]


def test_example_certification():
    code = construct_hgc(F2, EXAMPLE_BASE, 2, 1)
    report = certify_hgc_infosets(code)
    assert report["fail"] == []
    assert report["skipped"] == [(0, 2)]
    assert len(report["pass"]) == 5


def test_generator_rank_equals_dim():
    code = construct_hgc(F2, EXAMPLE_BASE, 2, 1)
    assert rank(F2, code.generator) == code.dim


def test_dual_dimensions_and_orthogonality():
    code = construct_hgc(F2, EXAMPLE_BASE, 2, 1)
    dcode = dual_hgc(code)
    assert code.dim + dcode.dim == code.length
    pos = {L: i for i, L in enumerate(dcode.vertices)}
    for c in code.generator:
        for d in dcode.generator:
            s = 0
            for x, L in zip(c, code.vertices):
                s = F2.add(s, F2.mul(x, d[pos[L]]))
            assert s == 0


def test_unit_codeword_weight_bound():
    code = construct_hgc(F2, EXAMPLE_BASE, 2, 1)
    A0 = (0, 1)
    for L in code.vertices:
        shell = hamming_shell_index(L, A0)
        if shell > code.r:
            continue
        # one factor of weight <= n-k+1 per coordinate inside the anchor
        bound = (code.n - code.k + 1) ** (code.m - shell)
        word = hgc_unit_codeword(code, A0, L)
        assert word[code.vertex_pos[L]] == 1
        for Lp in code.vertices:
            if Lp != L and hamming_shell_index(Lp, A0) <= shell:
                assert word[code.vertex_pos[Lp]] == 0
        assert sum(1 for x in word if x) <= bound
    with pytest.raises(ValueError):
        hgc_unit_codeword(code, A0, (2, 3))


def test_rm_generator_oracle():
    # RM(1,2): 1, x1, x0 evaluated on {0,1}^2
    rows = rm_generator(1, 2)
    assert len(rows) == 3
    assert rows[0] == [1, 1, 1, 1]
    verts = hamming_vertices(2, 2, anchor=(0,))
    for row, S in zip(rows[1:], [(0,), (1,)]):
        assert row == [1 if all(L[i] == 1 for i in S) else 0 for L in verts]


def test_rm_equivalence_small():
    for m in range(1, 4):
        for r in range(m):
            assert rm_equivalent(r, m)


def test_dimension_formula_varies_with_t():
    dims = [construct_hgc(F2, EXAMPLE_BASE, 2, t).dim for t in (1, 2)]
    assert dims == [12, 4]
    with pytest.raises(ValueError):
        construct_hgc(F2, EXAMPLE_BASE, 2, 3)


def test_dim_is_the_generator_row_count_before_the_rows_are_built():
    F3 = field_make(3)
    bases = [(F2, EXAMPLE_BASE), (F2, [[1, 1]]), (F2, [[1, 0, 1]]),
             (F3, [[1, 1, 1]]), (F3, [[1, 0, 1], [0, 1, 2]])]
    for F, base in bases:
        for m in range(1, 4):
            for t in range(1, m + 1):
                code = construct_hgc(F, base, m, t)
                assert "generator" not in vars(code)
                dim = code.dim
                assert dim == len(code.generator)
                assert dim == len(code.ball(range(code.k)))


def test_certify_reports_equal_the_reference(monkeypatch):
    # the Hamming codes of the dimension test: the reports agree with a
    # rank test that ranks every block
    F3 = field_make(3)
    bases = [(F2, EXAMPLE_BASE), (F2, [[1, 1]]), (F2, [[1, 0, 1]]),
             (F3, [[1, 1, 1]]), (F3, [[1, 0, 1], [0, 1, 2]])]
    codes = [construct_hgc(F, base, m, t) for F, base in bases
             for m in range(1, 4) for t in range(1, m + 1)]
    reports = [certify_hgc_infosets(code) for code in codes]
    monkeypatch.setattr(jgc, "column_rank_test", reference.column_rank_test)
    assert [certify_hgc_infosets(code) for code in codes] == reports


def test_typed_input_errors():
    with pytest.raises(ValueError, match="full rank"):
        construct_hgc(F2, [[1, 0, 1, 1], [1, 0, 1, 1]], 2, 1)
    for r in (-1, 3):
        with pytest.raises(ValueError, match="need 0 <= r <= m"):
            rm_generator(r, 2)
    for r in (-1, 2):
        with pytest.raises(ValueError, match=f"need 0 <= r < m, got r={r}"):
            rm_equivalent(r, 2)


def test_empty_or_non_symbol_base_rejected():
    for base in ([], [[]]):
        with pytest.raises(ValueError, match="at least one row and one column"):
            construct_hgc(F2, base, 2, 1)
    with pytest.raises(ValueError, match="1.0 is not an element of GF"):
        construct_hgc(F2, [[1.0, 1]], 2, 1)
