"""Subset enumeration, shells and balls on the Johnson graph."""

from math import comb

import pytest

from graphcodes.combinat import (
    ball,
    ball_size,
    bruhat_height,
    bruhat_leq,
    complement,
    graph_params,
    hamming_ball,
    hamming_shell_index,
    hamming_vertices,
    johnson_vertices,
    layer,
    layer_str,
    shell,
    shell_index,
    sign_of,
)


def test_layer_normalizes_and_prints():
    assert layer([3, 1, 2]) == (1, 2, 3)
    assert layer_str((0, 2, 4), 5) == "024"
    assert layer_str((0, 3, 10), 11) == "0,3,10"  # past n = 10, digits need commas
    assert complement((1, 3), 5) == (0, 2, 4)


def test_johnson_vertex_counts():
    for n in range(2, 8):
        for v in range(1, n + 1):
            verts = johnson_vertices(n, v)
            assert len(verts) == comb(n, v)
            assert len(set(verts)) == comb(n, v)
            assert verts == sorted(verts)


def test_klex_order_groups_by_anchor_overlap():
    # klex around k=2: blocks 012,013,014 | 023,... ,134 | 234
    verts = johnson_vertices(5, 3, k=2)
    assert verts[:3] == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert verts[-1] == (2, 3, 4)
    A = (0, 1)
    shells = [shell_index(L, A) for L in verts]
    assert shells == sorted(shells)
    # within each shell the order is plain lexicographic
    for s in set(shells):
        block = [L for L, i in zip(verts, shells) if i == s]
        assert block == sorted(block)


def test_shell_index_is_symmetric_min():
    assert shell_index((0, 1, 2), (0, 1)) == 0
    assert shell_index((0, 1, 2), (0, 1, 3)) == 1
    assert shell_index((2, 3, 4), (0, 1)) == 2
    assert shell_index((0, 1), (0, 1, 2)) == 0
    assert shell_index((0, 3), (0, 1, 2)) == 1
    # shell r from A is shell R-r from the complement of A
    n, v, k = 6, 3, 4
    A = (0, 1, 2, 3)
    Ac = complement(A, n)
    _, _, R = graph_params(n, v, k)
    for L in johnson_vertices(n, v):
        assert shell_index(L, A) + shell_index(L, Ac) == R


def test_ball_and_shell_sizes_match_closed_form():
    for (n, v, k) in [(6, 3, 2), (7, 4, 3), (8, 5, 4), (7, 3, 5)]:
        A = tuple(range(k))
        for r in range(min(v, k, n - v, n - k) + 1):
            B = ball(A, r, n, v)
            assert len(B) == ball_size(n, v, k, r)
            S = shell(A, r, n, v)
            assert S == {L for L in B if shell_index(L, A) == r}


def test_ball_size_oracles():
    # J(7,4) around a 3-subset: radii 0..3
    assert ball_size(7, 4, 3, 0) == 4
    assert ball_size(7, 4, 3, 1) == 22
    assert ball_size(7, 4, 3, 2) == 34
    assert ball_size(7, 4, 3, 3) == comb(7, 4)
    # anchor larger than the layer size
    assert ball_size(8, 5, 7, 0) == 21
    assert ball_size(8, 5, 7, 1) == comb(8, 5)


def test_sign_of():
    assert sign_of((0, 1, 2)) == 1
    assert sign_of((0, 1, 3)) == -1
    assert sign_of((0, 2, 4)) == -1
    assert sign_of((1, 2, 4)) == 1


def test_hamming_vertices_shell_blocks():
    verts = hamming_vertices(2, 4, anchor=(0, 1))
    assert len(verts) == 16
    assert verts[:4] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = [hamming_shell_index(L, (0, 1)) for L in verts]
    assert idx == sorted(idx)
    assert idx.count(0) == 4 and idx.count(1) == 8 and idx.count(2) == 4


def test_hamming_ball():
    B0 = hamming_ball((0, 1), 0, 2, 4)
    assert B0 == {(0, 0), (0, 1), (1, 0), (1, 1)}
    B1 = hamming_ball((0, 1), 1, 2, 4)
    assert len(B1) == 12
    assert (2, 3) not in B1


def test_bruhat_order():
    assert bruhat_leq((0, 1), (0, 2))
    assert bruhat_leq((0, 2), (1, 2))
    assert not bruhat_leq((1, 2), (0, 3))
    assert bruhat_height((0, 1, 2)) == bruhat_height((0, 1, 2))
    assert bruhat_height((1, 2)) > bruhat_height((0, 2))


def test_ball_size_negative_radius_is_empty():
    assert ball_size(6, 3, 2, -1) == 0
    assert ball((0, 1), -1, 6, 3) == set()


@pytest.mark.parametrize("call, match", [
    (lambda: layer([1, 2, 1]), "layer elements must be distinct"),
    (lambda: johnson_vertices(3, 4), "need 0 <= v <= n, got v=4, n=3"),
    (lambda: hamming_ball((0, 1), 3, 2, 4), "need 0 <= r <= m, got r=3, m=2"),
], ids=["layer", "johnson_vertices", "hamming_ball"])
def test_typed_input_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()
