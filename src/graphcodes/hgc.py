"""Hamming graph codes.

A codeword assigns a field element to every m-tuple over {0..n-1}.
Generators are tensor vectors tau(M) of m x n matrices M with at least
t of their rows in a k-dimensional base code; the dimension is the size
of the radius-(m-t) ball around the anchor tuple set, and for n=2, k=1
the family specializes to binary Reed-Muller codes.  The dual, unit
codewords, certification and decoding are jgc's, shared through
jgc.GraphCode.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from graphcodes.combinat import hamming_vertices
from graphcodes.field import FieldSpec, field_make
from graphcodes.jgc import GraphCode, certify_infosets
from graphcodes.matrix import Mat, rank, tau


class HGCSpec(GraphCode):
    """Immutable description of a constructed Hamming graph code.

    Attributes, besides GraphCode's: m, with r = m - t.  Vertices are
    the m-tuples in shell-block order around the anchor (0..k-1), and
    generator rows are tau(M) for the row-index tuples I in
    basis_index, those with at most m - t coordinates outside {0..k-1}.
    """

    _repr_params = ("m", "n")

    def __init__(self, F: FieldSpec, base: Mat, m: int, t: int):
        self.m = m
        super().__init__(F, base, t, m,
                         hamming_vertices(m, len(base[0]), range(len(base))))

    def coords(self, M: Mat) -> List[int]:
        return tau(self.F, M, self.vertices)

    def _dual_code(self, D0: Mat) -> HGCSpec:
        return HGCSpec(self.F, D0, self.m, self.m + 1 - self.t)

    def ball(self, A0: Sequence[int]) -> List[int]:
        """The positions, in ``vertices`` order, of B_r(A0^m): the tuples
        with at most r coordinates outside A0."""
        sA = set(A0)
        return [i for i, L in enumerate(self.vertices)
                if sum(x not in sA for x in L) <= self.r]


def construct_hgc(F: FieldSpec, base: Mat, m: int, t: int) -> HGCSpec:
    """Span of tau(M) over m x n matrices M with at least t base rows."""
    return HGCSpec(F, base, m, t)


# the Hamming certify is the Johnson one: both ask code.ball(A0)
certify_hgc_infosets = certify_infosets


def rm_generator(r: int, m: int) -> Mat:
    """Generator of the binary Reed-Muller code RM(r,m): evaluations of
    squarefree monomials of degree <= r at all tuples of {0,1}^m, in
    the same vertex order as HGC(m,2,1,r)."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    vertices = hamming_vertices(m, 2, (0,))
    rows = []
    for size in range(r + 1):
        for S in itertools.combinations(range(m), size):
            rows.append([
                1 if all(L[i] == 1 for i in S) else 0 for L in vertices
            ])
    return rows


def rm_equivalent(r: int, m: int) -> bool:
    """True when HGC(m,2,1,r) and RM(r,m) have equal row spaces; the
    graph code needs a threshold t = m - r > 0, so 0 <= r < m."""
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m, got r={r}, m={m}")
    F = field_make(2)
    code = construct_hgc(F, [[1, 1]], m, m - r)
    rm = rm_generator(r, m)
    if code.dim != len(rm):
        return False
    stacked = code.generator + rm
    return rank(F, stacked) == code.dim == rank(F, rm)
