"""Hamming graph codes.

A codeword assigns a field element to every m-tuple over {0..n-1}.
Generators are tensor vectors tau(M) of m x n matrices M with at least
t of their rows in a k-dimensional base code; the dimension is the size
of the radius-(m-t) ball around the anchor tuple set, and for n=2, k=1
the family specializes to binary Reed-Muller codes.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from graphcodes.combinat import hamming_shell_index, hamming_vertices
from graphcodes.field import FieldSpec, field_make
from graphcodes.jgc import certify_infosets, extend_base, systematic_rows
from graphcodes.matrix import Mat, rank, rref, tau


class HGCSpec:
    """Immutable description of a constructed Hamming graph code.

    Attributes mirror JGCSpec: base is k x n, r = m - t, vertices are
    the m-tuples in shell-block order around the anchor (0..k-1), and
    generator rows are tau(M) for row-index tuples I with at most m - t
    coordinates outside {0..k-1}.
    """

    def __init__(self, F: FieldSpec, base: Mat, m: int, t: int):
        k = len(base)
        n = len(base[0])
        _, pivots = rref(F, base)
        if len(pivots) != k:
            raise ValueError("base matrix must have full rank")
        if not 0 < t <= m:
            raise ValueError(f"need 0 < t <= m, got t={t}, m={m}")
        self.F = F
        self.m = m
        self.n = n
        self.k = k
        self.t = t
        self.r = m - t
        self.base = [list(row) for row in base]
        self.g = extend_base(self.base, pivots)
        self.vertices = hamming_vertices(m, n, anchor=range(k))
        self.vertex_pos = {L: i for i, L in enumerate(self.vertices)}
        self.basis_index = [self.vertices[i] for i in self.ball(range(k))]
        self.generator = [
            tau(F, [self.g[i] for i in I], self.vertices)
            for I in self.basis_index
        ]
        self.dim = len(self.generator)

    @property
    def length(self) -> int:
        return self.n ** self.m

    def ball(self, A0: Sequence[int]) -> List[int]:
        """The positions, in ``vertices`` order, of B_r(A0^m): the tuples
        with at most r coordinates outside A0."""
        sA = set(A0)
        return [i for i, L in enumerate(self.vertices)
                if sum(x not in sA for x in L) <= self.r]

    def __repr__(self) -> str:
        return (
            f"HGCSpec(m={self.m}, n={self.n}, k={self.k}, t={self.t}, "
            f"r={self.r}, q={self.F.q}, dim={self.dim})"
        )


def construct_hgc(F: FieldSpec, base: Mat, m: int, t: int) -> HGCSpec:
    """Span of tau(M) over m x n matrices M with at least t base rows."""
    return HGCSpec(F, base, m, t)


# the Hamming certify is the Johnson one: both ask code.ball(A0)
certify_hgc_infosets = certify_infosets


def dual_hgc(code: HGCSpec) -> HGCSpec:
    """Dual graph code: built from the dual base with threshold m+1-t.

    Orthogonality factors through the per-row inner products, and the
    dimensions of the pair sum to n^m.
    """
    from graphcodes.matrix import nullspace

    D0 = nullspace(code.F, code.base)
    return HGCSpec(code.F, D0, code.m, code.m + 1 - code.t)


def hgc_unit_codeword(code: HGCSpec, A0: Sequence[int],
                      L: Sequence[int]) -> List[int]:
    """Codeword with value 1 at the tuple L and 0 at every other tuple
    at most as far from the anchor as L; for L on the boundary shell it
    vanishes on all of B_r(A0^m) except L.  Weight at most
    (n-k+1)^(m-s) for L on shell s, which is (n-k+1)^t on the boundary.

    Rows of M: the systematic base word for coordinates inside A0, the
    unit vector for coordinates outside.  Repeated coordinates simply
    repeat rows.
    """
    L = tuple(L)
    if hamming_shell_index(L, A0) > code.r:
        raise ValueError(f"tuple {L} lies outside the radius-{code.r} ball")
    F = code.F
    sA0 = set(A0)
    sys_rows = systematic_rows(F, code.base, sorted(A0))
    M = []
    for j in L:
        if j in sA0:
            M.append(sys_rows[j])
        else:
            M.append([1 if c == j else 0 for c in range(code.n)])
    word = tau(F, M, code.vertices)
    pivot = word[code.vertex_pos[L]]
    if pivot != 1:
        word = F.scale(F.inv(pivot), word)
    return word


def rm_generator(r: int, m: int) -> Mat:
    """Generator of the binary Reed-Muller code RM(r,m): evaluations of
    squarefree monomials of degree <= r at all tuples of {0,1}^m, in
    the same vertex order as HGC(m,2,1,r)."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    vertices = hamming_vertices(m, 2, anchor=(0,))
    rows = []
    for size in range(r + 1):
        for S in itertools.combinations(range(m), size):
            rows.append([
                1 if all(L[i] == 1 for i in S) else 0 for L in vertices
            ])
    return rows


def rm_equivalent(r: int, m: int) -> bool:
    """True when HGC(m,2,1,r) and RM(r,m) have equal row spaces."""
    F = field_make(2)
    code = construct_hgc(F, [[1, 1]], m, m - r)
    rm = rm_generator(r, m)
    if code.dim != len(rm):
        return False
    stacked = code.generator + rm
    return rank(F, stacked) == code.dim == rank(F, rm)
