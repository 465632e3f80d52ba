"""Exact dense linear algebra over GF(q).

Matrices are lists of rows; each row is a list of field elements
(integers in [0, q)).  Every function that computes in the field takes
the FieldSpec first and does its arithmetic with the field's vector
operations (``F.dot``, ``F.sub_mul``, ``F.scale``, ``F.column_dots``); a
scalar product of two vectors is ``F.dot`` itself.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import johnson_vertices, sign_of
from graphcodes.field import FieldSpec

Mat = List[List[int]]


def transpose(M: Mat) -> Mat:
    return [list(col) for col in zip(*M)]


def mat_mul(F: FieldSpec, A: Mat, B: Mat) -> Mat:
    if len(A[0]) != len(B):
        raise ValueError(f"shape mismatch: {len(A)}x{len(A[0])} times {len(B)}x{len(B[0])}")
    Bt = transpose(B)
    dot = F.dot
    return [[dot(arow, bcol) for bcol in Bt] for arow in A]


def mat_vec(F: FieldSpec, A: Mat, x: Sequence[int]) -> List[int]:
    dot = F.dot
    return [dot(row, x) for row in A]


def _eliminate(F: FieldSpec, rows: Mat):
    """Forward elimination, one column at a time from the left.

    Yields None for a column that is zero on every remaining row, and
    otherwise (top, head): the position of the first remaining row with
    a nonzero entry there (the pivot) and that entry.  The pivot row
    then clears the column of the other rows and is dropped; the column
    is dropped either way.  Stops when no row or no column is left, so
    the pivots it yields number the rank.
    """
    sub_mul = F.sub_mul
    while rows and rows[0]:
        for top, row in enumerate(rows):
            if row[0]:
                break
        else:
            yield None
            rows = [r[1:] for r in rows]
            continue
        head, *tail = row
        yield top, head
        tail = F.scale(F.inv(head), tail)
        rows = [sub_mul(r[1:], r[0], tail) if r[0] else r[1:]
                for r in rows[:top] + rows[top + 1:]]


def det(F: FieldSpec, M: Mat) -> int:
    """Determinant by Gaussian elimination (exact over the field).

    Moving each pivot to the top is a cyclic shift of ``top`` rows, sign
    (-1)^top, and a zero column makes the determinant 0 (_eliminate).
    """
    n = len(M)
    if M and set(map(len, M)) != {n}:
        raise ValueError("determinant requires a square matrix")
    d = 1
    for step in _eliminate(F, M):
        if step is None:
            return 0
        top, head = step
        if top % 2:
            d = F.neg(d)
        d = F.mul(d, head)
    return d


def rref(F: FieldSpec, M: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    A = [list(row) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    sub_mul = F.sub_mul
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        # row r is zero left of column c, so only columns c.. change
        prow = F.scale(F.inv(A[r][c]), A[r][c:])
        A[r][c:] = prow
        for i in range(rows):
            row = A[i]
            if i != r and row[c]:
                row[c:] = sub_mul(row[c:], row[c], prow)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rank(F: FieldSpec, M: Mat) -> int:
    """The number of pivots of forward elimination, with no back
    substitution (_eliminate)."""
    return sum(step is not None for step in _eliminate(F, M))


def column_rank_test(F: FieldSpec, M: Mat) -> Callable[[Sequence[int]], bool]:
    """``spans(cols)``: whether M restricted to the columns cols has full
    row rank, i.e. ``rank(take_columns(M, cols)) == len(M)``.

    A square M has one column set that can reach full row rank, all of
    its columns, so it costs one forward rank and no rref.  Otherwise M
    is row-reduced once, R = rref(M) with pivot columns P.  Row
    operations keep the rank of every column subset, and the columns of
    P in S are unit columns of R, so M[:, S] has full row rank exactly
    when |P| = len(M) and the block of R on the rows whose pivot lies
    outside S and the columns of S outside P has full row rank.  That
    block is empty when P lies in S (True, no list built); one row is
    answered by a nonzero entry, 2x2 by its determinant, and only a
    larger block is ranked.  Row and column order inside the block do
    not matter: permutations keep the rank.
    """
    if M and len(M[0]) == len(M):
        full = rank(F, M) == len(M)
        return lambda cols: full and len(set(cols)) == len(M)
    R, pivots = rref(F, M)
    if len(pivots) < len(M):
        return lambda cols: False
    pivot_set = frozenset(pivots)
    row_of = dict(zip(pivots, R))
    mul = F.mul

    def spans(cols: Sequence[int]) -> bool:
        missing = pivot_set.difference(cols)
        if not missing:
            return True
        free = [c for c in cols if c not in pivot_set]
        rows = [row_of[p] for p in missing]
        if len(rows) == 1:
            row = rows[0]
            return any(row[c] for c in free)
        if len(free) == 2 == len(rows):
            (a, b), (c, d) = ([row[j] for j in free] for row in rows)
            return mul(a, d) != mul(b, c)
        return rank(F, [[row[c] for c in free] for row in rows]) == len(rows)

    return spans


def nullspace(F: FieldSpec, M: Mat) -> Mat:
    """Basis of the right kernel, one row per basis vector."""
    if not M:
        return []
    R, pivots = rref(F, M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * cols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = F.neg(R[r][f])
        basis.append(vec)
    return basis


def solve(F: FieldSpec, A: Mat, b: Sequence[int]) -> Optional[List[int]]:
    """One solution of A x = b, or None if inconsistent."""
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    R, pivots = rref(F, aug)
    cols = len(A[0])
    if cols in pivots:
        return None
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = R[r][cols]
    return x


def take_columns(M: Mat, cols: Sequence[int]) -> Mat:
    return [[row[j] for j in cols] for row in M]


def pi(F: FieldSpec, M: Mat, vertices: Sequence[Sequence[int]]) -> List[int]:
    """Plucker coordinates: det of the v x v column minor at each vertex L."""
    v = len(M)
    n = len(M[0])
    if v > n:
        raise ValueError(f"pi needs a v x n matrix with v <= n, got {v} x {n}")
    return [det(F, [[row[j] for j in L] for row in M]) for L in vertices]


def pi_signed(F: FieldSpec, M: Mat, vertices: Sequence[Sequence[int]]) -> List[int]:
    """sign(L) * pi(M)_L: det of M extended by the unit rows I_{L^c}."""
    coords = pi(F, M, vertices)
    return [x if sign_of(L) == 1 else F.neg(x) for x, L in zip(coords, vertices)]


def tau(F: FieldSpec, M: Mat, tuples: Sequence[Sequence[int]]) -> List[int]:
    """Tensor coordinates: product of M[i][L_i] over rows i, per m-tuple L."""
    out = []
    for L in tuples:
        prod = 1
        for i, c in enumerate(L):
            prod = F.mul(prod, M[i][c])
            if prod == 0:
                break
        out.append(prod)
    return out


def getter(pos: Sequence[int]):
    """itemgetter(*pos), but returning a tuple for any number of positions."""
    if len(pos) == 1:
        return lambda x, i=pos[0]: (x[i],)
    return itemgetter(*pos) if pos else lambda x: ()


def all_minors(F: FieldSpec, M: Mat, smax: int) -> Dict[Tuple[int, ...], List[int]]:
    """Every s x s minor of M for s <= smax, without elimination.

    ``minors[R][i]`` is the determinant of M on the rows R (a sorted
    s-tuple) and on the i-th s-subset of columns in the order of
    ``itertools.combinations(range(n), s)``; ``minors[()] == [1]``.
    Each s-minor is a Laplace expansion along its last row, from the
    (s-1)-minors on the row prefix R[:-1]: about sum_s C(k,s) C(n,s) s
    products for a k x n matrix.  They are made by s column passes per
    row subset R, not one dot per minor: pass j gathers, for every
    column subset C at once, the row's entry at C[j] and the (s-1)-minor
    of C minus C[j], and ``F.column_dots`` sums the s products of each C.
    """
    k, n = len(M), len(M[0])
    column_dots, scale, minus_one = F.column_dots, F.scale, F.neg(1)
    minors = {(): [1]}
    prev_index = {(): 0}
    for s in range(1, smax + 1):
        cols = list(combinations(range(n), s))
        # pass j: the entry at C[j], with the cofactor sign (-1)^(s-1+j),
        # and the position of C minus C[j] among the (s-1)-subsets
        passes = [(getter([C[j] for C in cols]), (s - 1 + j) % 2,
                   getter([prev_index[C[:j] + C[j + 1:]] for C in cols])) for j in range(s)]
        for R in combinations(range(k), s):
            head = minors[R[:-1]]
            row = M[R[-1]]
            both = (row, scale(minus_one, row))
            minors[R] = column_dots([entry(both[odd]) for entry, odd, _ in passes],
                                    [drop(head) for _, _, drop in passes])
        prev_index = {C: i for i, C in enumerate(cols)}
    return minors


def compound(F: FieldSpec, g: Mat, v: int) -> Tuple[Mat, List[Tuple[int, ...]]]:
    """Full compound matrix of all v x v minors of the n x n matrix g.

    Returns (matrix, vertex list in lex order); entry [I][L] = det(g
    restricted to rows I, columns L).  Materialized only for n <= 10
    (C(10,5) = 252).
    """
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("compound requires a square matrix")
    if n > 10:
        raise ValueError("full compound matrix materialized only for n <= 10")
    vertices = johnson_vertices(n, v)
    mat = [pi(F, [g[i] for i in I], vertices) for I in vertices]
    return mat, vertices
