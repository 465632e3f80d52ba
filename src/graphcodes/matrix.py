"""Exact dense linear algebra over GF(q).

Matrices are lists of rows; each row is a list of field elements
(integers in [0, q)).  Every function takes the FieldSpec first and
does its arithmetic with the field's vector operations (``F.dot``,
``F.sub_mul``, ``F.scale``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import johnson_vertices, sign_of
from graphcodes.field import FieldSpec

Mat = List[List[int]]


def zeros(rows: int, cols: int) -> Mat:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_mat(M: Mat) -> Mat:
    return [list(row) for row in M]


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


def dot(F: FieldSpec, x: Sequence[int], y: Sequence[int]) -> int:
    return F.dot(x, y)


def det(F: FieldSpec, M: Mat) -> int:
    """Determinant by Gaussian elimination (exact over the field).

    Each step takes the first row with a nonzero leading entry as the
    pivot (moving it to the top is a cyclic shift of ``top`` rows, sign
    (-1)^top), clears the first column of the other rows and drops the
    pivot row and the first column.
    """
    n = len(M)
    if M and set(map(len, M)) != {n}:
        raise ValueError("determinant requires a square matrix")
    sub_mul = F.sub_mul
    rows = M
    d = 1
    while rows:
        for top, row in enumerate(rows):
            if row[0]:
                break
        else:
            return 0
        if top % 2:
            d = F.neg(d)
        head, *tail = row
        d = F.mul(d, head)
        tail = F.scale(F.inv(head), tail)
        rows = [sub_mul(r[1:], r[0], tail) if r[0] else r[1:]
                for r in rows[:top] + rows[top + 1:]]
    return d


def rref(F: FieldSpec, M: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    A = copy_mat(M)
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
    if not M:
        return 0
    _, pivots = rref(F, M)
    return len(pivots)


def column_rank_test(F: FieldSpec, M: Mat) -> Callable[[Sequence[int]], bool]:
    """``spans(cols)``: whether M restricted to the columns cols has full
    row rank, i.e. ``rank(take_columns(M, cols)) == len(M)``.

    M is row-reduced once, R = rref(M) with pivot columns P.  Row
    operations keep the rank of every column subset, and the columns of
    P in S are unit columns of R, so M[:, S] has full row rank exactly
    when |P| = len(M) and the block of R on the rows whose pivot lies
    outside S and the columns of S outside P has full row rank.  That
    block has at most min(len(M), n - |S|) rows and none when P lies in
    S; each call is one rank of it.
    """
    R, pivots = rref(F, M)
    if len(pivots) < len(M):
        return lambda cols: False
    pivot_set = set(pivots)

    def spans(cols: Sequence[int]) -> bool:
        inside = set(cols)
        rows = [row for row, p in zip(R, pivots) if p not in inside]
        free = [c for c in cols if c not in pivot_set]
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


def submatrix(M: Mat, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    return [[M[i][j] for j in cols] for i in rows]


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


def all_minors(F: FieldSpec, M: Mat, smax: int) -> Dict[Tuple[int, ...], List[int]]:
    """Every s x s minor of M for s <= smax, without elimination.

    ``minors[R][i]`` is the determinant of M on the rows R (a sorted
    s-tuple) and on the i-th s-subset of columns in the order of
    ``itertools.combinations(range(n), s)``; ``minors[()] == [1]``.
    Each s-minor is a Laplace expansion along its last row, from the
    (s-1)-minors on the row prefix R[:-1]: about
    sum_s C(k,s) C(n,s) s products for a k x n matrix.
    """
    k, n = len(M), len(M[0])
    dot, scale, minus_one = F.dot, F.scale, F.neg(1)
    minors = {(): [1]}
    prev_index = {(): 0}
    for s in range(1, smax + 1):
        cols = list(combinations(range(n), s))
        # for each column subset C, the positions of C minus C[j] among
        # the (s-1)-subsets, j = 0..s-1
        drops = [[prev_index[C[:j] + C[j + 1:]] for j in range(s)] for C in cols]
        for R in combinations(range(k), s):
            head = minors[R[:-1]]
            row = M[R[-1]]
            # the cofactor of entry (s-1, j) carries (-1)^(s-1+j)
            both = (row, scale(minus_one, row))
            signed = [both[(s - 1 + j) % 2] for j in range(s)]
            minors[R] = [dot([r[c] for r, c in zip(signed, C)],
                             [head[d] for d in drop])
                         for C, drop in zip(cols, drops)]
        prev_index = {C: i for i, C in enumerate(cols)}
    return minors


def compound_row(F: FieldSpec, g: Mat, I: Sequence[int],
                 vertices: Sequence[Sequence[int]]) -> List[int]:
    """Row I of the compound matrix: pi of the rows of g indexed by I."""
    return pi(F, [g[i] for i in I], vertices)


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
    mat = [compound_row(F, g, I, vertices) for I in vertices]
    return mat, vertices
