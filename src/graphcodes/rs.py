"""Reed-Solomon bases and the graph codes they generate.

An [n, k] Reed-Solomon code evaluates polynomials of degree < k at n
distinct points.  Three bases of F[x]_{<n} are used: the monomials
x^i, the falling products f_i = (x - a_0)...(x - a_{i-1}), and the
block basis h_i (monomials below k, f_k shifted by x above).  The
leading k rows of each span the same code, and their v x v evaluation
minors feed the Johnson graph code construction.  ProductPolyCode
states the ball property of a Johnson graph code with products of
polynomials, one per vertex.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence

from graphcodes.combinat import johnson_vertices, layer
from graphcodes.field import FieldSpec, field_make
from graphcodes.jgc import JGCSpec, construct
from graphcodes.matrix import Mat, det, mat_mul, rank
from graphcodes.subres import poly_from_roots, poly_mul


class RSBasis:
    """n x n evaluation matrix for one of the three polynomial bases.

    rows[i][j] = basis polynomial i evaluated at alphas[j]; the
    polynomials themselves are kept in self.polys (ascending
    coefficients).
    """

    def __init__(self, F: FieldSpec, alphas: Sequence[int], form: str,
                 k: Optional[int] = None):
        n = len(alphas)
        if len(set(alphas)) != n:
            raise ValueError("evaluation points must be distinct")
        self.F = F
        self.alphas = list(alphas)
        self.form = form
        self.k = k
        if form == "monomial":
            polys = [[0] * i + [1] for i in range(n)]
        elif form == "triangular":
            polys = [poly_from_roots(F, alphas[:i]) for i in range(n)]
        elif form == "block":
            if k is None:
                raise ValueError("block form requires k")
            fk = poly_from_roots(F, alphas[:k])
            polys = [[0] * i + [1] for i in range(k)]
            polys += [poly_mul(F, fk, [0] * (i - k) + [1]) for i in range(k, n)]
        else:
            raise ValueError(f"unknown form {form!r}")
        self.polys = polys
        # row i holds the coefficients of polys[i] times the Vandermonde
        # matrix, i.e. its evaluations at every point
        self.rows = mat_mul(F, [p + [0] * (n - len(p)) for p in polys],
                            vandermonde(F, alphas))


def vandermonde(F: FieldSpec, alphas: Sequence[int]) -> Mat:
    """n x n matrix with entry (i, j) = alphas[j]**i."""
    if len(set(alphas)) != len(alphas):
        raise ValueError("evaluation points must be distinct")
    return [[F.pow(a, i) for a in alphas] for i in range(len(alphas))]


def det_h(basis: RSBasis, I: Sequence[int], L: Sequence[int]) -> int:
    """Determinant of the evaluation minor (rows I, points indexed by L)."""
    if len(I) != len(L):
        raise ValueError("row and column index sets must have equal size")
    F = basis.F
    sub = [[basis.rows[i][j] for j in L] for i in I]
    return det(F, sub)


def rs_jgc(n: int, v: int, k: int, t: int, q: int) -> JGCSpec:
    """Johnson graph code built on the leading k Vandermonde rows.

    The evaluation points (code.alphas) are the field elements 0 .. n-1,
    so every run reproduces the same generator.
    """
    if q < n:
        raise ValueError(f"need q >= n, got q={q}, n={n}")
    F = field_make(q)
    alphas = list(range(n))
    code = construct(F, [[F.pow(a, i) for a in alphas] for i in range(k)], v, t)
    code.alphas = alphas
    return code


class ProductPolyCode:
    """Rows f_L = prod of f_i over i in L, one per vertex of J(n,v).

    Here f_i = 1 + a_i x + ... + a_i^(n-v) x^(n-v), so f_L has degree
    v(n-v) and the matrix is C(n,v) x (v(n-v)+1).  Rows are indexed by
    vertices (unlike JGCSpec, whose columns are).

    Paper claim (the ball property in product-polynomial form): when
    gcd(n-v+1, q-1) = 1, for every v-subset anchor A the 1 + v(n-v)
    rows of the radius-1 ball, {f_L : |L & A| >= v-1}, are a basis of
    the polynomials of degree at most v(n-v); anchor_basis_ok(A)
    checks it.
    """

    def __init__(self, n: int, v: int, q: int):
        if gcd(n - v + 1, q - 1) != 1:
            raise ValueError(
                f"need gcd(n-v+1, q-1) = 1, got gcd({n - v + 1}, {q - 1})"
            )
        if q < n:
            raise ValueError(f"need q >= n, got q={q}, n={n}")
        F = field_make(q)
        self.F = F
        self.n = n
        self.v = v
        self.alphas = list(range(n))
        fs = []
        for a in self.alphas:
            fs.append([F.pow(a, d) for d in range(n - v + 1)])
        self.factors = fs
        self.vertices = johnson_vertices(n, v)
        rows = []
        width = v * (n - v) + 1
        for L in self.vertices:
            prod = [1]
            for i in L:
                prod = poly_mul(F, prod, fs[i])
            rows.append(list(prod) + [0] * (width - len(prod)))
        self.rows = rows

    def basis_rows(self, A: Sequence[int]) -> List[int]:
        """Indices of the rows {f_L : |L & A| >= v-1} for an anchor A."""
        A = set(layer(A))
        return [i for i, L in enumerate(self.vertices)
                if len(A.intersection(L)) >= self.v - 1]

    def anchor_basis_ok(self, A: Sequence[int]) -> bool:
        """True when the anchored rows are independent and span."""
        idx = self.basis_rows(A)
        width = self.v * (self.n - self.v) + 1
        if len(idx) != width:
            return False
        sub = [self.rows[i] for i in idx]
        return rank(self.F, sub) == width
