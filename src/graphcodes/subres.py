"""Sylvester matrices, principal subresultants, and their anchored
generalizations.

Polynomials are coefficient lists in ascending degree with no trailing
zeros (the zero polynomial is the empty list).  ``poly_trim``,
``poly_mul`` and ``poly_divmod`` live in ``field``, which builds the
GF(p^m) tables with them, and are imported from there.  For p of
degree v and q of degree k, the i-th principal subresultant is the
determinant of a square matrix projecting (a, b) -> a p + b q onto
leading coefficients; it vanishes whenever deg gcd(p, q) > i.  The
anchored map sigma_I and its evaluation form eta_I generalize this to
an arbitrary index set I of row degrees, tied together by the
determinant identity det(ev_L) det(sigma_I) = p0^(m-v) det(eta_I).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from graphcodes.field import FieldSpec, Poly, poly_divmod, poly_mul, poly_trim
from graphcodes.matrix import Mat, det


def poly_deg(p: Sequence[int]) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(poly_trim(p)) - 1


def poly_scale(F: FieldSpec, c: int, p: Sequence[int]) -> Poly:
    return poly_trim(F.scale(c, p))


def poly_eval(F: FieldSpec, p: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(list(p)):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_from_roots(F: FieldSpec, roots: Sequence[int]) -> Poly:
    p = [1]
    for r in roots:
        p = poly_mul(F, p, [F.neg(r), 1])
    return p


def poly_gcd(F: FieldSpec, p: Sequence[int], q: Sequence[int]) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(F, a, b)
        a, b = b, r
    if a:
        a = poly_scale(F, F.inv(a[-1]), a)
    return a


def _coeff(p: Sequence[int], d: int) -> int:
    return p[d] if 0 <= d < len(p) else 0


def sylvester_principal(F: FieldSpec, p: Sequence[int], q: Sequence[int],
                        i: int) -> Mat:
    """Matrix whose determinant is the i-th principal subresultant.

    p has degree v, q degree k; the matrix is (k+v-2i) square.  Row
    blocks list the leading k+v-2i coefficients of x^j p for
    j = k-i-1 .. 0 and of x^j q for j = v-i-1 .. 0, coefficients in
    descending degree.  i=0 recovers the full Sylvester matrix, whose
    determinant vanishes exactly when gcd(p, q) is nontrivial.
    """
    p, q = poly_trim(p), poly_trim(q)
    v, k = len(p) - 1, len(q) - 1
    if v < 0 or k < 0:
        raise ValueError("polynomials must be nonzero")
    if not 0 <= i <= min(v, k):
        raise ValueError(f"need 0 <= i <= min(v,k), got i={i}")
    size = k + v - 2 * i
    top_deg = k + v - i - 1
    rows = []
    for j in range(k - i - 1, -1, -1):
        # x^j * p has coefficient of x^d equal to p[d-j]
        rows.append([_coeff(p, top_deg - c - j) for c in range(size)])
    for j in range(v - i - 1, -1, -1):
        rows.append([_coeff(q, top_deg - c - j) for c in range(size)])
    return rows


def principal_subresultant(F: FieldSpec, p: Sequence[int], q: Sequence[int],
                           i: int) -> int:
    return det(F, sylvester_principal(F, p, q, i))


class SubresultantFrame:
    """Index bookkeeping for the anchored maps sigma_I and eta_I.

    E = {0..k-1}; I is a set of v distinct nonnegative integers; m is
    minimal with E union I inside {0..m-1}.  V0, V1, V2 partition
    {0..m-1} as E&I, (E|I) minus (E&I), and the rest.
    """

    def __init__(self, k: int, I: Sequence[int]):
        if k < 0:
            raise ValueError(f"need k >= 0, got k={k}")
        self.k = k
        self.I = tuple(sorted(I))
        if len(set(self.I)) != len(self.I) or any(i < 0 for i in self.I):
            raise ValueError("I must be distinct nonnegative integers")
        self.v = len(self.I)
        E = set(range(k))
        self.E = tuple(range(k))
        self.m = max(max(self.I) + 1 if self.I else 0, k)
        sI = set(self.I)
        self.V0 = tuple(sorted(E & sI))
        self.V1 = tuple(sorted((E | sI) - (E & sI)))
        self.V2 = tuple(sorted(set(range(self.m)) - (E | sI)))


def sigma_I(F: FieldSpec, p: Sequence[int], q: Sequence[int], k: int,
            I: Sequence[int]) -> Mat:
    """Square matrix of size 2m-k-v for the anchored map
    (a, b) -> (projection of ap+bq on V1, projection of ap on V2,
    projection of bq on V2).

    Rows are the monomial bases 1, x, .. of a (degree < m-v) then of b
    (degree < m-k).  Columns are sorted by degree label with the two V2
    copies interleaved as (ap-part, bq-part) at each shared degree.
    Singular whenever deg gcd(p,q) > |I & E|.
    """
    fr = SubresultantFrame(k, I)
    p, q = poly_trim(p), poly_trim(q)
    if len(p) - 1 != fr.v or len(q) - 1 != k:
        raise ValueError("need deg p = |I| and deg q = k")
    cols = [("v1", d) for d in fr.V1]
    for d in fr.V2:
        cols.append(("ap", d))
        cols.append(("bq", d))
    cols.sort(key=lambda c: (c[1], 0 if c[0] != "bq" else 1))
    rows = []
    for j in range(fr.m - fr.v):
        prod = poly_mul(F, [0] * j + [1], p)
        row = []
        for kind, d in cols:
            row.append(_coeff(prod, d) if kind in ("v1", "ap") else 0)
        rows.append(row)
    for j in range(fr.m - k):
        prod = poly_mul(F, [0] * j + [1], q)
        row = []
        for kind, d in cols:
            row.append(_coeff(prod, d) if kind in ("v1", "bq") else 0)
        rows.append(row)
    return rows


def eta_I(F: FieldSpec, alphas: Sequence[int], L: Sequence[int], k: int,
          I: Sequence[int], lead: int = 1) -> Mat:
    """Square matrix for the evaluation form of sigma_I.

    Here p(x) = lead * product of (x - alpha_j) for j in L and
    q(x) = product of (x - alpha_j) for j < k.  Rows are the monomials
    x^i for i in V0 followed by the basis of b (degree < m-k); columns
    are evaluations at alpha_j (j in L ascending) of a0 + pi_1(b q),
    then the V2 coefficients of b q.
    """
    fr = SubresultantFrame(k, I)
    L = tuple(sorted(L))
    if len(L) != fr.v:
        raise ValueError("need |L| = |I|")
    q = poly_from_roots(F, [alphas[j] for j in range(k)])
    sV1 = set(fr.V1)
    rows = []
    for i in fr.V0:
        rows.append([F.pow(alphas[j], i) for j in L] + [0] * len(fr.V2))
    for j in range(fr.m - k):
        prod = poly_mul(F, [0] * j + [1], q)
        pi1 = [prod[d] if d < len(prod) and d in sV1 else 0
               for d in range(fr.m)]
        row = [poly_eval(F, pi1, alphas[jj]) for jj in L]
        row += [_coeff(prod, d) for d in fr.V2]
        rows.append(row)
    return rows


def vandermonde_det(F: FieldSpec, points: Sequence[int]) -> int:
    d = 1
    for j in range(len(points)):
        for i in range(j):
            d = F.mul(d, F.sub(points[j], points[i]))
    return d


def sh_identity_check(F: FieldSpec, alphas: Sequence[int], L: Sequence[int],
                      k: int, I: Sequence[int], lead: int = 1) -> bool:
    """Verify det(ev_L) det(sigma_I) = +- p0^(m-v) det(eta_I) exactly.

    The two sides are computed from independently assembled matrices;
    basis reorderings between the two conventions can only contribute a
    global sign, which is recorded and asserted consistent.
    """
    lhs, rhs = sh_identity_sides(F, alphas, L, k, I, lead=lead)
    return lhs == rhs or lhs == F.neg(rhs)


def sh_identity_sides(F: FieldSpec, alphas: Sequence[int], L: Sequence[int],
                      k: int, I: Sequence[int], lead: int = 1) -> Tuple[int, int]:
    """(det(ev_L) det(sigma_I), p0^(m-v) det(eta_I)) for p with the
    given leading coefficient and roots alpha_j, j in L."""
    fr = SubresultantFrame(k, I)
    L = tuple(sorted(L))
    pts = [alphas[j] for j in L]
    if len(set(pts)) != len(pts):
        raise ValueError("repeated roots")
    p = poly_scale(F, lead, poly_from_roots(F, pts))
    q = poly_from_roots(F, [alphas[j] for j in range(k)])
    lhs = F.mul(vandermonde_det(F, pts), det(F, sigma_I(F, p, q, k, I)))
    rhs = F.mul(F.pow(lead, fr.m - fr.v), det(F, eta_I(F, alphas, L, k, I)))
    return lhs, rhs
