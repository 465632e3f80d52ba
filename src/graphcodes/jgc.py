"""Johnson graph codes, and what every graph code shares.

A code here lives on the vertex set of J(n,v): a codeword assigns one
field element to every v-subset (layer) of {0..n-1}.  Starting from a
k x n base code, the generator rows are Plucker vectors pi(M) of v x n
matrices M whose rows are taken from the base (at least t of them) and
from unit vectors.  The resulting code has dimension ball_size(n,v,k,r)
with r = min(v,k) - t, and for every information set A of the base code
the ball B_r(A) is an information set of the graph code.

The unit rows sit at the base's non-pivot columns U, so every generator
entry is 0 or a signed minor of the base: pi(M)_L = +-det(base rows of
M, L minus U) when U lies in L, and 0 otherwise.  A code is built from
one Laplace pass over all s x s minors of the base, s <= min(v,k)
(about sum_s C(k,s) C(n,s) s products), not one determinant per vertex.

The generator rows are built on first read (GraphCode.generator):
certify_infosets and the dual's aligned rows read them, while encode,
collect and repair read only the dual's rows and the base, so a helper
code of a concatenated code never builds its own.

GraphCode holds what a Johnson code (JGCSpec) and a Hamming code
(hgc.HGCSpec) share, and dual, unit_codeword, certify_infosets,
decode_plan, erasure_decode and syndrome_of serve both families.  The
ball B_r(A) is always code.ball(A): a DecodePlan keeps only the
positions outside it and the inverse of the dual rows there.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from graphcodes.combinat import (
    Layer,
    complement,
    johnson_vertices,
    layer,
    shell_index,
    sign_of,
)
from graphcodes.field import FieldSpec, Regions, field_make
from graphcodes.matrix import (
    Mat,
    all_minors,
    column_rank_test,
    nullspace,
    pi,
    rank,
    rref,
    solve,
    take_columns,
    transpose,
)


class GraphCode:
    """What a Johnson and a Hamming graph code share.

    A subclass gives the largest threshold ``top`` and defines
    _all_vertices() (its vertices, from n and k), ball(A), coords(M) (pi
    or tau over ``vertices``), _dual_code(D0) (the code on the dual base
    D0 with threshold top + 1 - t) and _repr_params, its own parameters.
    The generator rows are coords(g restricted to I) for I in
    basis_index; a subclass may compute them faster (by overriding
    generator).  A base that is empty, ragged or holds a non-symbol
    raises ValueError.

    Attributes
    ----------
    F : FieldSpec
    n, k, t, r : base length and dimension, threshold, r = top - t
    base : k x n generator of the base code
    g : the n x n base extended by unit rows at its non-pivot columns in
        increasing order, invertible for any full-rank base
    vertices, vertex_pos, length : the columns' vertices, their
        positions, and their number
    basis_index : the row-index vertices, B_r({0..k-1}) in ``vertices``
        order
    dim : the number of generator rows, one per basis_index vertex
    generator : the generator rows, built on first read and kept
        (a cached_property; ``"generator" in vars(code)`` once built)
    """

    def __init__(self, F: FieldSpec, base: Mat, t: int, top: int):
        if not base or not base[0]:
            raise ValueError("base matrix needs at least one row and one column")
        for row in base:
            if len(F.check_symbols(row, "base")) != len(base[0]):
                raise ValueError("base matrix rows must have equal length")
        self.F = F
        self.n = len(base[0])
        self.k = len(base)
        self.vertices = self._all_vertices()
        _, self._pivots = rref(F, base)
        if len(self._pivots) != len(base):
            raise ValueError("base matrix must have full rank")
        if not 0 < t <= top:
            raise ValueError(f"need 0 < t <= {top}, got t={t}")
        self.t = t
        self.r = top - t
        self.base = [list(row) for row in base]
        self.g = [list(row) for row in self.base] + [
            [int(c == j) for c in range(self.n)] for j in range(self.n) if j not in self._pivots]
        self.vertex_pos = {L: i for i, L in enumerate(self.vertices)}
        self.length = len(self.vertices)
        # built on first use: the dual, its rows in this code's vertex
        # order and their nonzeros (dual, aligned_dual_rows,
        # _sparse_dual_rows), the vertices as bit masks (ball), one plan
        # per anchor with its inverse
        self._dual: Optional[GraphCode] = None
        self._aligned: Optional[Mat] = None
        self._masks: Optional[List[int]] = None
        self._sparse: Optional[list] = None
        self._plans: Dict[Layer, DecodePlan] = {}
        self.basis_index = [self.vertices[i] for i in self.ball(range(self.k))]
        self.dim = len(self.basis_index)

    @cached_property
    def generator(self) -> Mat:
        """The rows coords(g restricted to I), I in basis_index."""
        return [self.coords([self.g[i] for i in I]) for I in self.basis_index]

    def __repr__(self) -> str:
        own = ", ".join(f"{p}={getattr(self, p)}" for p in self._repr_params)
        return (f"{type(self).__name__}({own}, k={self.k}, t={self.t}, "
                f"r={self.r}, q={self.F.q}, dim={self.dim})")


class JGCSpec(GraphCode):
    """Immutable description of a constructed Johnson graph code.

    Attributes, besides GraphCode's
    -------------------------------
    v : vertex size, r = min(v,k) - t
    vertices : the v-subsets in k-lex order, so basis_index, the layers
        I with |I intersect {0..k-1}| >= t, is their first dim entries
    generator : dim x C(n,v) generator matrix, row I = pi(g restricted to
        I), from one Laplace pass over the base's minors (plucker_rows),
        on first read
    """

    _repr_params = ("n", "v")

    def __init__(self, F: FieldSpec, base: Mat, v: int, t: int):
        self.v = v
        super().__init__(F, base, t, min(v, len(base)))

    def _all_vertices(self) -> List[Layer]:
        return johnson_vertices(self.n, self.v, self.k)

    @cached_property
    def generator(self) -> Mat:
        return plucker_rows(self.F, self.base, self._pivots, self.v, self.basis_index,
                            self.vertex_pos)

    def coords(self, M: Mat) -> List[int]:
        return pi(self.F, M, self.vertices)

    def _dual_code(self, D0: Mat) -> JGCSpec:
        return JGCSpec(self.F, D0, self.v, self.v + 1 - self.t)

    def ball(self, A: Sequence[int]) -> List[int]:
        """The positions, in ``vertices`` order, of B_r(A): the layers L
        with shell_index(L, A) <= r, that is |L intersect A| >=
        min(v, |A|) - r, a popcount over the vertices' bit masks."""
        if self._masks is None:
            self._masks = [sum(1 << j for j in L) for L in self.vertices]
        a = sum(1 << j for j in A)
        meet = min(self.v, len(A)) - self.r
        return [i for i, m in enumerate(self._masks) if (m & a).bit_count() >= meet]


class ParityStructure:
    """Sparse parity rows for one anchor, grouped by shell block.

    Each row is a pair (pivot layer, [(layer, coefficient), ...]); the
    pivot layer carries coefficient 1 and every other support layer lies
    strictly closer to the anchor.  block_of_row[i] is the shell index
    of row i's pivot measured from the complement of the anchor.
    """

    def __init__(self, rows: List[Tuple[Layer, List[Tuple[Layer, int]]]],
                 block_of_row: List[int]):
        self.rows = rows
        self.block_of_row = block_of_row

    def row_weight(self, i: int) -> int:
        return sum(1 for _, c in self.rows[i][1] if c != 0)

    def __len__(self) -> int:
        return len(self.rows)


def plucker_rows(F: FieldSpec, base: Mat, pivots: Sequence[int], v: int,
                 basis_index: Sequence[Layer],
                 vertex_pos: Dict[Layer, int]) -> Mat:
    """The rows pi(g restricted to I), I in basis_index, of the base
    extended by unit rows at its non-pivot columns (GraphCode.g), from
    the minors of the base.

    Row I takes the base rows I_b = I intersect {0..k-1} and the unit
    rows of g at the non-pivot columns U.  Its entry at the vertex L is
    0 unless U lies in L, and otherwise (-1)^e det(base[I_b], L minus U)
    with e the number of pairs u in U < c in L minus U: the parity of
    moving U to the back of L.  One Laplace pass (all_minors) gives
    every minor; each row is then scattered over the C(n-|U|, |I_b|)
    vertices that contain U.
    """
    k, n = len(base), len(base[0])
    free = [c for c in range(n) if c not in pivots]
    minors = all_minors(F, base, min(v, k))
    minus_one = F.neg(1)
    targets_of: Dict[Layer, List[Tuple[int, int, int]]] = {}
    rows = []
    for I in basis_index:
        Ib = tuple(i for i in I if i < k)
        U = tuple(free[i - k] for i in I if i >= k)
        targets = targets_of.get(U)
        if targets is None:
            # (minor index, vertex position, sign parity) for L = C + U
            targets = targets_of[U] = [
                (ci, vertex_pos[tuple(sorted(C + U))],
                 sum(c > u for c in C for u in U) % 2)
                for ci, C in enumerate(combinations(range(n), len(Ib)))
                if not set(C).intersection(U)
            ]
        row = [0] * len(vertex_pos)
        m = minors[Ib]
        signed = (m, F.scale(minus_one, m))
        for ci, pos, odd in targets:
            row[pos] = signed[odd][ci]
        rows.append(row)
    return rows


def construct(F: FieldSpec, base: Mat, v: int, t: int) -> JGCSpec:
    """Build the Johnson graph code generated by pi(M) for v x n matrices
    M with at least t rows in the base code."""
    return JGCSpec(F, base, v, t)


def systematic_rows(F: FieldSpec, base: Mat, A0: Sequence[int]) -> Dict[int, List[int]]:
    """Base-code words in systematic form over the information set A0.

    Returns, for each j in A0, the unique base codeword with value 1 at
    j and 0 at every other position of A0.  Raises if A0 is not an
    information set of the base code.
    """
    A0 = layer(A0)
    sub = take_columns(base, A0)
    aug = [list(srow) + list(brow) for srow, brow in zip(sub, base)]
    R, pivots = rref(F, aug)
    kk = len(base)
    if pivots[:kk] != list(range(kk)):
        raise ValueError(f"{A0} is not an information set of the base code")
    return {j: R[i][kk:] for i, j in enumerate(A0)}


def is_infoset(F: FieldSpec, base: Mat, A: Sequence[int]) -> bool:
    """True when the base-code generator restricted to columns A is invertible."""
    return rank(F, take_columns(base, A)) == len(base)


def anchored_minor_vector(F: FieldSpec, base: Mat, A0: Sequence[int],
                          L: Sequence[int], coords: Callable[[Mat], List[int]]) -> List[int]:
    """coords(M), a graph code's ``coords``, for the anchored matrix M
    attached to (A0, L).

    M has, for each j in L inside A0, the systematic base word with a
    single 1 on A0 (at j); for each j in L outside A0, the unit vector
    at j.  Its coordinate at L is 1.  With a = the number of entries of
    L inside A0, the number of nonzeros is at most C(2a + n - k - v, a)
    for a Johnson code and (n - k + 1)^a for a Hamming code.
    """
    return _anchored_word(coords, systematic_rows(F, base, A0), len(base[0]), L)


def _anchored_word(coords: Callable[[Mat], List[int]], sys_rows: Dict[int, List[int]],
                   n: int, L: Sequence[int]) -> List[int]:
    """anchored_minor_vector from the systematic rows over A0 (keyed by
    the elements of A0), so one elimination serves every L.

    Row i of M has a 1 at column L_i, and its other entries at L's
    columns lie only in rows in A0 and columns outside A0.  So for pi,
    M on L's columns is unipotent and its determinant, the coordinate
    at L, is exactly 1; for tau that coordinate is a product of ones.
    No normalization is needed.
    """
    return coords([sys_rows[j] if j in sys_rows else [int(c == j) for c in range(n)]
                   for j in L])


def unit_codeword(code: GraphCode, A0: Sequence[int], L: Sequence[int]) -> List[int]:
    """Codeword with value 1 at the vertex L and 0 at every other vertex
    at most as far from A0 as L; for L on the boundary shell this
    vanishes on all of B_r(A0) except L.

    Requires L to have at least t entries in A0 (it lies in B_r(A0)),
    so that the anchored matrix has enough base rows.  Paper claim:
    these anchored minor vectors are codewords, unit on the ball shell
    by shell, so B_r(A0) is an information set, and each is sparse
    (anchored_minor_vector's weight bound).
    """
    A0 = layer(A0)
    L = tuple(L)
    if L not in code.vertex_pos:
        raise ValueError(f"{L} is not a vertex of {code!r}")
    a = sum(j in A0 for j in L)
    if a < code.t:
        raise ValueError(f"vertex {L} meets anchor {A0} in {a} < t={code.t} positions")
    return anchored_minor_vector(code.F, code.base, A0, L, code.coords)


def certify_infosets(code: GraphCode) -> Dict[str, List[tuple]]:
    """Check, for every k-subset A, whether code.ball(A) indexes an
    information set of the graph code, a Johnson or a Hamming one.

    Anchors that are not information sets of the base code cannot
    satisfy the guarantee and are reported under "skipped"; among the
    remaining anchors, "pass" and "fail" record whether the generator
    restricted to the ball columns has full rank.  The base and the
    generator are each row-reduced once per call (column_rank_test), so
    each anchor costs one rank of a block with at most min(dim, codim)
    rows.
    """
    base_spans = column_rank_test(code.F, code.base)
    spans = column_rank_test(code.F, code.generator)
    report = {"pass": [], "fail": [], "skipped": []}
    for A in combinations(range(code.n), code.k):
        if not base_spans(A):
            report["skipped"].append(A)
            continue
        report["pass" if spans(code.ball(A)) else "fail"].append(A)
    return report


def dual(code: GraphCode) -> GraphCode:
    """The dual graph code, built from the dual of the base code.

    The base of the dual is a nullspace basis of the primal base and
    the threshold becomes v + 1 - t (m + 1 - t for a Hamming code);
    dimensions of the pair sum to the length and generators are
    orthogonal.  It is built once and kept on the code, so every call
    returns the same object.  A code of codimension 0 has no dual code
    and raises ValueError.
    """
    if code._dual is None:
        if code.dim == code.length:
            raise ValueError(f"{code!r} has codimension 0: its dual is the zero code")
        code._dual = code._dual_code(nullspace(code.F, code.base))
    return code._dual


def signed_dual(code: JGCSpec) -> JGCSpec:
    """Code on J(n, n-v) whose sign-twisted pairing with the primal
    vanishes: sum over L of sign(L) c_L d_{L^c} = 0.  A code of
    codimension 0 has none and raises ValueError, as dual does."""
    if code.dim == code.length:
        raise ValueError(f"{code!r} has codimension 0: its signed dual is the zero code")
    return JGCSpec(code.F, code.base, code.n - code.v, code.k + 1 - code.t)


def aligned_dot(F: FieldSpec, c: Sequence[int], vertices_c: Sequence[Layer],
                d: Sequence[int], vertices_d: Sequence[Layer]) -> int:
    """Inner product of two vectors indexed by the same layers in
    possibly different orders."""
    pos_d = {L: i for i, L in enumerate(vertices_d)}
    return F.dot(c, [d[pos_d[L]] for L in vertices_c])


def signed_pairing(F: FieldSpec, c: Sequence[int], vertices_c: Sequence[Layer],
                   d: Sequence[int], vertices_d: Sequence[Layer], n: int) -> int:
    """sum over L of sign(L) * c_L * d_{L^c}."""
    pos_d = {L: i for i, L in enumerate(vertices_d)}
    signed = [x if sign_of(L) == 1 else F.neg(x) for x, L in zip(c, vertices_c)]
    return F.dot(signed, [d[pos_d[complement(L, n)]] for L in vertices_c])


def sparse_parities(code: JGCSpec, A: Sequence[int]) -> ParityStructure:
    """One sparse parity row per coordinate outside B_r(A).

    Row for layer L' is a dual codeword with coefficient 1 at L' whose
    remaining support sits strictly closer to A, so the rows fix the
    coordinates outside the ball shell by shell.  Rows are grouped in
    blocks by the shell index of L' from the complement of A; a block-i
    row has at most C(d1 + d2 - 2i, R - i) nonzeros.
    """
    A = layer(A)
    F = code.F
    if not is_infoset(F, code.base, A):
        raise ValueError(f"{A} is not an information set of the base code")
    D0 = nullspace(F, code.base)
    Ac = complement(A, code.n)
    sys_rows = systematic_rows(F, D0, Ac)
    rows = []
    blocks = []
    targets = [L for L in code.vertices if shell_index(L, A) > code.r]
    targets.sort(key=lambda L: (shell_index(L, A), L))
    for Lp in targets:
        word = _anchored_word(code.coords, sys_rows, code.n, Lp)
        support = [
            (L, x) for L, x in zip(code.vertices, word) if x != 0
        ]
        rows.append((Lp, support))
        blocks.append(shell_index(Lp, Ac))
    return ParityStructure(rows, blocks)


def express_in_rows(F: FieldSpec, H: Mat, h: Sequence[int]) -> Optional[List[int]]:
    """Coefficients x with x H = h, or None if h is outside the row space."""
    return solve(F, transpose(H), list(h))


class DecodePlan(NamedTuple):
    """What a decode at one anchor A needs besides the data: the vertex
    positions outside B_r(A) (the ball is code.ball(A)), whether A is
    an information set of the base code, and the inverse E of the
    aligned dual rows on the outside positions (E H_out = I), or None
    when A is not an information set or H_out is not square and
    invertible."""

    out: Tuple[int, ...]
    infoset: bool
    inverse: Optional[Mat]


def aligned_dual_rows(code: GraphCode) -> Mat:
    """The generator rows of ``dual(code)`` re-indexed by this code's
    vertex order, built once and kept on the code; none for a code of
    codimension 0.  Callers must not modify the returned rows."""
    if code._aligned is None:
        code._aligned = []
        if code.dim < code.length:
            D = dual(code)
            code._aligned = [[hrow[D.vertex_pos[L]] for L in code.vertices]
                             for hrow in D.generator]
    return code._aligned


def decode_plan(code: GraphCode, A: Sequence[int]) -> DecodePlan:
    """The anchor-only part of a decode at A, built once per anchor and
    kept on the code: at most C(n, k) plans for k-subset anchors.

    Since |B_r(A)| = dim, the aligned dual rows on the outside positions
    form a square matrix H_out; the plan keeps its inverse, from one
    rref of [H_out | I], so every decode at A is two matrix-vector
    products (_dense_complete).
    """
    A = layer(A)
    plan = code._plans.get(A)
    if plan is None:
        out = sorted(set(range(code.length)).difference(code.ball(A)))
        infoset = is_infoset(code.F, code.base, A)
        inverse = None
        if infoset:
            H = aligned_dual_rows(code)
            u = len(out)
            R, pivots = rref(code.F, [[hrow[i] for i in out]
                                      + [int(e == r) for e in range(len(H))]
                                      for r, hrow in enumerate(H)])
            # [H_out | I] has rank len(H): the pivots are the first u
            # columns exactly when H_out is square and invertible
            if pivots == list(range(u)):
                inverse = [row[u:] for row in R]
        plan = code._plans[A] = DecodePlan(tuple(out), infoset, inverse)
    return plan


def getter(pos: Sequence[int]):
    """itemgetter(*pos), but returning a tuple for any number of positions."""
    if len(pos) == 1:
        return lambda x, i=pos[0]: (x[i],)
    return itemgetter(*pos) if pos else lambda x: ()


def _sparse_dual_rows(code: GraphCode) -> list:
    """Each aligned dual row as (gather, coefficients, [1] + -coefficients)
    over its nonzero positions, so that F.dot(coefficients, gather(vec))
    is the row's product with vec and F.dot(the third, (s,) + gather(vec))
    is s minus it; built once, next to the aligned rows."""
    if code._sparse is None:
        F = code.F
        code._sparse = [(getter(pos), row, [1] + F.scale(F.neg(1), row))
                        for h in aligned_dual_rows(code)
                        for pos in [[i for i, x in enumerate(h) if x]]
                        for row in [[h[i] for i in pos]]]
    return code._sparse


def syndrome_of(code: GraphCode, vec: Sequence[int],
                regions: Optional[Regions] = None) -> List[int]:
    """Products of the aligned dual generator rows with a full vector.

    This is the syndrome convention used by erasure_decode: entry i is
    the inner product of row i of ``dual(code)`` (re-indexed by the
    code's vertex order, aligned_dual_rows) with the vector, taken over
    the row's nonzeros only.  With ``regions`` (code.F.regions(B, ...))
    the vector holds B-slot regions and so does the syndrome.
    """
    dot = (regions or code.F).dot
    return [dot(coefs, gather(vec)) for gather, coefs, _ in _sparse_dual_rows(code)]


def erasure_decode(code: GraphCode, A: Sequence[int],
                   word: Sequence[Optional[int]],
                   syndrome: Optional[Sequence[int]] = None,
                   regions: Optional[Regions] = None) -> List[int]:
    """Complete a vector from its values on the information set B_r(A).

    ``word`` is indexed like ``code.vertices``; only its B_r(A)
    positions are read (each must hold an element of GF(q), an int and
    not a bool: None or any other value raises ValueError) and every
    other position is ignored.  ``syndrome`` gives the products of the
    aligned dual rows with the full vector (all zero for a plain
    codeword; nonzero entries describe stored parities).  The positions
    outside the ball are an information set of the dual code, so they
    are filled by the inverse the anchor's plan keeps (decode_plan); the
    completed vector, indexed like ``code.vertices``, is checked against
    the syndrome on every nonzero of the dual rows.  With ``regions``
    (code.F.regions(B, longest), longest > code.length) the word and the
    syndrome hold B-slot regions, B words decoded at once and checked
    slot by slot; a position is known or None in every slot together.
    """
    A = layer(A)
    K = regions or code.F.regions(1)
    H = _sparse_dual_rows(code)
    if syndrome is None:
        syndrome = [0] * len(H)
    if len(syndrome) != len(H):
        raise ValueError("syndrome length must equal the dual dimension")
    if len(word) != len(code.vertices):
        raise ValueError("word length must equal the code length")

    plan = decode_plan(code, A)
    w = list(word)
    for i in plan.out:
        w[i] = 0
    try:
        code.F.check_symbols(w, "word", K.top)
    except ValueError:
        if None in w:
            raise ValueError("missing known coordinate at "
                             f"{code.vertices[w.index(None)]}") from None
        raise
    if not plan.infoset:
        raise ValueError(f"{A} is not an information set of the base code")
    w = _dense_complete(code, plan, H, syndrome, w, K)

    for (gather, coefs, _), s in zip(H, syndrome):
        if K.dot(coefs, gather(w)) != s:
            raise ValueError("stored values are inconsistent with the syndrome")
    return w


def _dense_complete(code: GraphCode, plan: DecodePlan, H: list,
                    syndrome: Sequence[int], w: List[int], K: Regions) -> List[int]:
    """Set w (indexed like code.vertices: ball values, 0 elsewhere) at
    plan.out to x = E (syndrome - H w), E being the inverse the anchor's
    plan keeps (decode_plan), in the region arithmetic K; raises when
    the plan has none."""
    E = plan.inverse
    if E is None:
        raise ValueError("erasure pattern is not recoverable")
    rhs = [K.dot(minus, (s,) + gather(w)) for (gather, _, minus), s in zip(H, syndrome)]
    for i, erow in zip(plan.out, E):
        w[i] = K.dot(erow, rhs)
    return w


def to_json(code: JGCSpec, alphas: Optional[Sequence[int]] = None) -> str:
    """Serialize the code descriptor (family JGC) as JSON."""
    doc = {
        "family": "JGC",
        "n": code.n,
        "v": code.v,
        "k": code.k,
        "t": code.t,
        "r": code.r,
        "q": code.F.q,
        "generator": code.base,
        "order": "klex",
    }
    if alphas is not None:
        doc["alphas"] = list(alphas)
    return json.dumps(doc, indent=2)


def from_json(text: str) -> JGCSpec:
    """The code a to_json descriptor names; an order other than "klex"
    (the one vertex order) raises ValueError."""
    doc = json.loads(text)
    if doc.get("family") != "JGC":
        raise ValueError(f"unexpected family {doc.get('family')!r}")
    if doc.get("order", "klex") != "klex":
        raise ValueError(f"unknown vertex order {doc['order']!r}: Johnson codes list "
                         "their vertices in k-lex order")
    F = field_make(doc["q"])
    return JGCSpec(F, doc["generator"], doc["v"], doc["t"])
