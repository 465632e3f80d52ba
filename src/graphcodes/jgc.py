"""Johnson graph codes.

A code here lives on the vertex set of J(n,v): a codeword assigns one
field element to every v-subset (layer) of {0..n-1}.  Starting from a
k x n base code, the generator rows are Plucker vectors pi(M) of v x n
matrices M whose rows are taken from the base (at least t of them) and
from unit vectors.  The resulting code has dimension ball_size(n,v,k,r)
with r = min(v,k) - t, and for every information set A of the base code
the ball B_r(A) is an information set of the graph code.
"""

from __future__ import annotations

import json
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from graphcodes.combinat import (
    Layer,
    ball_size,
    complement,
    graph_params,
    johnson_vertices,
    layer,
    shell_index,
    sign_of,
)
from graphcodes.field import FieldSpec, field_make
from graphcodes.matrix import (
    Mat,
    nullspace,
    pi,
    rank,
    rref,
    solve,
    take_columns,
    transpose,
)


class JGCSpec:
    """Immutable description of a constructed Johnson graph code.

    Attributes
    ----------
    F : FieldSpec
    n, v, k, t, r : parameters, r = min(v,k) - t
    base : k x n generator of the base code
    order : vertex ordering ("klex" or "lex")
    vertices : list of layers indexing the columns
    basis_index : row-index layers I with |I intersect {0..k-1}| >= t
    generator : dim x C(n,v) generator matrix, row I = pi(g restricted to I)
    """

    def __init__(self, F: FieldSpec, base: Mat, v: int, t: int, order: str = "klex"):
        k = len(base)
        n = len(base[0])
        if rank(F, base) != k:
            raise ValueError("base matrix must have full rank")
        if not 0 < t <= min(v, k):
            raise ValueError(f"need 0 < t <= min(v,k), got t={t}, v={v}, k={k}")
        self.F = F
        self.n = n
        self.v = v
        self.k = k
        self.t = t
        self.r = min(v, k) - t
        self.order = order
        self.base = [list(row) for row in base]
        self.g = extend_base(F, base)
        self.vertices = johnson_vertices(n, v, order=order, k=k)
        self.vertex_pos = {L: i for i, L in enumerate(self.vertices)}
        head = set(range(k))
        self.basis_index = [
            I for I in johnson_vertices(n, v, order="klex", k=k)
            if len(head.intersection(I)) >= t
        ]
        self.generator = [
            pi(F, [self.g[i] for i in I], self.vertices) for I in self.basis_index
        ]
        self.dim = len(self.generator)
        expected = ball_size(n, v, k, self.r)
        if self.dim != expected:
            raise AssertionError(
                f"basis size {self.dim} != ball size {expected} for "
                f"(n,v,k,t)=({n},{v},{k},{t})"
            )
        # built on first use: the dual (dual), its rows in this code's
        # vertex order (aligned_dual_rows), one plan per anchor with its
        # inverse (decode_plan)
        self._dual: Optional[JGCSpec] = None
        self._aligned: Optional[Mat] = None
        self._plans: Dict[Layer, DecodePlan] = {}

    @property
    def length(self) -> int:
        return comb(self.n, self.v)

    def coord(self, word: Sequence[int], L: Sequence[int]) -> int:
        return word[self.vertex_pos[layer(L)]]

    def __repr__(self) -> str:
        return (
            f"JGCSpec(n={self.n}, v={self.v}, k={self.k}, t={self.t}, "
            f"r={self.r}, q={self.F.q}, dim={self.dim})"
        )


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


def extend_base(F: FieldSpec, base: Mat) -> Mat:
    """Extend the k x n base to an invertible n x n matrix.

    The extra n-k rows are unit vectors placed at the non-pivot columns
    of the base, so the extension is invertible for any full-rank base.
    """
    k = len(base)
    n = len(base[0])
    _, pivots = rref(F, base)
    g = [list(row) for row in base]
    for j in range(n):
        if j not in pivots:
            g.append([1 if c == j else 0 for c in range(n)])
    if len(g) != n:
        raise ValueError("base matrix must have full rank")
    return g


def construct(F: FieldSpec, base: Mat, v: int, t: int, order: str = "klex") -> JGCSpec:
    """Build the Johnson graph code generated by pi(M) for v x n matrices
    M with at least t rows in the base code."""
    return JGCSpec(F, base, v, t, order=order)


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
                          L: Sequence[int], vertices: Sequence[Layer]) -> List[int]:
    """pi(M) for the anchored matrix M attached to (A0, L).

    M has, for each j in L intersect A0, the systematic base word with a
    single 1 on A0 (at j); for each j in L minus A0, the unit vector at
    j.  The coordinate at L is scaled to 1.  The number of nonzeros is
    at most C(2a + n - k - v, a) with a = |L intersect A0|.
    """
    A0 = layer(A0)
    L = layer(L)
    n = len(base[0])
    sys_rows = systematic_rows(F, base, A0)
    sA0 = set(A0)
    M = []
    for j in L:
        if j in sA0:
            M.append(sys_rows[j])
        else:
            M.append([1 if c == j else 0 for c in range(n)])
    word = pi(F, M, vertices)
    idx = {Lv: i for i, Lv in enumerate(vertices)}[L]
    pivot = word[idx]
    if pivot == 0:
        raise ValueError(f"anchored vector degenerate at L={L}, A0={A0}")
    if pivot != 1:
        word = F.scale(F.inv(pivot), word)
    return word


def unit_codeword(code: JGCSpec, A0: Sequence[int], L: Sequence[int]) -> List[int]:
    """Codeword with value 1 at L and 0 at every other layer at most as
    far from A0 as L; for L on the boundary shell this vanishes on all
    of B_r(A0) except L.

    Requires |L intersect A0| >= t so that the anchored matrix has
    enough base rows; its weight is then at most C(2t + n - k - v, t).
    """
    A0 = layer(A0)
    L = layer(L)
    a = len(set(A0).intersection(L))
    if a < code.t:
        raise ValueError(
            f"layer {L} meets anchor {A0} in {a} < t={code.t} positions"
        )
    return anchored_minor_vector(code.F, code.base, A0, L, code.vertices)


def certify_infosets(code: JGCSpec) -> Dict[str, List[Layer]]:
    """Check, for every k-subset A, whether B_r(A) indexes an
    information set of the graph code.

    Anchors that are not information sets of the base code cannot
    satisfy the guarantee and are reported under "skipped"; among the
    remaining anchors, "pass" and "fail" record whether the generator
    restricted to the ball columns has full rank.
    """
    import itertools

    F = code.F
    report = {"pass": [], "fail": [], "skipped": []}
    for A in itertools.combinations(range(code.n), code.k):
        if not is_infoset(F, code.base, A):
            report["skipped"].append(A)
            continue
        cols = [i for i, L in enumerate(code.vertices)
                if shell_index(L, A) <= code.r]
        sub = take_columns(code.generator, cols)
        if rank(F, sub) == code.dim:
            report["pass"].append(A)
        else:
            report["fail"].append(A)
    return report


def dual(code: JGCSpec) -> JGCSpec:
    """The dual graph code, built from the dual of the base code.

    The base of the dual is a nullspace basis of the primal base and
    the threshold becomes v + 1 - t; dimensions of the pair sum to
    C(n,v) and generators are orthogonal.  It is built once and kept on
    the code, so every call returns the same object.
    """
    if code._dual is None:
        D0 = nullspace(code.F, code.base)
        code._dual = JGCSpec(code.F, D0, code.v, code.v + 1 - code.t,
                             order=code.order)
    return code._dual


def signed_dual(code: JGCSpec) -> JGCSpec:
    """Code on J(n, n-v) whose sign-twisted pairing with the primal
    vanishes: sum over L of sign(L) c_L d_{L^c} = 0."""
    return JGCSpec(code.F, code.base, code.n - code.v, code.k + 1 - code.t,
                   order=code.order)


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
    d1, d2, R = graph_params(code.n, code.v, code.k)
    rows = []
    blocks = []
    targets = [L for L in code.vertices if shell_index(L, A) > code.r]
    targets.sort(key=lambda L: (shell_index(L, A), L))
    for Lp in targets:
        word = anchored_minor_vector(F, D0, Ac, Lp, code.vertices)
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
    positions inside and outside B_r(A), whether A is an information
    set of the base code, and the inverse E of the aligned dual rows on
    the outside positions (E H_out = I), or None when A is not an
    information set or H_out is not square and invertible."""

    ball: Tuple[int, ...]
    out: Tuple[int, ...]
    infoset: bool
    inverse: Optional[Mat]


def aligned_dual_rows(code: JGCSpec) -> Mat:
    """The generator rows of ``dual(code)`` re-indexed by this code's
    vertex order, built once and kept on the code.  Callers must not
    modify the returned rows."""
    if code._aligned is None:
        D = dual(code)
        code._aligned = [[hrow[D.vertex_pos[L]] for L in code.vertices]
                         for hrow in D.generator]
    return code._aligned


def decode_plan(code: JGCSpec, A: Sequence[int]) -> DecodePlan:
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
        ball, out = [], []
        for i, L in enumerate(code.vertices):
            (ball if shell_index(L, A) <= code.r else out).append(i)
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
        plan = code._plans[A] = DecodePlan(tuple(ball), tuple(out), infoset,
                                           inverse)
    return plan


def syndrome_of(code: JGCSpec, vec: Sequence[int]) -> List[int]:
    """Products of the aligned dual generator rows with a full vector.

    This is the syndrome convention used by erasure_decode: entry i is
    the inner product of row i of ``dual(code)`` (re-indexed by the
    code's vertex order, aligned_dual_rows) with the vector.
    """
    dot = code.F.dot
    return [dot(h, vec) for h in aligned_dual_rows(code)]


def erasure_decode(code: JGCSpec, A: Sequence[int],
                   word: Sequence[Optional[int]],
                   syndrome: Optional[Sequence[int]] = None) -> List[int]:
    """Complete a vector from its values on the information set B_r(A).

    ``word`` is indexed like ``code.vertices``; only its B_r(A)
    positions are read (each must hold a symbol, not None) and every
    other position is ignored.  ``syndrome`` gives the products of the
    aligned dual rows with the full vector (all zero for a plain
    codeword; nonzero entries describe stored parities).  The positions
    outside the ball are an information set of the dual code, so they
    are filled by the inverse the anchor's plan keeps (decode_plan); the
    completed vector, indexed like ``code.vertices``, is checked against
    the syndrome.
    """
    A = layer(A)
    F = code.F
    H = aligned_dual_rows(code)
    if syndrome is None:
        syndrome = [0] * len(H)
    if len(syndrome) != len(H):
        raise ValueError("syndrome length must equal the dual dimension")
    if len(word) != len(code.vertices):
        raise ValueError("word length must equal the code length")

    plan = decode_plan(code, A)
    w = [0] * len(word)
    for i in plan.ball:
        if word[i] is None:
            raise ValueError(f"missing known coordinate at {code.vertices[i]}")
        w[i] = word[i]
    if not plan.infoset:
        raise ValueError(f"{A} is not an information set of the base code")
    w = _dense_complete(code, plan, H, syndrome, w)

    for hrow, s in zip(H, syndrome):
        if F.dot(hrow, w) != s:
            raise ValueError("stored values are inconsistent with the syndrome")
    return w


def _dense_complete(code: JGCSpec, plan: DecodePlan, H: Mat,
                    syndrome: Sequence[int], w: List[int]) -> List[int]:
    """Set w (indexed like code.vertices: ball values, 0 elsewhere) at
    plan.out to x = E (syndrome - H w), E being the inverse the anchor's
    plan keeps (decode_plan); raises when the plan has none."""
    F = code.F
    E = plan.inverse
    if E is None:
        raise ValueError("erasure pattern is not recoverable")
    rhs = [F.sub(s, F.dot(hrow, w)) for hrow, s in zip(H, syndrome)]
    for i, erow in zip(plan.out, E):
        w[i] = F.dot(erow, rhs)
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
        "order": code.order,
    }
    if alphas is not None:
        doc["alphas"] = list(alphas)
    return json.dumps(doc, indent=2)


def from_json(text: str) -> JGCSpec:
    doc = json.loads(text)
    if doc.get("family") != "JGC":
        raise ValueError(f"unexpected family {doc.get('family')!r}")
    F = field_make(doc["q"])
    return JGCSpec(F, doc["generator"], doc["v"], doc["t"],
                   order=doc.get("order", "klex"))
