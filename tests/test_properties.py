"""Property-based checks for the algebra kernels and erasure decoding."""

from itertools import combinations, permutations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import random

import pytest

from graphcodes.combinat import shell_index
from graphcodes.concat import build_concat
from graphcodes.field import _poly_mul_mod, field_make
from graphcodes.hgc import HGCSpec, certify_hgc_infosets
from graphcodes.jgc import (
    JGCSpec,
    certify_infosets,
    decode_plan,
    dual,
    erasure_decode,
    is_infoset,
    signed_dual,
    sparse_parities,
    syndrome_of,
)
from graphcodes.layered import LayeredSpec, encode_layered
from graphcodes.matrix import det, mat_mul, mat_vec, pi, rank, rref, solve, take_columns
from graphcodes.rs import rs_jgc
from graphcodes.storesim import LayeredCode, _pack, _unpack
from graphcodes.subres import (
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_trim,
)
from reference import (ball, hamming_ball, hamming_shell_index, node_arrays, pack, poly_add,
                       read_layers, unpack)

F = field_make(7)

elem = st.integers(min_value=0, max_value=6)


def square(n):
    return st.lists(st.lists(elem, min_size=n, max_size=n),
                    min_size=n, max_size=n)


monic = st.lists(elem, min_size=1, max_size=5).map(lambda c: c + [1])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(square(3), square(3))
def test_det_multiplicative(A, B):
    assert det(F, mat_mul(F, A, B)) == F.mul(det(F, A), det(F, B))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(square(3))
def test_rref_preserves_rank(A):
    R, pivots = rref(F, A)
    assert rank(F, A) == len(pivots) == rank(F, R)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(square(3), st.lists(elem, min_size=3, max_size=3))
def test_solve_solutions_verify(A, b):
    x = solve(F, A, b)
    if x is not None:
        assert mat_vec(F, A, x) == b


@settings(max_examples=60, derandomize=True, deadline=None)
@given(monic, monic)
def test_poly_divmod_invariant(p, q):
    quo, rem = poly_divmod(F, p, q)
    assert poly_deg(rem) < poly_deg(q)
    assert poly_add(F, poly_mul(F, quo, q), rem) == poly_trim(p)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(monic, monic)
def test_poly_gcd_divides_both(p, q):
    g = poly_gcd(F, p, q)
    assert poly_deg(g) >= 0
    for h in (p, q):
        _, rem = poly_divmod(F, h, g)
        assert poly_deg(rem) == -1


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(elem, min_size=20, max_size=20))
def test_layered_roundtrip(data):
    spec = LayeredSpec(F, 5, 3)
    assert spec.M1 == 20
    nodes = node_arrays(spec, encode_layered(spec, data))
    values = read_layers(spec, nodes, range(5))
    assert [values[p] for p in spec.data] == data


@st.composite
def rs_code_and_anchor(draw):
    """An rs_jgc code with n <= 6 over GF(7), GF(8) or GF(9) whose dual
    exists (t > v + k - n), and a k-subset anchor; the base is MDS, so
    every anchor is an information set of it."""
    n = draw(st.integers(min_value=2, max_value=6))
    v = draw(st.integers(min_value=1, max_value=n - 1))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    t = draw(st.integers(min_value=max(1, v + k + 1 - n),
                         max_value=min(v, k)))
    q = draw(st.sampled_from([7, 8, 9]))
    A = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                      min_size=k, max_size=k, unique=True))
    return rs_jgc(n, v, k, t, q), tuple(sorted(A))


def _ball(code, A, word):
    # None outside B_r(A), so a decoder reading there fails
    return [x if shell_index(L, A) <= code.r else None
            for L, x in zip(code.vertices, word)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rs_code_and_anchor(), st.data())
def test_erasure_decode_recovers_any_vector(code_anchor, data):
    code, A = code_anchor
    vec = data.draw(st.lists(st.integers(min_value=0, max_value=code.F.q - 1),
                             min_size=code.length, max_size=code.length))
    syn = syndrome_of(code, vec)
    assert erasure_decode(code, A, _ball(code, A, vec), syn) == vec


@settings(max_examples=40, derandomize=True, deadline=None)
@given(rs_code_and_anchor(), st.data())
def test_warm_decode_plan_matches_fresh_code(code_anchor, data):
    # the second decode at (code, A) runs on the cached plan and inverse;
    # a freshly built code decodes the same vectors from cold caches
    code, A = code_anchor
    q = code.F.q
    vec = data.draw(st.lists(st.integers(min_value=0, max_value=q - 1),
                             min_size=code.length, max_size=code.length))
    j = next(i for i, L in enumerate(code.vertices) if shell_index(L, A) > code.r)
    other = list(vec)
    other[j] = code.F.add(other[j], data.draw(st.integers(min_value=1,
                                                          max_value=q - 1)))
    fresh = rs_jgc(code.n, code.v, code.k, code.t, q)
    assert syndrome_of(code, vec) != syndrome_of(code, other)
    for w in (vec, other):
        syn = syndrome_of(code, w)
        assert erasure_decode(code, A, _ball(code, A, w), syn) == w
        assert erasure_decode(fresh, A, _ball(fresh, A, w),
                              syndrome_of(fresh, w)) == w


_WARM = {}

# every shape runs: GF(8) and GF(9) reach both table kernels, GF(5),
# GF(7) and GF(11) the prime one, (8,6,5,11) and (9,7,6,11) keep some
# sizes' siblings at gapped offsets, and the pure layered codes are the
# one-component case of the same replay
WARM_SHAPES = [(build_concat, shape) for shape in
               [(5, 4, 3, 5), (6, 4, 3, 7), (6, 4, 3, 8), (6, 4, 3, 9),
                (8, 5, 4, 11), (8, 6, 5, 11), (9, 7, 6, 11)]] + [
    (LayeredCode, shape) for shape in [(5, 2, 7), (6, 3, 11), (7, 1, 11)]]


@pytest.mark.parametrize("make, shape", WARM_SHAPES,
                         ids=["-".join(map(str, s)) for _, s in WARM_SHAPES])
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_warm_code_matches_fresh_code(make, shape, data):
    # one code kept across examples and blobs (lift lists, anchor
    # schedules, decode plans with their inverses warm) answers encode,
    # collect and repair exactly as a code built for that one call does
    warm = _WARM.setdefault(shape, make(*shape))
    n, k = warm.n, warm.k
    for _ in range(2):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
        blob = [rng.randrange(warm.F.q) for _ in range(warm.M)]
        nodes = warm.encode(blob)
        assert make(*shape).encode(blob) == nodes
        anchors = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k,
                                             max_size=k), min_size=1, max_size=2))
        for A in anchors:
            got = warm.collect(nodes, A)
            assert got[0] == blob
            assert got == make(*shape).collect(nodes, A)
        for f in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            damaged = [list(row) for row in nodes]
            damaged[f] = [0] * warm.alpha
            got = warm.repair(damaged, f)
            assert got[0] == nodes[f]
            assert got == make(*shape).repair(damaged, f)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rs_code_and_anchor(), st.data())
def test_decoded_codeword_meets_sparse_parities(code_anchor, data):
    code, A = code_anchor
    F = code.F
    coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=F.q - 1),
                                min_size=code.dim, max_size=code.dim))
    word = mat_vec(F, [list(col) for col in zip(*code.generator)], coeffs)
    decoded = erasure_decode(code, A, _ball(code, A, word))
    assert decoded == word
    for _, support in sparse_parities(code, A).rows:
        acc = 0
        for L, c in support:
            acc = F.add(acc, F.mul(c, decoded[code.vertex_pos[L]]))
        assert acc == 0


# ----- generator rows from the minors of the base -----

@st.composite
def graph_code_specs(draw):
    """A Johnson graph code with n <= 7 over GF(7), GF(8) or GF(9), or
    its dual or signed dual (whose bases pivot away from columns
    0..k-1).  The base is the Reed-Solomon one of rs_jgc or [I_k | X]
    with X random and the columns shuffled, so the unit rows of the
    extended base land on scattered columns."""
    n = draw(st.integers(min_value=2, max_value=7))
    v = draw(st.integers(min_value=1, max_value=n - 1))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    # t > v + k - n, so the dual and the signed dual exist
    t = draw(st.integers(min_value=max(1, v + k + 1 - n),
                         max_value=min(v, k)))
    q = draw(st.sampled_from([7, 8, 9]))
    if draw(st.booleans()):
        code = rs_jgc(n, v, k, t, q)
    else:
        X = draw(st.lists(st.lists(st.integers(min_value=0, max_value=q - 1),
                                   min_size=n - k, max_size=n - k),
                          min_size=k, max_size=k))
        perm = draw(st.permutations(range(n)))
        rows = [[int(i == j) for j in range(k)] + X[i] for i in range(k)]
        base = [[row[c] for c in perm] for row in rows]
        code = JGCSpec(field_make(q), base, v, t)
    which = draw(st.sampled_from(["code", "dual", "signed_dual"]))
    return {"code": lambda c: c, "dual": dual,
            "signed_dual": signed_dual}[which](code)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graph_code_specs())
def test_generator_equals_plucker_vectors(code):
    # every entry equals the determinant pi takes on the extended base
    expected = [pi(code.F, [code.g[i] for i in I], code.vertices)
                for I in code.basis_index]
    assert code.generator == expected


# ----- information-set certification against a per-anchor reference -----

def _reference_certify(code, in_ball):
    """Per anchor: is_infoset on the base, then the rank of the
    generator on the ball columns against dim."""
    report = {"pass": [], "fail": [], "skipped": []}
    for A in combinations(range(code.n), code.k):
        if not is_infoset(code.F, code.base, A):
            report["skipped"].append(A)
            continue
        cols = [i for i, L in enumerate(code.vertices) if in_ball(L, A)]
        full = rank(code.F, take_columns(code.generator, cols)) == code.dim
        report["pass" if full else "fail"].append(A)
    return report


@st.composite
def tampered_graph_codes(draw):
    """A Johnson or Hamming graph code on a random full-rank base over
    GF(2), GF(3), GF(4), GF(7), GF(8) or GF(9), as built or tampered: r
    one lower or one higher, or one generator row zeroed, replaced by a
    copy of another row or drawn at random."""
    q = draw(st.sampled_from([2, 3, 4, 7, 8, 9]))
    Fq = field_make(q)
    hamming = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=4 if hamming else 6))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    base = draw(st.lists(st.lists(st.integers(min_value=0, max_value=q - 1),
                                  min_size=n, max_size=n),
                         min_size=k, max_size=k))
    assume(rank(Fq, base) == k)
    if hamming:
        m = draw(st.integers(min_value=1, max_value=3))
        code = HGCSpec(Fq, base, m, draw(st.integers(min_value=1, max_value=m)))
    else:
        v = draw(st.integers(min_value=1, max_value=n))
        t = draw(st.integers(min_value=1, max_value=min(v, k)))
        code = JGCSpec(Fq, base, v, t)
    tamper = draw(st.sampled_from(["none", "r-1", "r+1", "zero row", "copy row",
                                   "random row"]))
    if tamper in ("r-1", "r+1"):
        code.r += 1 if tamper == "r+1" else -1
        # hamming_ball rejects a radius outside [0, m]
        assume(not hamming or 0 <= code.r <= code.m)
    elif tamper == "zero row":
        code.generator = [list(row) for row in code.generator]
        code.generator[draw(st.integers(0, code.dim - 1))] = [0] * len(code.vertices)
    elif tamper == "copy row" and code.dim > 1:
        i, j = draw(st.lists(st.integers(0, code.dim - 1), min_size=2, max_size=2,
                             unique=True))
        code.generator = [list(row) for row in code.generator]
        code.generator[i] = list(code.generator[j])
    elif tamper == "random row":
        # mostly zero, so the generator usually keeps full rank while
        # the balls missing the row's support lose it
        code.generator = [list(row) for row in code.generator]
        code.generator[draw(st.integers(0, code.dim - 1))] = draw(
            st.lists(st.sampled_from([0, 0, 0, 1, q - 1]), min_size=len(code.vertices),
                     max_size=len(code.vertices)))
    return hamming, code


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tampered_graph_codes())
def test_certify_sweeps_match_per_anchor_reference(hamming_code):
    hamming, code = hamming_code
    if hamming:
        expected = _reference_certify(
            code, lambda L, A: hamming_shell_index(L, A) <= code.r)
        assert certify_hgc_infosets(code) == expected
    else:
        expected = _reference_certify(code, lambda L, A: shell_index(L, A) <= code.r)
        assert certify_infosets(code) == expected


# ----- the ball each graph code gives against the reference sets -----

# the running non-MDS examples: some anchors are not base information
# sets, so plans without an inverse are checked too
JOHNSON_BASES = [[[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]],
                 [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]]
HAMMING_BASES = [[[1, 0, 1, 1], [0, 1, 0, 1]], [[1, 1, 1]], [[1, 0, 1], [0, 1, 1]]]


@pytest.mark.parametrize("base", JOHNSON_BASES, ids=["5x2", "6x3"])
def test_johnson_ball_matches_shell_index_at_every_anchor(base):
    F2 = field_make(2)
    k, n = len(base), len(base[0])
    for v in range(1, n):
        for t in range(1, min(v, k) + 1):
            code = JGCSpec(F2, base, v, t)
            for A in combinations(range(n), k):
                inside = tuple(i for i, L in enumerate(code.vertices)
                               if shell_index(L, A) <= code.r)
                B = ball(A, code.r, n, v)
                assert tuple(code.ball(A)) == inside
                assert inside == tuple(i for i, L in enumerate(code.vertices) if L in B)
                plan = decode_plan(code, A)
                assert plan.out == tuple(i for i in range(code.length) if i not in inside)


@pytest.mark.parametrize("base", HAMMING_BASES, ids=["4x2", "3x1", "3x2"])
def test_hamming_ball_matches_hamming_ball_at_every_anchor(base):
    F2 = field_make(2)
    k, n = len(base), len(base[0])
    for m in range(1, 4):
        for t in range(1, m + 1):
            code = HGCSpec(F2, base, m, t)
            assert code.basis_index == [code.vertices[i] for i in code.ball(range(k))]
            # a seeded codeword, nonzero since its first row has coefficient 1
            rng = random.Random(m * 10 + t)
            word = mat_vec(F2, [list(col) for col in zip(*code.generator)],
                           [1] + [rng.randrange(2) for _ in range(code.dim - 1)])
            assert not any(syndrome_of(code, word))
            for A0 in combinations(range(n), k):
                B = hamming_ball(A0, code.r, m, n)
                inside = code.ball(A0)
                assert inside == [i for i, L in enumerate(code.vertices) if L in B]
                plan = decode_plan(code, A0)
                assert plan.out == tuple(i for i in range(code.length) if i not in inside)
                if plan.infoset:
                    known = [x if i in inside else None for i, x in enumerate(word)]
                    assert erasure_decode(code, A0, known) == word


# ----- field kernel against a scalar reference -----

KERNEL_FIELDS = [2, 3, 4, 7, 8, 9, 11, 13, 16, 25, 27]


class RefField:
    """Scalar reference for GF(q): sums and negatives digit by digit in
    base p, products by polynomial multiplication modulo the field's
    reduction polynomial; one element at a time, no tables."""

    def __init__(self, q):
        F = field_make(q)
        self.q, self.p, self.m, self.reduction = q, F.p, F.m, F.reduction

    def add(self, a, b):
        p = self.p
        return sum(((a // p**i + b // p**i) % p) * p**i for i in range(self.m))

    def neg(self, a):
        p = self.p
        return sum((-(a // p**i) % p) * p**i for i in range(self.m))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.p, self.m, self.reduction)

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)

    def dot(self, x, y):
        s = 0
        for a, b in zip(x, y):
            s = self.add(s, self.mul(a, b))
        return s

    def det(self, M):
        """Leibniz expansion: a sum over all permutations."""
        n = len(M)
        total = 0
        for perm in permutations(range(n)):
            term = 1
            for i, j in enumerate(perm):
                term = self.mul(term, M[i][j])
            total = (self.add(total, term) if _perm_sign(perm) == 1
                     else self.sub(total, term))
        return total

    def rref(self, M):
        """Gauss-Jordan elimination on full rows."""
        A = [list(row) for row in M]
        pivots, r = [], 0
        for c in range(len(A[0])):
            pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
            if pivot is None:
                continue
            A[r], A[pivot] = A[pivot], A[r]
            inv = self.inv(A[r][c])
            A[r] = [self.mul(inv, x) for x in A[r]]
            for i in range(len(A)):
                if i != r and A[i][c]:
                    f = A[i][c]
                    A[i] = [self.sub(x, self.mul(f, y)) for x, y in zip(A[i], A[r])]
            pivots.append(c)
            r += 1
            if r == len(A):
                break
        return A, pivots


def _perm_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def kernel_elements(q):
    # 0 and q-1 come often: q-1 gives the largest products and, in
    # x - f*y, the most negative intermediate values
    return st.one_of(st.sampled_from([0, q - 1]),
                     st.integers(min_value=0, max_value=q - 1))


@st.composite
def kernel_vectors(draw):
    q = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(min_value=0, max_value=12))
    vec = st.lists(kernel_elements(q), min_size=n, max_size=n)
    return q, draw(vec), draw(kernel_elements(q)), draw(vec)


@st.composite
def kernel_matrix(draw, square=False):
    q = draw(st.sampled_from(KERNEL_FIELDS))
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = rows if square else draw(st.integers(min_value=1, max_value=5))
    M = draw(st.lists(st.lists(kernel_elements(q), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return q, M


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kernel_vectors())
@example((11, [0, 0, 0], 10, [10, 10, 10]))
@example((13, [12, 0], 12, [12, 12]))
@example((8, [0, 7], 7, [7, 7]))
def test_vector_ops_match_reference(args):
    q, x, f, y = args
    F, R = field_make(q), RefField(q)
    assert F.dot(x, y) == R.dot(x, y)
    assert F.sub_mul(x, f, y) == [R.sub(a, R.mul(f, b)) for a, b in zip(x, y)]
    assert F.scale(f, x) == [R.mul(f, a) for a in x]
    assert F.sum(x) == R.dot(x, [1] * len(x))


@st.composite
def kernel_columns(draw):
    """(q, xs, ys): s vectors each of one length N, s and N 0 included."""
    q = draw(st.sampled_from(KERNEL_FIELDS))
    s, n = draw(st.integers(min_value=0, max_value=6)), draw(st.integers(min_value=0, max_value=10))
    vecs = st.lists(st.lists(kernel_elements(q), min_size=n, max_size=n), min_size=s, max_size=s)
    return q, draw(vecs), draw(vecs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kernel_columns())
@example((11, [], []))
@example((8, [], []))
@example((7, [[], []], [[], []]))
@example((8, [[7]], [[7]]))
@example((11, [[10] * 3] * 6, [[10] * 3] * 6))
def test_column_dots_are_the_dots_of_the_columns(args):
    # one dot per column i, of column i of xs with column i of ys
    q, xs, ys = args
    F, R = field_make(q), RefField(q)
    got = F.column_dots(xs, ys)
    assert got == [F.dot(a, b) for a, b in zip(zip(*xs), zip(*ys))]
    assert got == [R.dot(a, b) for a, b in zip(zip(*xs), zip(*ys))]


REGION_FIELDS = [5, 7, 8, 9, 11, 13]


@st.composite
def region_rows(draw):
    # (q, B, longest, row, vectors): n <= longest vectors of B elements
    q = draw(st.sampled_from(REGION_FIELDS))
    B = draw(st.sampled_from([1, 2, 115]))
    longest = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=0, max_value=longest))
    row = draw(st.lists(kernel_elements(q), min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    high = draw(st.sampled_from([q, 1]))  # 1: every element q-1
    return q, B, longest, row, [[q - rng.randrange(high) - 1 for _ in range(B)]
                                for _ in range(n)]


def _worst(q, B, longest=210):
    # every entry q-1 in a row as long as the longest a region op is
    # given (210 terms: the (10,6,5,11) precode of size 4)
    return q, B, longest, [q - 1] * longest, [[q - 1] * B] * longest


@settings(max_examples=60, derandomize=True, deadline=None)
@given(region_rows())
@example(_worst(11, 115))
@example(_worst(13, 115))
@example(_worst(5, 2))
@example(_worst(7, 1))
@example(_worst(8, 115))
@example(_worst(9, 2))
@example(_worst(13, 2, longest=1))
@example(_worst(257, 2))
@example(_worst(257, 115))
def test_region_ops_match_reference(args):
    # each slot of a region op equals the scalar reference on that slot
    q, B, longest, row, vectors = args
    F, R = field_make(q), RefField(q)
    K = F.regions(B, longest)
    flat = [x for vec in vectors for x in vec]
    regions = K.pack(flat)
    assert len(regions) == len(vectors) and K.unpack(regions) == flat
    assert all(0 <= r < K.top for r in regions)
    slots = [[vec[b] for vec in vectors] for b in range(B)]
    assert K.unpack([K.dot(row, regions)]) == [R.dot(row, col) for col in slots]
    assert K.unpack([K.sum(regions)]) == [R.dot([1] * len(col), col) for col in slots]
    # regions of one width restack as bytes: the n regions of B slots are
    # one region of n*B slots
    assert K.from_bytes(K.to_bytes(regions)) == regions
    if vectors:
        wide = F.regions(len(vectors) * B, longest)
        assert wide.width == K.width and wide.from_bytes(K.to_bytes(regions)) == wide.pack(flat)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kernel_matrix(square=True))
def test_det_matches_leibniz_expansion(args):
    q, M = args
    assert det(field_make(q), M) == RefField(q).det(M)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kernel_matrix())
def test_rref_and_rank_match_reference(args):
    q, M = args
    R, pivots = RefField(q).rref(M)
    F = field_make(q)
    assert rref(F, M) == (R, pivots)
    assert rank(F, M) == len(pivots)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kernel_matrix(), st.data())
def test_solve_matches_reference(args, data):
    q, A = args
    b = data.draw(st.lists(kernel_elements(q), min_size=len(A), max_size=len(A)))
    Rf = RefField(q)
    x = solve(field_make(q), A, b)
    consistent = (len(Rf.rref(A)[1])
                  == len(Rf.rref([row + [bi] for row, bi in zip(A, b)])[1]))
    if x is None:
        assert not consistent
    else:
        assert consistent
        assert [Rf.dot(row, x) for row in A] == b


@st.composite
def packed_symbols(draw):
    width = draw(st.sampled_from([1, 2]))
    top = 256 ** width - 1
    edges = st.sampled_from([0, 1, top - 1, top])
    return width, draw(st.lists(st.integers(0, top) | edges, max_size=40))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(packed_symbols())
def test_store_packers_match_reference(args):
    # storesim packs by bytes() or map(int.to_bytes) and unpacks by
    # list() or field._ints; the reference converts one symbol at a time
    width, symbols = args
    data = pack(symbols, width)
    assert _pack(symbols, width) == data
    assert _unpack(data, width) == unpack(data, width) == symbols
