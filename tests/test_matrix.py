"""Dense linear algebra, minor vectors and compound matrices."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcodes import matrix
from graphcodes.combinat import johnson_vertices
from graphcodes.field import field_make
from graphcodes.matrix import (
    all_minors,
    column_rank_test,
    compound,
    det,
    mat_mul,
    mat_vec,
    nullspace,
    pi,
    pi_signed,
    rank,
    rref,
    solve,
    take_columns,
    tau,
    transpose,
)
from reference import identity, submatrix

F7 = field_make(7)


def _rand_mat(rng, F, rows, cols):
    return [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)]


def test_basic_shapes():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert submatrix([[1, 2], [3, 4]], [1], [0]) == [[3]]
    assert take_columns([[1, 2, 3]], [2, 0]) == [[3, 1]]


def test_det_oracles():
    assert det(F7, [[1, 2], [3, 4]]) == (4 - 6) % 7
    assert det(F7, [[2]]) == 2
    assert det(F7, identity(4)) == 1
    # singular
    assert det(F7, [[1, 2], [2, 4]]) == 0


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        A = _rand_mat(rng, F7, 3, 3)
        B = _rand_mat(rng, F7, 3, 3)
        assert det(F7, mat_mul(F7, A, B)) == F7.mul(det(F7, A), det(F7, B))


def test_rref_rank_nullspace():
    M = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    R, pivots = rref(F7, M)
    assert pivots == [0, 1]
    assert rank(F7, M) == 2
    N = nullspace(F7, M)
    assert len(N) == 1
    for row in N:
        assert mat_vec(F7, M, row) == [0, 0, 0]
    # no rows give no column count, so no basis vectors
    assert nullspace(F7, []) == []


def test_solve_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        A = _rand_mat(rng, F7, 3, 3)
        if det(F7, A) == 0:
            continue
        x = [rng.randrange(7) for _ in range(3)]
        b = mat_vec(F7, A, x)
        assert solve(F7, A, b) == x
    # inconsistent system
    assert solve(F7, [[1, 0], [1, 0]], [1, 2]) is None


def test_pi_is_minor_vector():
    M = [[1, 0, 2], [0, 1, 3]]
    verts = johnson_vertices(3, 2)
    assert pi(F7, M, verts) == [
        det(F7, [[1, 0], [0, 1]]),
        det(F7, [[1, 2], [0, 3]]),
        det(F7, [[0, 2], [1, 3]]),
    ]


@pytest.mark.parametrize("q", [7, 8])
def test_all_minors_equal_det_on_every_subset(q):
    # a random 4 x 7 base: every row subset R and column subset C of
    # size s <= 4, against one elimination per minor
    F = field_make(q)
    M = _rand_mat(random.Random(40 + q), F, 4, 7)
    minors = all_minors(F, M, 4)
    assert minors[()] == [1]
    assert len(minors) == 2 ** 4
    for s in range(1, 5):
        cols = list(combinations(range(7), s))
        for R in combinations(range(4), s):
            assert minors[R] == [det(F, submatrix(M, R, C)) for C in cols]
    # a smaller smax stops at that size
    assert max(map(len, all_minors(F, M, 2))) == 2


@pytest.mark.parametrize("q", [2, 7, 8, 9, 11])
def test_all_minors_at_the_edges_equal_det(q):
    # one column subset (smax = n), one column, no minors (smax = 0) and
    # a size below the row count, each against one elimination per minor
    F = field_make(q)
    rng = random.Random(60 + q)
    square, column, wide = (_rand_mat(rng, F, 3, 3), _rand_mat(rng, F, 4, 1),
                            _rand_mat(rng, F, 4, 5))
    for M, smax in ((square, 3), (column, 1), (wide, 0), (wide, 2)):
        minors = all_minors(F, M, smax)
        n = len(M[0])
        assert minors[()] == [1]
        assert set(minors) == {R for s in range(smax + 1) for R in combinations(range(len(M)), s)}
        for R in minors:
            cols = list(combinations(range(n), len(R)))
            assert minors[R] == [det(F, submatrix(M, R, C)) for C in cols], (M, R)
    assert all_minors(F, square, 3)[0, 1, 2] == [det(F, square)]
    assert all_minors(F, column, 1) == {(): [1], **{(i,): [column[i][0]] for i in range(4)}}
    assert all_minors(F, wide, 0) == {(): [1]}


@st.composite
def field_matrices(draw):
    """(F, M): a rows x cols matrix over GF(2), GF(7), GF(8) or GF(11),
    either with free entries or a product through an inner dimension s
    no larger than either side, so of rank at most s (all zero at s = 0)."""
    F = field_make(draw(st.sampled_from([2, 7, 8, 11])))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(0, F.q - 1)
    if draw(st.booleans()):
        return F, [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    s = draw(st.integers(0, min(rows, cols)))
    A = [[draw(entry) for _ in range(s)] for _ in range(rows)]
    B = [[draw(entry) for _ in range(cols)] for _ in range(s)]
    return F, [[F.dot(a, [b[j] for b in B]) for j in range(cols)] for a in A]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(field_matrices())
def test_rank_is_the_rref_pivot_count(case):
    # rank eliminates forward only; rref also substitutes back
    F, M = case
    assert rank(F, M) == len(rref(F, M)[1])


@pytest.mark.parametrize("q", [2, 7, 8, 11])
def test_rank_of_empty_zero_and_deficient_matrices(q):
    F = field_make(q)
    # the last two rows are -row and row + u
    row, u = [1, 2 % q, 3 % q, 0], [0, 1, 1, 1]
    deficient = [row, u, F.scale(q - 1, row), [F.add(a, b) for a, b in zip(row, u)]]
    for M, expected in [([], 0), ([[], [], []], 0), ([[0] * 4] * 3, 0),
                        ([[0, 0], [0, 1]], 1), (deficient, 2)]:
        assert rank(F, M) == len(rref(F, M)[1]) == expected


def _assert_spans_on_every_subset(F, M):
    """spans(cols) against the rank of M on cols, for every column
    subset (none and all included) listed forwards and backwards."""
    spans = column_rank_test(F, M)
    n = len(M[0])
    for s in range(n + 1):
        for cols in combinations(range(n), s):
            expected = rank(F, take_columns(M, cols)) == len(M)
            assert spans(cols) == expected, (M, cols)
            assert spans(cols[::-1]) == expected, (M, cols)


@pytest.mark.parametrize("q", [2, 4, 7])
def test_column_rank_test_matches_rank_on_every_subset(q):
    # random 3 x 6 and 2 x 6 matrices, one whose last row is the sum of
    # the others and one with a zero row: every column subset (none and
    # all included), also listed backwards, against the rank of the
    # restriction; a matrix with no rows spans on no columns
    F = field_make(q)
    rng = random.Random(60 + q)
    mats = [_rand_mat(rng, F, 3, 6) for _ in range(3)] + [_rand_mat(rng, F, 2, 6)]
    dependent = _rand_mat(rng, F, 2, 6)
    mats.append(dependent + [[F.add(a, b) for a, b in zip(*dependent)]])
    mats.append(_rand_mat(rng, F, 2, 6) + [[0] * 6])
    for M in mats:
        _assert_spans_on_every_subset(F, M)
    assert column_rank_test(F, [])([])


BLOCK_FIELDS = [4, 7, 8, 9, 11]


@pytest.mark.parametrize("q", BLOCK_FIELDS)
def test_column_rank_test_on_square_matrices(q):
    # a square matrix spans on all of its columns exactly when it has
    # full rank, and on no smaller set
    F = field_make(q)
    rng = random.Random(70 + q)
    full = _rand_mat(rng, F, 3, 3)
    while rank(F, full) < 3:
        full = _rand_mat(rng, F, 3, 3)
    a, b = rng.randrange(1, q), rng.randrange(1, q)
    # the 2x2 one has ad = bc with every entry nonzero
    singular = full[:2] + [[F.add(x, y) for x, y in zip(*full[:2])]]
    dependent = [[a, b], [F.mul(a, b), F.mul(b, b)]]
    for M, has_full_rank in [(full, True), (singular, False), ([[0]], False),
                             ([[a]], True), ([[a, 0], [0, b]], True),
                             (dependent, False)]:
        assert (rank(F, M) == len(M)) == has_full_rank
        _assert_spans_on_every_subset(F, M)


@pytest.mark.parametrize("q", BLOCK_FIELDS)
def test_column_rank_test_answers_blocks_of_one_two_and_three_rows(q, monkeypatch):
    # random full-rank 3 x 6 matrices give every block shape up to 3x3
    # over the column subsets; a 1x1 or 2x2 block is answered without a
    # rank, a larger one with
    F = field_make(q)
    rng = random.Random(80 + q)
    ranked, shapes = [], set()

    def recording_rank(F, M):
        ranked.append((len(M), len(M[0]) if M else 0))
        return rank(F, M)

    for _ in range(3):
        M = _rand_mat(rng, F, 3, 6)
        while rank(F, M) < 3:
            M = _rand_mat(rng, F, 3, 6)
        pivots = set(rref(F, M)[1])
        for s in range(7):
            for cols in combinations(range(6), s):
                missing = len(pivots - set(cols))
                shapes.add((missing, len(set(cols) - pivots)))
        monkeypatch.setattr(matrix, "rank", recording_rank)
        _assert_spans_on_every_subset(F, M)
        monkeypatch.undo()
    assert {(1, 1), (2, 2), (3, 3)} <= shapes
    assert (3, 3) in ranked
    assert not {(1, 1), (2, 2)} & set(ranked)


def test_pi_signed_equals_extended_determinant():
    rng = random.Random(11)
    n, v = 5, 3
    verts = johnson_vertices(n, v)
    for _ in range(10):
        M = _rand_mat(rng, F7, v, n)
        signed = pi_signed(F7, M, verts)
        for L, val in zip(verts, signed):
            ext = [list(r) for r in M] + [
                [1 if c == j else 0 for c in range(n)]
                for j in range(n) if j not in L
            ]
            assert val == det(F7, ext)


def test_tau_is_entry_product():
    F2 = field_make(2)
    M = [[1, 0], [1, 1]]
    tuples = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert tau(F2, M, tuples) == [1, 1, 0, 0]


def test_compound_of_identity():
    C, verts = compound(F7, identity(4), 2)
    assert len(verts) == comb(4, 2) == 6
    assert C == identity(6)


def test_compound_multiplicative():
    rng = random.Random(7)
    g = _rand_mat(rng, F7, 4, 4)
    h = _rand_mat(rng, F7, 4, 4)
    Cg, _ = compound(F7, g, 2)
    Ch, _ = compound(F7, h, 2)
    Cgh, _ = compound(F7, mat_mul(F7, g, h), 2)
    assert Cgh == mat_mul(F7, Cg, Ch)


def test_compound_of_upper_triangular_is_upper_triangular():
    g = [[1, 2, 3, 4], [0, 5, 6, 1], [0, 0, 2, 3], [0, 0, 0, 4]]
    C, _ = compound(F7, g, 2)
    for i in range(len(C)):
        for j in range(i):
            assert C[i][j] == 0


def test_pi_rejects_wide_rows():
    with pytest.raises(ValueError):
        pi(F7, [[1, 2], [3, 4], [5, 6]], [(0, 1)])


@pytest.mark.parametrize("call, match", [
    (lambda: mat_mul(F7, [[1, 2]], [[1, 2]]), "shape mismatch: 1x2 times 1x2"),
    (lambda: det(F7, [[1, 2]]), "square"),
    (lambda: compound(F7, [[1, 2]], 1), "square"),
    (lambda: compound(F7, identity(11), 1), "only for n <= 10"),
], ids=["mat_mul", "det", "compound-shape", "compound-size"])
def test_shape_errors_are_typed(call, match):
    with pytest.raises(ValueError, match=match):
        call()
