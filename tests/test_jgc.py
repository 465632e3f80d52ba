"""Johnson graph codes: construction, duality, decoding."""

import itertools
import json
import random
import re
from math import comb

import pytest

import reference
from graphcodes import jgc
from graphcodes.combinat import ball_size, complement, graph_params, shell_index
from graphcodes.field import field_make
from graphcodes.hgc import construct_hgc
from graphcodes.jgc import (
    aligned_dot,
    anchored_minor_vector,
    aligned_dual_rows,
    certify_infosets,
    construct,
    decode_plan,
    dual,
    erasure_decode,
    from_json,
    is_infoset,
    signed_dual,
    signed_pairing,
    sparse_parities,
    syndrome_of,
    systematic_rows,
    to_json,
    unit_codeword,
)
from graphcodes.matrix import mat_vec, nullspace, rank
from graphcodes.rs import rs_jgc

F2 = field_make(2)

# the running 5-node example: a non-MDS [5,2] base code
EXAMPLE_BASE = [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]


def test_dimension_is_ball_size():
    for (n, v, k, t) in [(5, 2, 2, 1), (6, 3, 2, 1), (7, 4, 3, 2), (7, 4, 3, 1)]:
        code = rs_jgc(n, v, k, t, 11)
        assert code.dim == ball_size(n, v, k, min(v, k) - t)
        assert code.length == comb(n, v)


def test_generator_rows_are_independent():
    code = rs_jgc(6, 3, 2, 1, 7)
    assert rank(code.F, code.generator) == code.dim


def test_example_certification():
    code = construct(F2, EXAMPLE_BASE, 3, 2)
    report = certify_infosets(code)
    assert report["fail"] == []
    assert report["skipped"] == [(0, 2), (1, 4)]
    assert len(report["pass"]) == comb(5, 2) - 2


def test_certify_reports_equal_the_reference_on_the_sweep(monkeypatch):
    # criterion 8's sweep, every RS graph code with n <= 7 over GF(7) and
    # GF(8): the reports agree with a rank test that ranks every block
    sweep = [rs_jgc(n, v, k, t, q) for q in (7, 8) for n in range(2, 8)
             for v in range(1, n + 1) for k in range(1, n)
             for t in range(1, min(v, k) + 1)]
    assert len(sweep) == 504
    reports = [certify_infosets(code) for code in sweep]
    monkeypatch.setattr(jgc, "column_rank_test", reference.column_rank_test)
    assert [certify_infosets(code) for code in sweep] == reports


def test_mds_base_passes_every_anchor():
    code = rs_jgc(6, 3, 3, 2, 7)
    report = certify_infosets(code)
    assert report["fail"] == [] and report["skipped"] == []
    assert len(report["pass"]) == comb(6, 3)


def test_unit_codeword_support():
    code = rs_jgc(6, 3, 3, 2, 7)
    A0 = (1, 2, 4)
    for L in code.vertices:
        a = len(set(A0) & set(L))
        if a < code.t:
            continue
        weight_bound = comb(2 * a + code.n - code.k - code.v, a)
        word = unit_codeword(code, A0, L)
        assert word[code.vertex_pos[L]] == 1
        # zero at every layer at most as far from the anchor as L
        for Lp in code.vertices:
            if Lp != L and shell_index(Lp, A0) <= shell_index(L, A0):
                assert word[code.vertex_pos[Lp]] == 0
        assert sum(1 for x in word if x) <= weight_bound


def test_example_unit_codeword_weights():
    # weights stay within C(2t+n-k-v, t) = C(4,2) = 6
    code = construct(F2, EXAMPLE_BASE, 3, 2)
    A0 = (0, 1)
    for L in code.vertices:
        if len(set(A0) & set(L)) >= code.t:
            w = sum(1 for x in unit_codeword(code, A0, L) if x)
            assert w <= 6


def test_dual_dimensions_and_orthogonality():
    code = rs_jgc(6, 3, 2, 1, 7)
    dcode = dual(code)
    assert code.dim + dcode.dim == comb(6, 3)
    for c in code.generator[:5]:
        for d in dcode.generator[:5]:
            assert aligned_dot(code.F, c, code.vertices, d, dcode.vertices) == 0


def test_signed_pairing_vanishes():
    code = rs_jgc(6, 2, 2, 1, 7)
    scode = signed_dual(code)
    assert scode.v == code.n - code.v
    for c in code.generator[:4]:
        for d in scode.generator[:4]:
            assert signed_pairing(code.F, c, code.vertices,
                                  d, scode.vertices, code.n) == 0


def test_sparse_parity_structure():
    code = rs_jgc(7, 4, 3, 2, 11)
    A = (0, 2, 5)
    structure = sparse_parities(code, A)
    assert len(structure) == code.length - code.dim
    d1, d2, R = graph_params(code.n, code.v, code.k)
    Ac = complement(A, code.n)
    gen_pos = code.vertex_pos
    for (Lp, support), i in zip(structure.rows, structure.block_of_row):
        assert shell_index(Lp, Ac) == i
        weights = sum(1 for _, c in support if c)
        assert weights <= comb(d1 + d2 - 2 * i, R - i)
        # pivot has coefficient one, the rest sit strictly closer to A
        coeffs = dict(support)
        assert coeffs[Lp] == 1
        for L, c in support:
            if L != Lp and c:
                assert shell_index(L, A) < shell_index(Lp, A)
        # each row is a dual codeword
        h = [0] * code.length
        for L, c in support:
            h[gen_pos[L]] = c
        for row in code.generator:
            assert code.F.dot(row, h) == 0


def _ball(code, A, vec, fill=None):
    """vec at the B_r(A) positions and ``fill`` at every other one."""
    return [x if shell_index(L, A) <= code.r else fill
            for L, x in zip(code.vertices, vec)]


def _codeword_and_ball(code, A, seed):
    rng = random.Random(seed)
    coeffs = [rng.randrange(code.F.q) for _ in range(code.dim)]
    word = mat_vec(code.F, [list(col) for col in zip(*code.generator)], coeffs)
    return word, _ball(code, A, word)


def test_erasure_decode_codeword():
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 9)
    assert erasure_decode(code, A, known) == word


def test_erasure_decode_with_syndrome():
    rng = random.Random(10)
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (0, 3)
    vec = [rng.randrange(11) for _ in range(code.length)]
    syn = syndrome_of(code, vec)
    assert erasure_decode(code, A, _ball(code, A, vec), syndrome=syn) == vec


def test_erasure_decode_rejects_inconsistent_known():
    code = rs_jgc(6, 3, 2, 1, 11)
    with pytest.raises(ValueError):
        erasure_decode(code, (0, 1), [None] * code.length)


def test_erasure_decode_ignores_values_outside_the_ball():
    # only the ball positions are read: garbage anywhere else, in or out
    # of the field, leaves the decoded word as it is
    rng = random.Random(16)
    code = rs_jgc(6, 3, 2, 1, 11)
    for A in [(1, 4), (0, 3), (2, 5)]:
        vec = [rng.randrange(11) for _ in range(code.length)]
        syn = syndrome_of(code, vec)
        for fill in (None, 0, -1, 11, 10 ** 9):
            assert erasure_decode(code, A, _ball(code, A, vec, fill), syn) == vec
        garbage = [x if shell_index(L, A) <= code.r else rng.randrange(11)
                   for L, x in zip(code.vertices, vec)]
        assert erasure_decode(code, A, garbage, syn) == vec


def test_erasure_decode_rejects_ball_values_outside_the_field():
    # q and -1 are not field elements; word[i] +- q reduces to the right
    # symbol, so only the field check, not the syndrome check, stops it
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 23)
    i = code.ball(A)[0]
    for bad in (11, -1, word[i] + 11, word[i] - 11):
        damaged = list(known)
        damaged[i] = bad
        with pytest.raises(ValueError, match="not an element of GF"):
            erasure_decode(code, A, damaged)
    assert erasure_decode(code, A, known) == word


def test_erasure_decode_ball_value_rules():
    # the ball is checked in bulk by the one symbol rule: None is
    # missing, and any other non-element, a bool included, is named
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 29)
    ball = code.ball(A)
    for i in (ball[0], ball[-1]):
        for bad, message in [(None, "missing known coordinate"),
                             (11, r"is not an element of GF\(11\)"),
                             (-1, r"is not an element of GF\(11\)"),
                             (3.0, r"is not an element of GF\(11\)"),
                             ("3", r"is not an element of GF\(11\)"),
                             (True, r"True is not an element of GF\(11\)"),
                             (False, r"False is not an element of GF\(11\)")]:
            damaged = list(known)
            damaged[i] = bad
            with pytest.raises(ValueError, match=message):
                erasure_decode(code, A, damaged)
    assert erasure_decode(code, A, known) == word
    # region words are held to the same rule, below Regions.top
    K = code.F.regions(2, code.length + 1)
    regions = K.pack([x for x in word for _ in range(2)])
    assert K.unpack(erasure_decode(code, A, regions, None, K)) == K.unpack(regions)
    for bad in (True, -1, K.top):
        damaged = list(regions)
        damaged[ball[0]] = bad
        with pytest.raises(ValueError, match=f"{bad!r} is not a region"):
            erasure_decode(code, A, damaged, None, K)


def test_weight_one_dual_rows_keep_exact_syndromes():
    # a zero column of the base makes dual rows of a single nonzero; their
    # sparse form must still give the full products with every vector
    F3 = field_make(3)
    code = construct(F3, [[0, 1, 0, 0], [1, 0, 2, 0], [2, 0, 0, 0]], 2, 2)
    H = aligned_dual_rows(code)
    assert [sum(1 for x in h if x) for h in H] == [1, 1, 1]
    rng = random.Random(31)
    A = (0, 1, 2)
    for _ in range(5):
        vec = [rng.randrange(3) for _ in range(code.length)]
        syn = syndrome_of(code, vec)
        assert syn == [F3.dot(h, vec) for h in H]
        assert erasure_decode(code, A, _ball(code, A, vec), syn) == vec


def test_sparse_parities_make_one_systematic_elimination(monkeypatch):
    # every row's anchored vector shares one rref of the dual base over
    # the anchor's complement; the rows equal the per-row construction
    code = rs_jgc(8, 4, 4, 3, 11)
    A = (0, 1, 2, 3)
    D0 = nullspace(code.F, code.base)
    Ac = complement(A, code.n)
    calls = []
    real = jgc.rref

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(jgc, "rref", counting)
    structure = sparse_parities(code, A)
    assert len(calls) == 1
    monkeypatch.undo()
    assert len(structure) == 53
    for Lp, support in structure.rows:
        word = anchored_minor_vector(code.F, D0, Ac, Lp, code.coords)
        assert support == [(L, x) for L, x in zip(code.vertices, word) if x]


def test_erasure_decode_rejects_wrong_word_length():
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 17)
    for bad in (known[:-1], known + [0], []):
        with pytest.raises(ValueError, match="word length"):
            erasure_decode(code, A, bad)
    assert erasure_decode(code, A, known) == word


def test_syndrome_of_rejects_wrong_vector_length():
    # a short vector used to raise IndexError and a long one to give the
    # syndrome of its prefix; both raise ValueError, regions or not
    code = rs_jgc(6, 3, 2, 1, 7)
    word, _ = _codeword_and_ball(code, (1, 4), 17)
    K = code.F.regions(2, code.length + 1)
    for bad in ([0] * 3, word[:-1], word + [0], word + word, []):
        with pytest.raises(ValueError, match="vector length must equal the code length"):
            syndrome_of(code, bad)
        with pytest.raises(ValueError, match="vector length must equal the code length"):
            syndrome_of(code, K.pack(bad + bad), K)
    assert syndrome_of(code, word) == [0] * (code.length - code.dim)


def test_erasure_decode_rejects_a_syndrome_longer_than_the_dual_dimension():
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 17)
    syndrome = syndrome_of(code, word)
    assert len(syndrome) == code.length - code.dim
    with pytest.raises(ValueError, match="syndrome length must equal the dual dimension"):
        erasure_decode(code, A, known, syndrome + [0])
    assert erasure_decode(code, A, known, syndrome) == word


def test_dense_complete_rejects_missing_ball_coordinate():
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 11)
    known[code.ball(A)[0]] = None
    with pytest.raises(ValueError, match="missing known coordinate"):
        erasure_decode(code, A, known)
    # a radius one too small leaves more unknowns than dual rows: the
    # plan gets no inverse and the completion is refused
    small = rs_jgc(6, 3, 2, 1, 11)
    small.r -= 1
    with pytest.raises(ValueError, match="not recoverable"):
        erasure_decode(small, A, word)
    assert decode_plan(small, A).inverse is None


def test_erasure_decode_wrong_row_fails_syndrome_check(monkeypatch):
    # a wrong filled value must fail the final check against the syndrome
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    _, known = _codeword_and_ball(code, A, 12)
    real = jgc._dense_complete

    def corrupting(code_, groups, H, syndrome, w, K):
        out = real(code_, groups, H, syndrome, w, K)
        i = groups[0][0].out[0]
        out[i] = code_.F.add(out[i], 1)
        return out

    monkeypatch.setattr(jgc, "_dense_complete", corrupting)
    with pytest.raises(ValueError, match="inconsistent with the syndrome"):
        erasure_decode(code, A, known)


def test_non_infoset_anchor_rejected_again_with_warm_plan():
    code = construct(F2, EXAMPLE_BASE, 3, 2)
    A = (0, 2)  # skipped by certify_infosets: not a base information set
    known = _ball(code, A, [0] * code.length)
    for _ in range(2):
        with pytest.raises(ValueError, match="not an information set"):
            erasure_decode(code, A, known)


def test_missing_ball_coordinate_rejected_with_warm_plan():
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 13)
    assert erasure_decode(code, A, known) == word
    plan = decode_plan(code, A)
    partial = list(known)
    partial[code.ball(A)[0]] = None
    with pytest.raises(ValueError, match="missing known coordinate"):
        erasure_decode(code, A, partial)
    assert decode_plan(code, A) is plan and plan.inverse is not None
    assert erasure_decode(code, A, known) == word


@pytest.mark.parametrize("A", [(1, 9), (-1, 2), (1,), (1, 4, 5), (1, 1), (True, 4),
                               (1.0, 4), ("1", 4)])
def test_bad_anchors_raise_and_are_not_kept(A):
    # an anchor is k distinct ints (not bools) in range(n); anything
    # else raises naming it and leaves no plan behind, so a code keeps
    # at most C(n, k) plans
    code = rs_jgc(6, 3, 2, 1, 11)
    word, _ = _codeword_and_ball(code, (1, 4), 15)
    with pytest.raises(ValueError, match=re.escape(f"anchor {A}")):
        decode_plan(code, A)
    with pytest.raises(ValueError, match=re.escape(f"anchor {A}")):
        erasure_decode(code, A, word)
    assert code._plans == {}
    assert decode_plan(code, [4, 1]) is decode_plan(code, (1, 4))
    assert list(code._plans) == [(1, 4)]


@pytest.mark.parametrize("v", [1, 2, 3, 4])
def test_minors_plans_on_a_non_mds_base(v):
    # columns 0 and 1 of the base are equal, so every anchor holding
    # both is no information set: the minors route finds det X = 0 there
    # and agrees with is_infoset and with the eliminated plan everywhere
    F = field_make(11)
    base = [[1, 1, 1, 1, 1, 1], [0, 0, 1, 2, 3, 4]]
    code = construct(F, base, v, 1)
    flags = []
    for A in itertools.combinations(range(6), 2):
        plan = decode_plan(code, A)
        flags.append(is_infoset(F, base, A))
        assert plan.infoset == flags[-1]
        assert (plan.inverse is None) == (not flags[-1])
        assert plan == reference.decode_plan(code, A)
    assert code._cofactors is not None
    assert flags.count(False) == 1 and flags.count(True) == 14


def test_other_codes_keep_the_elimination_route():
    # a changed radius, a threshold t > 1 and a Hamming code build their
    # plans by elimination, never from the dual base's minors
    small = rs_jgc(6, 3, 2, 1, 11)
    small.r -= 1
    thick = rs_jgc(7, 3, 3, 2, 11)
    hamming = construct_hgc(field_make(5), [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]], 2, 1)
    for code in (small, thick, hamming):
        for A in itertools.combinations(range(code.n), code.k):
            plan = decode_plan(code, A)
            if code is not hamming:
                assert plan == reference.decode_plan(code, A)
        assert code._cofactors is None
    assert decode_plan(small, (1, 4)).inverse is None
    assert decode_plan(thick, (0, 1, 2)).inverse is not None


def test_decode_without_dual_keeps_one_cache_entry():
    # every decode uses the code's one dual, so the aligned rows and the
    # plans (each with its inverse) do not grow with the calls
    code = rs_jgc(6, 3, 2, 1, 11)
    A = (1, 4)
    word, known = _codeword_and_ball(code, A, 14)
    assert erasure_decode(code, A, known) == word
    H = code._aligned
    plan = decode_plan(code, A)
    for _ in range(49):
        assert erasure_decode(code, A, known) == word
    assert dual(code) is dual(code)
    assert code._aligned is H
    assert aligned_dual_rows(code) is H
    assert len(code._plans) == 1
    assert decode_plan(code, A) is plan
    assert len(plan.inverse) == len(plan.out) == len(H)
    assert all(len(row) == len(H) for row in plan.inverse)


def test_aligned_dual_rows_shape():
    code = rs_jgc(5, 2, 2, 1, 7)
    H = aligned_dual_rows(code)
    assert len(H) == code.length - code.dim
    assert all(len(row) == code.length for row in H)


def test_json_roundtrip():
    code = rs_jgc(6, 3, 2, 1, 7)
    back = from_json(to_json(code))
    assert back.generator == code.generator
    assert back.vertices == code.vertices
    with pytest.raises(ValueError):
        from_json('{"family": "other"}')
    # one vertex order: a descriptor may omit it, but not name another
    doc = json.loads(to_json(code))
    del doc["order"]
    assert from_json(json.dumps(doc)).generator == code.generator
    doc["order"] = "lex"
    with pytest.raises(ValueError, match="unknown vertex order 'lex'"):
        from_json(json.dumps(doc))


def test_json_float_field_order_rejected():
    doc = json.loads(to_json(rs_jgc(6, 3, 2, 1, 7)))
    field_make(doc["q"])  # the integer order is already built and shared
    doc["q"] = 7.0
    with pytest.raises(ValueError, match="not an integer"):
        from_json(json.dumps(doc))


def test_codimension_zero_code_decodes_without_a_dual():
    # dim 15 = C(6,4): the ball of every anchor is the whole word, and
    # the dual threshold v+1-t = 4 would exceed min(v, n-k) = 3
    code = construct(F2, [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]], 4, 1)
    assert code.dim == code.length == 15
    A = (0, 1, 2)
    plan = decode_plan(code, A)
    assert plan.out == () and plan.inverse == []
    word, known = _codeword_and_ball(code, A, 5)
    assert known == word
    assert erasure_decode(code, A, known) == word
    assert syndrome_of(code, word) == []
    with pytest.raises(ValueError, match="codimension 0"):
        dual(code)
    with pytest.raises(ValueError, match="codimension 0"):
        signed_dual(code)


def test_bad_threshold_rejected():
    with pytest.raises(ValueError):
        construct(F2, EXAMPLE_BASE, 3, 0)
    with pytest.raises(ValueError):
        construct(F2, EXAMPLE_BASE, 3, 3)


def test_typed_input_errors():
    with pytest.raises(ValueError, match="full rank"):
        construct(F2, [[1, 0, 1, 1, 0], [1, 0, 1, 1, 0]], 3, 1)
    with pytest.raises(ValueError, match="not an information set"):
        systematic_rows(F2, EXAMPLE_BASE, (0, 2))
    code = construct(F2, EXAMPLE_BASE, 3, 2)
    with pytest.raises(ValueError, match="meets anchor .* < t=2"):
        unit_codeword(code, (0, 1), (0, 2, 3))
    # a vertex is a sorted layer: a permuted one would flip pi's sign
    with pytest.raises(ValueError, match=r"\(2, 0, 3\) is not a vertex of JGCSpec\(n=5"):
        unit_codeword(code, (0, 1), (2, 0, 3))
    with pytest.raises(ValueError, match="not an information set"):
        sparse_parities(code, (0, 2))


@pytest.mark.parametrize("base", [[], [[]], [[], []]])
def test_empty_base_rejected(base):
    # no rows (k = 0) or no columns
    with pytest.raises(ValueError, match="at least one row and one column"):
        construct(F2, base, 1, 1)


def test_rs_jgc_with_k_at_most_0_rejected():
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least one row and one column"):
            rs_jgc(4, 2, k, 1, 7)


@pytest.mark.parametrize("base, match", [
    ([[1.0, 2]], "1.0 is not an element of GF"),
    ([[1, True]], "True is not an element of GF"),
    ([[1, 7]], "7 is not an element of GF"),
    ([[1, None]], "None is not an element of GF"),
    ([(1, 2), "ab"], "base holds a symbol outside GF"),
    ([[1, 0, 1], [0, 1]], "rows must have equal length"),
])
def test_base_entries_checked(base, match):
    with pytest.raises(ValueError, match=match):
        construct(field_make(7), base, 1, 1)


def test_dim_is_the_generator_row_count_before_the_rows_are_built():
    # dim comes from basis_index; the rows are built on first read
    for n in range(2, 7):
        for v in range(1, n + 1):
            for k in range(1, n):
                for t in range(1, min(v, k) + 1):
                    code = rs_jgc(n, v, k, t, 7)
                    assert "generator" not in vars(code)
                    dim = code.dim
                    assert dim == len(code.generator) == ball_size(n, v, k, min(v, k) - t)
                    assert "generator" in vars(code)
